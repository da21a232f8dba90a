"""Memory held by one re-valued timestep program, per fixture level.

Usage (from the repository root):

    python3 tools/program_memory.py

For each level of the ``ieee33`` and ``5bus`` fixture configs, draws the
level's first timestep's program from ``mission._timestep_programs`` (the
level's one full compile happens there), then keeps every other timestep's
program (timesteps 1 to tau - 1, each re-valued from that compile) and prints the bytes ``tracemalloc`` sees allocated and still
held for them, divided by their count: what each further program of a window
costs.  The figures are Python allocations only and do not depend on the
machine.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mopsched import cli, mission  # noqa: E402


def per_program_bytes(grid, conv, horizon):
    """(re-valued programs, bytes held per program) of one level."""
    programs = mission._timestep_programs(grid, conv, horizon, range(horizon.tau))
    next(programs)  # the full compile, and timestep 0 re-valued from it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = list(programs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return len(kept), held / len(kept)


def main():
    print("config level programs KiB_per_program")
    for config in ("ieee33", "5bus"):
        cfg = cli.load_config(config)
        _, grid, conv, horizon = cli._build_setup(cfg)
        for level in cfg.cardinality:
            count, held = per_program_bytes(grid, conv, horizon(level))
            print(f"{config} {cli._label(level)} {count} {held / 1024:.1f}")


if __name__ == "__main__":
    main()
