"""Work counts of benchmark horizons, per cardinality level.

Usage (from the repository root):

    python3 tools/batch_counts.py WORKLOAD:CONFIG_SEED [WORKLOAD:CONFIG_SEED ...]

Runs each named horizon, the run-config document that
``perfbench/workloads.config_docs`` builds for the workload with that config
seed (as ``tools/artifact_digest.py`` does), through ``cli.run`` in this one
process.  The process pins itself to one CPU (``os.sched_setaffinity`` on
its own process only) and BLAS to one thread before numpy loads, so each
level runs as one share, its windows in timestep order.  Module functions
are wrapped from outside to count, per level:

    full_compiles        programs compiled in full by ``build_timestep_program``
    instantiated         timesteps re-valued from a compile made for an
                         earlier timestep: tau minus the full compiles
    windows              windows of ``mip.solve_misocp_many``, counted as
                         ``mip._drive`` calls
    waves                ``solver.solve_socp_many`` calls
    batches              interior-point batches (``solver._solve_conelp_batch``)
    batch_iterations     lockstep iterations summed over batches; a batch runs
                         as many as its slowest instance
    instance_iterations  iterations summed over the instances of all batches

The counts do not depend on timing or on the machine's load, so two
checkouts compare by them where ``horizon_s`` is noisy.  Output files go to a
temporary directory that is removed afterwards.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from mopsched import cli, mip, mission, solver  # noqa: E402

COUNTS = (
    "full_compiles",
    "instantiated",
    "windows",
    "waves",
    "batches",
    "batch_iterations",
    "instance_iterations",
)


def counted(doc):
    """Run ``doc`` through ``cli.run``; returns {level label: {count: value}}."""
    levels = {}
    current = {}
    originals = [
        (mission, "schedule_horizon"),
        (mission, "build_timestep_program"),
        (mip, "_drive"),
        (solver, "solve_socp_many"),
        (solver, "_solve_conelp_batch"),
    ]
    saved = [(module, name, getattr(module, name)) for module, name in originals]
    schedule, build, drive, socp_many, batch = (fn for _, _, fn in saved)

    def count(key, by=1):
        current[key] += by

    def scheduling(grid, conv, horizon, *args, **kwargs):
        current.update(dict.fromkeys(COUNTS, 0))
        profile = schedule(grid, conv, horizon, *args, **kwargs)
        current["instantiated"] = horizon.tau - current["full_compiles"]
        levels[cli._label(horizon.cardinality_limit)] = dict(current)
        return profile

    def building(*args, **kwargs):
        count("full_compiles")
        return build(*args, **kwargs)

    def windowing(*args, **kwargs):
        count("windows")
        return drive(*args, **kwargs)

    def waving(*args, **kwargs):
        count("waves")
        return socp_many(*args, **kwargs)

    def batching(*args, **kwargs):
        raws = batch(*args, **kwargs)
        count("batches")
        count("batch_iterations", max(raw["iterations"] for raw in raws))
        count("instance_iterations", sum(raw["iterations"] for raw in raws))
        return raws

    wrappers = [scheduling, building, windowing, waving, batching]
    try:
        for (module, name, _), wrapper in zip(saved, wrappers):
            setattr(module, name, wrapper)
        cli.run(cli.load_config(doc))
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return levels


def main(argv):
    if not argv:
        sys.exit("usage: python3 tools/batch_counts.py WORKLOAD:CONFIG_SEED [WORKLOAD:CONFIG_SEED ...]")
    for arg in argv:
        name, _, seed = arg.partition(":")
        if name not in workloads.WORKLOADS:
            sys.exit(f"unknown workload {name!r}; known: {sorted(workloads.WORKLOADS)}")
        if not seed.isdigit():
            sys.exit(f"{arg!r} names no config seed: give WORKLOAD:CONFIG_SEED")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(" ".join(["horizon", "level", *COUNTS]))
    with tempfile.TemporaryDirectory() as tmp:
        for arg in argv:
            name, _, seed = arg.partition(":")
            doc = workloads.config_docs(ROOT, name, int(seed), tmp)[0]
            for label, counts in counted(doc).items():
                print(" ".join([arg, label, *(str(counts[key]) for key in COUNTS)]), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
