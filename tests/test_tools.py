"""The repository's measuring tools run against the current library."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_batch_counts_sees_one_compile_per_level():
    """``tools/batch_counts.py`` wraps library functions by name; on a 5-bus
    horizon of 192 timesteps each level is compiled once and re-valued 191
    times."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "batch_counts.py"), "5bus_der:7"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        timeout=300,
    ).stdout
    header, *lines = [line.split() for line in out.splitlines()]
    rows = [dict(zip(header, line)) for line in lines]
    assert [row["level"] for row in rows] == ["n1", "unconstrained"]
    for row in rows:
        assert row["horizon"] == "5bus_der:7"
        assert (row["full_compiles"], row["instantiated"]) == ("1", "191")
