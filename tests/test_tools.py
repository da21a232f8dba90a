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


def test_artifact_digest_pins_two_reference_horizons():
    """``tools/artifact_digest.py --expect`` holds the bytes of two reference
    horizons: 5bus_der:0, whose legs are fixed off beside a dc-link DER, and
    ieee33_card2:2012, which ends with an ``error`` timestep.  A change that
    means to move bits on the solve path recaptures this total and records
    it in CHANGES.md."""
    total = "732285534b1323ef83bb32ac2cb17bfc2ecc6aea94f7ab668ad91e8085b66bd1"
    args = ["--expect", total, "5bus_der:0", "ieee33_card2:2012"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
