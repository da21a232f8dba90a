"""The repository's measuring tools run against the current library."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def batch_counts_5bus():
    """Output of ``tools/batch_counts.py 5bus_der:7``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "batch_counts.py"), "5bus_der:7"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        timeout=300,
    ).stdout


def test_batch_counts_sees_one_compile_per_level(batch_counts_5bus):
    """``tools/batch_counts.py`` wraps library functions by name; on a 5-bus
    horizon of 192 timesteps each level is compiled once and re-valued 191
    times."""
    header, *lines = [line.split() for line in batch_counts_5bus.splitlines()]
    rows = [dict(zip(header, line)) for line in lines]
    assert [row["level"] for row in rows] == ["n1", "unconstrained"]
    for row in rows:
        assert row["horizon"] == "5bus_der:7"
        assert (row["full_compiles"], row["instantiated"]) == ("1", "191")


def test_batch_counts_pins_windows_waves_and_batches(batch_counts_5bus):
    """The windows, waves, batches and iterations of each level of a 5-bus
    horizon.  The counts do not depend on timing, so a change that means to
    keep how a horizon is solved keeps these lines."""
    assert batch_counts_5bus.splitlines()[1:] == [
        "5bus_der:7 n1 1 191 3 10 16 183 4417",
        "5bus_der:7 unconstrained 1 191 3 3 3 43 2005",
    ]


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


def test_program_memory_runs_on_both_fixtures():
    """``tools/program_memory.py`` reads ``cli._build_setup`` and
    ``mission._timestep_programs``; it prints one line per fixture level.
    The bytes per program depend on the Python build and are not pinned."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "program_memory.py")],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        timeout=300,
    )
    header, *lines = proc.stdout.splitlines()
    assert header == "config level programs KiB_per_program"
    assert [line.split()[:3] for line in lines] == [
        ["ieee33", "n2", "95"],
        ["ieee33", "unconstrained", "95"],
        ["5bus", "n1", "47"],
        ["5bus", "unconstrained", "47"],
    ]
