"""Digest of the output files of every benchmark reference horizon.

Usage (from the repository root):

    python3 tools/artifact_digest.py [--expect TOTAL] [WORKLOAD | WORKLOAD:CONFIG_SEED ...]

Runs each config seed that ``perfbench/reference.json`` records for the named
workloads, or for all three benchmark workloads (160 horizons) when none is
named; ``WORKLOAD:CONFIG_SEED`` runs that one horizon, for example
``ieee33_card2:2007 ieee33_card2:12 ieee33_card2:2012``, the horizons that
end with ``error`` timesteps.  An unknown workload, or a seed the reference
lacks, exits with a message before anything runs.  Each run-config document
is built by
``perfbench/workloads.config_docs`` and run through ``cli.run``, as the
benchmark runs it.  Prints one line per horizon, ``<workload> <config seed>
<sha256>``, the SHA-256 being taken over the horizon's output files in sorted
name order (each file's name, size and bytes), and then ``total <sha256>``
over those lines.  Two checkouts that print the same lines wrote byte-identical
artifacts.  BLAS threads are pinned to 1 before numpy loads, because the last
bits of a solve depend on the BLAS thread count.  Output files go to a
directory per workload and config seed under a temporary directory that is
removed afterwards, so a horizon's digest covers only its own files; nothing
under ``perfbench/`` is written.

``--expect TOTAL`` exits 1 with a message when the printed total differs
from ``TOTAL``, so a change meant to keep every artifact byte-identical checks
itself in one command.  Over all 160 horizons the total is currently

    9cc50e98e973796fb9ac5d24f0c48adeca8fa15cd24657c4b0fea4c1d15879c3
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from mopsched import cli  # noqa: E402


def directory_digest(outdir):
    """SHA-256 over the files of ``outdir``, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def horizons(args, reference):
    """The (workload, config seed) pairs that ``args`` name, in print order."""
    pairs = set()
    for arg in args or reference:
        name, _, seed = arg.partition(":")
        if name not in reference:
            sys.exit(f"unknown workload {name!r}; known: {sorted(reference)}")
        if seed and seed not in reference[name]:
            sys.exit(f"config seed {seed!r} of {name} is not in perfbench/reference.json")
        pairs.update((name, s) for s in ([seed] if seed else reference[name]))
    return sorted(pairs, key=lambda pair: (pair[0], int(pair[1])))


def main(argv):
    parser = argparse.ArgumentParser(description="Digest of the benchmark reference horizons' outputs.")
    parser.add_argument("--expect", metavar="TOTAL", help="exit 1 unless the total is TOTAL")
    parser.add_argument("horizons", nargs="*", metavar="WORKLOAD[:CONFIG_SEED]")
    args = parser.parse_args(argv)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    pairs = horizons(args.horizons, reference)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in pairs:
            # the reference is keyed by config seed; a run's first document
            # carries the workload seed as its config seed
            doc = workloads.config_docs(ROOT, name, int(seed), Path(tmp) / name)[0]
            cli.run(cli.load_config(doc))
            line = f"{name} {seed} {directory_digest(Path(doc['output_dir']))}"
            print(line, flush=True)
            total.update(line.encode() + b"\n")
    print(f"total {total.hexdigest()}")
    if args.expect is not None and args.expect != total.hexdigest():
        sys.exit(f"artifact_digest: total {total.hexdigest()} differs from the expected {args.expect}")


if __name__ == "__main__":
    main(sys.argv[1:])
