"""Record the correctness gate's reference figures for a range of seeds.

Usage (from the repository root):

    python3 perfbench/capture_reference.py --seeds 0-31 [--workload NAME ...]

Runs every horizon a benchmark run of each workload seed would time (see
``workloads.config_docs``) once through ``cli.run`` and stores, per config
seed and level, the fields ``checks.REFERENCE_FIELDS`` names into
``perfbench/reference.json``.  Config seeds the file already holds are kept
and not run again.  Capture only at a commit whose
results are trusted: the gate compares every later commit against it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import checks
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    from mopsched import cli

    ref = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        known = ref.setdefault(name, {})
        for seed in range(lo, hi + 1):
            for doc in workloads.config_docs(run.ROOT, name, seed, run.WORK / "capture" / name):
                if str(doc["seed"]) in known:
                    continue
                cfg = cli.load_config(doc)
                start = time.perf_counter()
                cli.run(cfg)
                took = time.perf_counter() - start
                labels = [cli._label(e) for e in cfg.cardinality]
                problems = checks.check_consistency(cfg.output_dir, labels)
                if problems:
                    sys.exit(f"{name} config seed {doc['seed']}: {problems}")
                summary = json.loads((Path(cfg.output_dir) / "summary.json").read_text())
                known[str(doc["seed"])] = checks.reference_record(summary, labels)
                print(f"{name} config seed {doc['seed']}: {took:.2f} s", flush=True)
                run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
