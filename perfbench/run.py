"""Horizon-run benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload ieee33_card2 --seed 7 --seconds 20 --trace 0

Every workload goes through the public entry point ``cli.run(load_config(doc))``
in this one process, with BLAS threads pinned to 1.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps the program's layers from
outside (see ``tracing.py``) and reports per-layer metrics instead.  Outputs
are checked outside the timed region; the exit code is 1 when a check fails
and 2 when the program cannot be found.  Work files go to ``.perfbench_work/``.
"""

from __future__ import annotations

import os

# Bits depend on the BLAS thread count, so it is pinned before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"  # declares the metrics each mode reports, with units
SETUP_REPEATS = 3  # measured fresh processes per run, after one unmeasured


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _measure_setup(doc):
    """Medians over fresh processes, the first discarded.

    Returns (setup_s scaled, setup_s raw, import_s scaled); see ``speed.py``.
    """
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), json.dumps(doc)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["scaled_s"] = speed.scale(run["setup_s"], run["kernel_s"])
        run["scaled_import_s"] = speed.scale(run["import_s"], run["kernel_s"])
        runs.append(run)
    runs = runs[1:]
    keys = ("scaled_s", "setup_s", "scaled_import_s")
    return tuple(statistics.median(r[key] for r in runs) for key in keys)


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "mopsched").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


@dataclass
class Repetition:
    doc: int  # index into the run's config documents
    wall: float
    scaled: float  # wall seconds at the reference speed
    tracer: object  # tracing.Tracer, or None for a plain repetition
    summary: str  # the summary.json it wrote


def _run_once(cli, doc, tracer=None):
    """Wall seconds of one ``cli.run``; with a tracer, under its span."""
    cfg = cli.load_config(doc)
    if tracer is None:
        start = time.perf_counter()
        cli.run(cfg)
        return time.perf_counter() - start
    with tracer, tracer.span("cli.run") as span:
        cli.run(cfg)
    return span.duration


def _horizons(cli, modules, docs, seconds, trace, probe):
    """Repeat the run's horizons, under the speed probe, for about ``seconds``.

    Untraced runs cycle through ``docs``, at least once round.  Traced runs
    time ``docs[0]`` alone, alternating plain and traced repetitions, so the
    tracing overhead is measured in the same run.
    """
    docs = docs[:1] if trace else docs
    reps = []
    elapsed = 0.0
    while True:
        i = len(reps) % len(docs)
        tracer = tracing.Tracer(modules) if trace and len(reps) % 2 else None
        with probe:
            wall = _run_once(cli, docs[i], tracer)
        summary = (Path(docs[i]["output_dir"]) / "summary.json").read_text()
        reps.append(Repetition(i, wall, probe.scaled(wall), tracer, summary))
        elapsed += wall
        if len(reps) < (2 if trace else len(docs)):
            continue
        typical = statistics.median(r.wall for r in reps if r.tracer is None)
        if elapsed + typical / 2 >= seconds:
            return reps


def _outputs(doc):
    """Every file a horizon run wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(Path(doc["output_dir"]).iterdir())}


def _correctness(cli, docs, workload, seed, reps):
    """Check every horizon's outputs.

    Returns (problems, timesteps attempted, timesteps failed, failures by
    status, horizons compared with the reference).
    """
    references = json.loads(REFERENCE.read_text()).get(workload, {})
    problems = []
    attempted = failed = compared = 0
    kinds = collections.Counter()
    for i, doc in enumerate(docs):
        mine = [r for r in reps if r.doc == i]
        if not mine:
            continue
        tag = f"config seed {doc['seed']}: "
        outdir = Path(doc["output_dir"])
        cfg = cli.load_config(doc)
        labels = [cli._label(e) for e in cfg.cardinality]
        if len({r.summary for r in mine}) != 1:
            problems.append(tag + "repetitions wrote different summary.json files")
        csvs = [outdir / f"mission_{label}.csv" for label in labels]
        tried, bad, by_status = checks.count_timesteps(csvs)
        attempted += tried * len(mine)
        failed += bad * len(mine)
        kinds.update({status: n * len(mine) for status, n in by_status.items()})
        found = checks.check_consistency(outdir, labels)
        ref = references.get(str(doc["seed"]))
        if ref is not None:
            summary = json.loads(mine[0].summary)
            found += checks.compare_reference(
                checks.reference_record(summary, labels),
                ref,
                cli._bnb_config(cfg),
                summary["timesteps"],
                summary["timestep_hours"],
                cli._load_network(cfg).s_base_kva,
            )
            compared += 1
        problems += [tag + p for p in found]
    problems += checks.check_oracle(cli.load_config(docs[0]), seed)
    return problems, attempted, failed, dict(kinds), compared


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if not (SRC / "mopsched" / "cli.py").is_file():
        _fail(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from mopsched import cli, grid, mip, mission, profiles, solver, svgplot

    if Path(cli.__file__).resolve().parent != SRC / "mopsched":
        _fail(f"imported mopsched from {cli.__file__}, not from {SRC}")
    layers = (grid, mip, mission, profiles, solver, svgplot)
    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in layers}

    spec = json.loads(SPEC.read_text())
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    docs = workloads.config_docs(ROOT, args.workload, args.seed, workdir)
    env = _environment(args.seed)

    setup_s, setup_wall_s, import_s = _measure_setup(docs[0])
    warmup = workloads.warmup_doc(docs[0], workdir / "warmup")
    cli.run(cli.load_config(warmup))
    before = _outputs(warmup)
    reps = _horizons(cli, modules, docs, args.seconds, args.trace, speed.SpeedProbe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, attempted, failed, kinds, compared = _correctness(
        cli, docs, args.workload, args.seed, reps
    )
    # A timed horizon may run only once (ieee33_card2 at 20 s), so the
    # warm-up horizon is run again after the timed region: every run has
    # at least this one repetition to compare.
    cli.run(cli.load_config(warmup))
    if _outputs(warmup) != before:
        problems.append("the warm-up horizon wrote different files after the timed region")
    plain = [r for r in reps if r.tracer is None]
    if args.trace:
        traced = [r for r in reps if r.tracer is not None]
        per_rep = [tracing.layer_metrics(r.tracer.spans, r.scaled / r.wall) for r in traced]
        values = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
        values["cli.import_s"] = import_s
        outdir = Path(docs[0]["output_dir"])
        values["cli.artifact_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
        values["trace.overhead_frac"] = (
            statistics.median(r.scaled for r in traced) / statistics.median(r.scaled for r in plain)
            - 1.0
        )
        values["failed_timestep_frac"] = failed / attempted
        for i, r in enumerate(traced):
            r.tracer.write(workdir / f"spans_{i}.jsonl")
        declared = spec["per_layer"]
    else:
        per_doc = [
            statistics.median(r.scaled for r in plain if r.doc == i) for i in range(len(docs))
        ]
        values = {
            "horizon_s": statistics.fmean(per_doc),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "solved_timestep_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    timings = {
        "repetitions_per_horizon": {
            str(d["seed"]): sum(1 for r in reps if r.doc == i)
            for i, d in enumerate(docs[: 1 if args.trace else None])
        },
        "repetitions": [
            {
                "config_seed": docs[r.doc]["seed"],
                "traced": r.tracer is not None,
                "wall_s": r.wall,
                "scaled_s": r.scaled,
            }
            for r in reps
        ],
        "setup_wall_s": setup_wall_s,
        "reference_compared": compared,
    }
    record = {
        "workload": args.workload,
        "environment": env,
        **timings,
        "failed_by_status": kinds,
        "problems": problems,
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, **timings}))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
