"""Correctness checks on a horizon run's artifacts, made outside the timed region.

* ``count_timesteps``: attempted and failed timesteps from the mission CSVs'
  ``status`` column.  Every status other than ``optimal``/``gap_reached`` is a
  failure (``infeasible``, ``error``, ``node_limit``, ...).
* ``check_consistency``: the summary agrees with the mission CSVs it came from.
* ``compare_reference``: per-level totals and EC figures against a reference
  captured at an earlier commit, within the tolerances below.
* ``check_oracle``: branch-and-bound against exhaustive support enumeration on
  a few seeded constrained timesteps.

Each check returns a list of human-readable problems; empty means it passed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

OK_STATUSES = ("optimal", "gap_reached")

# Relative tolerance on an unconstrained level's loss totals.  The solver
# certifies residuals to 1e-8 relative; BLAS thread settings move the last
# bits (~5e-11 relative), so the comparison cannot be byte-identical.
UNCONSTRAINED_RTOL = 1e-7
REFERENCE_FIELDS = ("total_loss_kwh", "loss_reduction_kwh", "mec", "ec_histogram")


def _mission_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def count_timesteps(csv_paths):
    """(attempted, failed, failed statuses by kind) over the given mission CSVs."""
    attempted = failed = 0
    kinds = {}
    for path in csv_paths:
        for row in _mission_rows(path):
            attempted += 1
            if row["status"] not in OK_STATUSES:
                failed += 1
                kinds[row["status"]] = kinds.get(row["status"], 0) + 1
    return attempted, failed, kinds


def check_consistency(outdir, labels):
    """Problems where summary.json disagrees with the mission CSVs."""
    outdir = Path(outdir)
    summary = json.loads((outdir / "summary.json").read_text())
    dt = summary["timestep_hours"]
    problems = []
    if len(summary["runs"]) != len(labels):
        return [f"summary has {len(summary['runs'])} runs, expected {len(labels)}"]
    for label, run in zip(labels, summary["runs"]):
        rows = _mission_rows(outdir / f"mission_{label}.csv")
        if len(rows) != summary["timesteps"]:
            problems.append(f"{label}: {len(rows)} CSV rows for {summary['timesteps']} timesteps")
            continue
        objs = [float(r["obj"]) for r in rows]
        total = math.fsum(v for v in objs if math.isfinite(v)) * dt
        if not math.isclose(total, run["total_loss_kwh"], rel_tol=1e-12, abs_tol=1e-9):
            problems.append(
                f"{label}: CSV obj sum {total!r} != total_loss_kwh {run['total_loss_kwh']!r}"
            )
        ec = [int(r["EC"]) for r in rows]
        hist = {str(k): ec.count(k) for k in range(len(run["ec_histogram"]))}
        if hist != run["ec_histogram"] or max(ec) != run["mec"]:
            problems.append(f"{label}: CSV EC column disagrees with ec_histogram/mec")
    return problems


def reference_record(summary, labels):
    """The fields the reference keeps, per level label, from a summary.json document."""
    return {
        label: {key: run[key] for key in REFERENCE_FIELDS}
        for label, run in zip(labels, summary["runs"])
    }


def loss_tolerance(ref_level, label, bnb, tau, dt, s_base_kva):
    """Absolute kWh tolerance on a level's loss totals.

    Unconstrained levels are solved to solver accuracy.  Constrained levels
    are solved by branch-and-bound to the configured MIP gap, so each
    timestep may sit up to max(abs_gap, rel_gap * |obj|) above the optimum.
    """
    scale = abs(ref_level["total_loss_kwh"])
    if label == "unconstrained":
        return UNCONSTRAINED_RTOL * scale
    return (bnb.rel_gap + UNCONSTRAINED_RTOL) * scale + bnb.abs_gap * s_base_kva * tau * dt


def compare_reference(got, ref, bnb, tau, dt, s_base_kva):
    """Problems where ``got`` (per-level records) differs from ``ref``."""
    problems = []
    if set(got) != set(ref):
        return [f"levels {sorted(got)} != reference levels {sorted(ref)}"]
    for label in sorted(ref):
        g, r = got[label], ref[label]
        tol = loss_tolerance(r, label, bnb, tau, dt, s_base_kva)
        for key in ("total_loss_kwh", "loss_reduction_kwh"):
            if not abs(g[key] - r[key]) <= tol:
                problems.append(
                    f"{label}.{key}: {g[key]!r} vs reference {r[key]!r} (tol {tol:.3g})"
                )
        for key in ("mec", "ec_histogram"):
            if g[key] != r[key]:
                problems.append(f"{label}.{key}: {g[key]!r} vs reference {r[key]!r}")
    return problems


def check_oracle(cfg, seed, count=3):
    """Problems where branch-and-bound and support enumeration disagree.

    Checks ``count`` timesteps drawn from ``seed``, each at a cardinality
    limit taken from the config's constrained levels, or drawn from
    [1, m - 1] when the config has none.  Each timestep's program is built
    as the horizon run builds it, dc-link DER output included.
    """
    # imported here: the caller puts the program's source on sys.path first
    from mopsched import cli, mip, mission, oracle
    from mopsched.program import UNCONSTRAINED, build_timestep_program

    _, lg, conv, horizon = cli._build_setup(cfg)
    bnb = cli._bnb_config(cfg)
    settings = cli._solver_settings(cfg)
    hz = horizon(UNCONSTRAINED)
    limits = [n for n in cfg.cardinality if n != UNCONSTRAINED]
    rng = np.random.default_rng([seed, 0x0BAC1E])
    problems = []
    for _ in range(count):
        t = int(rng.integers(0, hz.tau))
        n = int(rng.choice(limits)) if limits else int(rng.integers(1, conv.m))
        p_der = 0.0
        if hz.der is not None and conv.has_dc_der:
            p_der = hz.der.peak_kw * hz.profiles[hz.der.profile][t] / lg.s_base_kva
        ts = replace(mission._timestep_input(lg, hz, t, p_der), cardinality_limit=n)
        ir = build_timestep_program(lg, conv, ts)
        ms = mip.solve_misocp(ir, bnb, settings)
        oc = oracle.enumerate_supports(ir, n, settings)
        if ms.status == "infeasible" or oc.status == "infeasible":
            if ms.status != oc.status:
                problems.append(f"t={t} n={n}: B&B {ms.status}, enumeration {oc.status}")
            continue
        tol = max(bnb.abs_gap, bnb.rel_gap * abs(oc.objective))
        if not abs(ms.objective - oc.objective) <= tol:
            problems.append(
                f"t={t} n={n}: B&B objective {ms.objective!r} != enumeration {oc.objective!r}"
            )
    return problems
