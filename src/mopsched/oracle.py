"""Independent verification engines for the scheduling optimization.

``enumerate_supports`` is ground truth for the cardinality MISOCP: it solves
one support-restricted SOCP per admissible support pattern and takes the
minimum.  ``grid_search_continuous`` brute-forces small continuous instances
on a refining lattice, evaluating the exact loss quadratic (never the conic
epigraph), so it independently confirms both the optimizer and the
relaxation tightness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import MopschedError, ValidationError
from . import solver as _solver

_ENUM_MAX_TERMINALS = 12
_GRID_MAX_DIMS = 4
_GRID_PTS_PER_DIM = 13
_FEAS_TOL = 1e-9


@dataclass
class OracleResult:
    status: str  # optimal | infeasible
    objective: object
    support: object = None  # tuple of 1-based active terminal indices
    solution: object = None
    solves: int = 0
    point: object = None  # grid search: {var: value}


def enumerate_supports(ir, n, settings=None):
    """Best objective over all binary supports of size <= n.

    Solves the support-fixed SOCP for every subset, the subsets of one size
    as one ``solver.solve_socp_many`` batch; infeasible subsets are skipped.
    Returns infeasible only when every subset is.
    """
    m = len(ir.binaries)
    if m == 0:
        raise ValidationError("program has no binaries to enumerate")
    if m > _ENUM_MAX_TERMINALS:
        raise ValidationError(f"{m} binaries exceed the 2^m enumeration guard")
    if not 0 <= n <= m:
        raise ValidationError(f"support size {n} outside [0, {m}]")
    best = None
    solves = 0
    for size in range(int(n) + 1):
        subsets = list(itertools.combinations(range(m), size))
        requests = [
            (ir, {z: (1.0 if i in subset else 0.0) for i, z in enumerate(ir.binaries)}, settings)
            for subset in subsets
        ]
        for subset, sol in zip(subsets, _solver.solve_socp_many(requests)):
            solves += 1
            if sol.status == _solver.INFEASIBLE:
                continue
            if sol.status != _solver.OPTIMAL:
                raise MopschedError(
                    f"oracle subproblem {subset} failed with status {sol.status}"
                )
            if best is None or sol.objective < best.objective:
                best = OracleResult(
                    status="optimal",
                    objective=sol.objective,
                    support=tuple(i + 1 for i in subset),
                    solution=sol,
                    solves=solves,
                )
    if best is None:
        return OracleResult(status="infeasible", objective=None, solves=solves)
    best.solves = solves
    return best


def _instance_data(ir):
    """Pull the physical instance out of a continuous timestep IR."""
    if ir.binaries:
        raise ValidationError("grid search handles continuous programs only")
    lm = ir.loss_model
    if not lm:
        raise ValidationError("program carries no loss model metadata")
    if not ir.converter:
        raise ValidationError("program carries no converter record")
    if "voltage" not in ir.data_rows:
        raise ValidationError("program carries no record of its voltage rows")
    x_vars = list(lm["x_vars"])
    # each monitored bus's v_upper and v_lower rows lead the inequalities
    v_rows = [
        (np.array([row.coeffs.get(v, 0.0) for v in x_vars]), row.rhs)
        for row in ir.inequalities[: 2 * len(ir.data_rows["voltage"])]
    ]
    return {
        "m": len(x_vars) // 2,
        "k": ir.converter["k"],
        "p_der": ir.converter["p_der"],
        "s_total": ir.converter["s_total"],
        "v_rows": v_rows,
        "Lambda": np.asarray(lm["Lambda"], float),
        "lam": np.asarray(lm["lam"], float),
        "sigma": float(lm["sigma"]),
        "x_vars": x_vars,
    }


def grid_search_continuous(ir, resolution=1e-3):
    """Approximate optimum by a refining dense scan; exact-quadratic objective.

    The dc-link balance is eliminated analytically (P_c[m] follows from the
    other decisions), so the scan runs over a full-dimensional box:
    (P_1..P_{m-1}, Q_1..Q_m, total apparent power when k > 0).  Accuracy is
    bounded by the final lattice spacing times the objective's Lipschitz
    constant.
    """
    inst = _instance_data(ir)
    m, k, s_total, p_der = inst["m"], inst["k"], inst["s_total"], inst["p_der"]
    ndim = (m - 1) + m + (1 if k > 0 else 0)
    if ndim > _GRID_MAX_DIMS:
        raise ValidationError(
            f"{ndim} decision dimensions exceed the grid-search guard ({_GRID_MAX_DIMS})"
        )

    lo = np.array([-s_total] * (2 * m - 1) + ([0.0] if k > 0 else []))
    hi = np.array([s_total] * (2 * m - 1) + ([s_total] if k > 0 else []))

    def evaluate(pts):
        """pts: (N, ndim) -> (objective array, feasibility mask, x array)."""
        N = pts.shape[0]
        P = np.empty((N, m))
        P[:, : m - 1] = pts[:, : m - 1]
        Q = pts[:, m - 1 : 2 * m - 1]
        if k > 0:
            s_sum = pts[:, -1]
            P[:, m - 1] = k * s_sum - p_der - P[:, : m - 1].sum(axis=1)
        else:
            s_sum = np.full(N, s_total)
            P[:, m - 1] = -p_der - P[:, : m - 1].sum(axis=1)
        g = np.hypot(P, Q)
        feas = g.sum(axis=1) <= s_sum + _FEAS_TOL
        x = np.hstack([P, Q])
        for coeffs, rhs in inst["v_rows"]:
            feas &= x @ coeffs <= rhs + _FEAS_TOL
        quad = np.einsum("ij,jk,ik->i", x, inst["Lambda"], x) + x @ inst["lam"] + inst["sigma"]
        obj = quad + k * s_sum
        return obj, feas, x

    best_obj = None
    best_x = None
    best_pt = None
    spacing = (hi - lo) / (_GRID_PTS_PER_DIM - 1)
    cur_lo, cur_hi = lo.copy(), hi.copy()
    while True:
        axes = [
            np.linspace(cur_lo[d], cur_hi[d], _GRID_PTS_PER_DIM) for d in range(ndim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        obj, feas, x = evaluate(pts)
        if feas.any():
            idx = np.argmin(np.where(feas, obj, np.inf))
            if best_obj is None or obj[idx] < best_obj:
                best_obj = float(obj[idx])
                best_x = x[idx]
                best_pt = pts[idx]
        spacing = (cur_hi - cur_lo) / (_GRID_PTS_PER_DIM - 1)
        if np.all(spacing <= resolution):
            break
        center = best_pt if best_pt is not None else 0.5 * (cur_lo + cur_hi)
        half = 2.0 * spacing
        cur_lo = np.maximum(lo, center - half)
        cur_hi = np.minimum(hi, center + half)

    if best_obj is None:
        return OracleResult(status="infeasible", objective=None)
    sol_point = {v: float(best_x[j]) for j, v in enumerate(inst["x_vars"])}
    return OracleResult(status="optimal", objective=best_obj, point=sol_point)
