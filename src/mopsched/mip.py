"""Branch-and-bound over the binary support indicators, wrapping the SOCP engine.

Nodes relax unfixed binaries to [0, 1]; partial fixings are substituted into
the big-M and cardinality rows.  Best-bound node selection with
most-fractional branching (lowest index breaks ties).  Because the binaries
are cost-free support indicators, any node relaxation whose active-leg count
already satisfies the cardinality budget is integer-repairable on the spot,
which keeps trees tiny.  The final incumbent is re-solved with its binaries
hard-fixed, so big-M leakage cannot survive into the returned solution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np

from .errors import MopschedError, ValidationError, count_setting, real_setting
from .program import EC_EPS_FRACTION, ConicProgramIR, Row
from . import solver as _solver

_INT_TOL = 1e-6


@dataclass(frozen=True)
class BnBConfig:
    rel_gap: float = 1e-4
    abs_gap: float = 1e-5
    node_limit: int = 10000

    def __post_init__(self):
        for name in ("rel_gap", "abs_gap"):
            object.__setattr__(self, name, real_setting(f"mip {name}", getattr(self, name)))
        object.__setattr__(self, "node_limit", count_setting("mip node_limit", self.node_limit, 1))


@dataclass
class MipSolution:
    status: str  # optimal | gap_reached | infeasible | node_limit
    incumbent: object  # ConicSolution with integral z, or None
    objective: object
    bound: object
    gap_abs: object
    gap_rel: object
    nodes_explored: int
    fixings: dict


def _relaxed_program(ir, fixed):
    """Continuous node program: fixed binaries substituted, free ones in [0,1]."""
    free = [z for z in ir.binaries if z not in fixed]
    ineqs = []
    for row in ir.inequalities:
        coeffs = dict(row.coeffs)
        rhs = row.rhs
        for z, val in fixed.items():
            if z in coeffs:
                rhs -= coeffs.pop(z) * val
        ineqs.append(Row(coeffs, rhs, tag=row.tag))
    for z in free:
        ineqs.append(Row({z: 1.0}, 1.0, tag=f"relax_ub[{z}]"))
        ineqs.append(Row({z: -1.0}, 0.0, tag=f"relax_lb[{z}]"))
    variables = tuple(v for v in ir.variables if v not in fixed)
    return ConicProgramIR(
        variables=variables,
        equalities=ir.equalities,
        inequalities=tuple(ineqs),
        soc_cones=ir.soc_cones,
        binaries=(),
        objective=ir.objective,
        big_m=ir.big_m,
        loss_model=ir.loss_model,
        converter=ir.converter,
    )


def branch(node_fixed, z_values, binaries):
    """Most-fractional branching: returns (variable, child fixing dicts)."""
    best_var, best_frac = None, -1.0
    for z in binaries:
        if z in node_fixed:
            continue
        val = z_values[z]
        frac = min(val, 1.0 - val)
        if frac > best_frac + 1e-12:
            best_var, best_frac = z, frac
    if best_var is None or best_frac <= _INT_TOL:
        return None, ()
    lo = dict(node_fixed)
    lo[best_var] = 0.0
    hi = dict(node_fixed)
    hi[best_var] = 1.0
    return best_var, (lo, hi)


def _solve_relaxation(ir, fixed, settings):
    rel = _relaxed_program(ir, fixed)
    sol = _solver.solve_socp(rel, {}, settings)
    if sol.status == _solver.NUMERICAL_FAILURE:
        retry = replace(
            settings or _solver.SolverSettings(), refine=4, ruiz_iter=8, reg=1e-9
        )
        sol = _solver.solve_socp(rel, {}, retry)
    return sol


def _repair_support(ir, sol, fixed):
    """Integral fixing matching the relaxation's active legs, if within budget.

    Each indicator gates one apparent-power variable; a leg is active when
    that variable exceeds the support tolerance.  Returns None when the
    active count exceeds the cardinality budget.
    """
    support_eps = EC_EPS_FRACTION * ir.big_m
    gated = ir.cardinality["indicators"]
    repaired = {}
    for z in ir.binaries:
        if z in fixed:
            repaired[z] = fixed[z]
        else:
            repaired[z] = 1.0 if sol.primal[gated[z]] > support_eps else 0.0
    if sum(repaired.values()) > ir.cardinality["budget"] + 1e-9:
        return None
    return repaired


def solve_misocp(ir, cfg=None, settings=None, trace=None):
    """Branch-and-bound MISOCP solve; delegates to the SOCP engine when the
    program has no binaries."""
    cfg = cfg or BnBConfig()
    trace_rows = [] if trace is not None else None

    if not ir.binaries:
        sol = _solver.solve_socp(ir, {}, settings)
        if sol.status == _solver.OPTIMAL:
            return MipSolution(
                status="optimal",
                incumbent=sol,
                objective=sol.objective,
                bound=_solver.dual_objective(sol),
                gap_abs=0.0,
                gap_rel=0.0,
                nodes_explored=1,
                fixings={},
            )
        if sol.status == _solver.INFEASIBLE:
            return MipSolution("infeasible", None, None, None, None, None, 1, {})
        raise MopschedError(f"continuous solve failed with status {sol.status}")
    if set(ir.cardinality.get("indicators", ())) != set(ir.binaries):
        raise ValidationError("program has binaries but no cardinality record for them")

    incumbent_fix = None
    incumbent_obj = np.inf

    def within_gap(bound):
        return incumbent_fix is not None and bound >= incumbent_obj - max(
            cfg.abs_gap, cfg.rel_gap * abs(incumbent_obj)
        )

    # heap entries: (inherited lower bound, counter, fixings); node relaxations
    # are solved lazily at pop time so pruned nodes cost nothing.
    heap = [(-np.inf, 0, {})]
    counter = 1
    nodes_explored = 0
    # Nodes fathomed inside the gap may sit below the incumbent, so the least
    # of their bounds stays part of the global lower bound.
    pruned_bound = np.inf

    status = None
    while heap:
        bound, _, fixed = heapq.heappop(heap)
        if within_gap(bound):
            # best-bound order: everything still open is at least as costly
            open_bound = bound
            break
        if nodes_explored >= cfg.node_limit:
            status = "node_limit"
            open_bound = bound
            break
        nodes_explored += 1

        sol = _solve_relaxation(ir, fixed, settings)
        if sol.status == _solver.INFEASIBLE:
            continue
        if sol.status != _solver.OPTIMAL:
            raise MopschedError(f"node relaxation failed with status {sol.status}")
        bound = max(bound, _solver.dual_objective(sol))
        if trace_rows is not None:
            trace_rows.append(
                (
                    nodes_explored,
                    bound,
                    incumbent_obj,
                    len(heap),
                    ";".join(f"{z}={int(v)}" for z, v in sorted(fixed.items())),
                )
            )
        if within_gap(bound):
            pruned_bound = min(pruned_bound, bound)
            continue  # fathomed by bound

        repaired = _repair_support(ir, sol, fixed)
        if repaired is not None:
            if sol.objective < incumbent_obj - 1e-12:
                incumbent_obj = sol.objective
                incumbent_fix = repaired
            continue

        z_values = {z: sol.primal[z] for z in ir.binaries if z not in fixed}
        var, children = branch(fixed, z_values, ir.binaries)
        if var is None:
            # integral without repair headroom: candidate incumbent
            cand = {z: (fixed[z] if z in fixed else round(z_values[z])) for z in ir.binaries}
            if sol.objective < incumbent_obj - 1e-12:
                incumbent_obj = sol.objective
                incumbent_fix = cand
            continue
        for child_fixed in children:
            heapq.heappush(heap, (bound, counter, child_fixed))
            counter += 1
    else:
        open_bound = incumbent_obj
    global_bound = min(pruned_bound, open_bound)

    if trace is not None:
        with open(trace, "w") as fh:
            fh.write("node,bound,incumbent,open,fixings\n")
            for row in trace_rows:
                fh.write(",".join(str(v) for v in row) + "\n")

    if incumbent_fix is None:
        if status == "node_limit":
            return MipSolution("node_limit", None, None, global_bound, None, None, nodes_explored, {})
        return MipSolution("infeasible", None, None, None, None, None, nodes_explored, {})
    if status is None:
        tol0 = 1e-9 * max(1.0, abs(incumbent_obj))
        status = "optimal" if incumbent_obj - global_bound <= tol0 else "gap_reached"

    # Final verification solve with binaries hard-fixed (checks big-M semantics).
    final = _solver.solve_socp(ir, incumbent_fix, settings)
    if final.status != _solver.OPTIMAL:
        raise MopschedError(
            f"incumbent re-verification failed with status {final.status}"
        )
    obj = final.objective
    bound_out = min(global_bound, obj)
    gap_abs = max(0.0, obj - bound_out)
    gap_rel = gap_abs / max(1e-12, abs(obj))
    return MipSolution(
        status=status,
        incumbent=final,
        objective=obj,
        bound=bound_out,
        gap_abs=gap_abs,
        gap_rel=gap_rel,
        nodes_explored=nodes_explored,
        fixings=dict(incumbent_fix),
    )
