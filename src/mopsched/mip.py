"""Branch-and-bound over the binary support indicators, wrapping the SOCP engine.

A node is a set of binary fixings on the timestep's own program: the solver
substitutes the fixed binaries and relaxes the others to [0, 1].  Best-bound
node selection with most-fractional branching (lowest index breaks ties).
Because the binaries are cost-free support indicators, any node relaxation
whose active-leg count already satisfies the cardinality budget is
integer-repairable on the spot, which keeps trees tiny.  The final incumbent
is re-solved with its binaries hard-fixed, so big-M leakage cannot survive
into the returned solution.

The search is a generator, ``_branch_and_bound``, that yields every SOCP it
needs solved as a ``solver.solve_socp`` argument tuple (ir, fixings,
settings): node relaxations, their retries and the verification solve.  One
driver, ``_drive``, runs any number of searches in lockstep waves through
``solver.solve_socp_many``; ``solve_misocp`` hands it one search, and
``solve_misocp_many`` draws any stream of programs in windows and hands it
one window's searches at a time.  The solver answers every request with a
ConicSolution, a failure as its status, and every search ends in a
MipSolution: one that cannot go on ends ``error``, with its message and the
nodes it solved, and the other searches run on.  Only a malformed program
raises.  Batching gives each SOCP the bits of a lone solve, so a search
takes the same path and returns the same result either way.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, count_setting, real_setting
from .program import EC_EPS_FRACTION
from . import solver as _solver


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
    status: str  # optimal | gap_reached | infeasible | node_limit | error
    incumbent: object  # ConicSolution with integral z, or None
    objective: object
    bound: object
    gap_abs: object
    gap_rel: object
    nodes_explored: int
    fixings: dict
    nodes: list  # (node, bound, incumbent, open, fixings dict) per node relaxation solved optimal
    message: object = None  # why an ``error`` search could not go on


def branch(node_fixed, z_values, binaries):
    """Most-fractional branching: returns (variable, child fixing dicts).

    Only nodes that ``_repair_support`` rejected come here: their active
    legs (z > 1e-5 each) cannot all sit near 1 under the budget row.
    """
    best_var, best_frac = None, -1.0
    for z in binaries:
        if z in node_fixed:
            continue
        val = z_values[z]
        frac = min(val, 1.0 - val)
        if frac > best_frac + 1e-12:
            best_var, best_frac = z, frac
    lo = dict(node_fixed)
    lo[best_var] = 0.0
    hi = dict(node_fixed)
    hi[best_var] = 1.0
    return best_var, (lo, hi)


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


def solve_misocp(ir, cfg=None, settings=None):
    """Branch-and-bound MISOCP solve; delegates to the SOCP engine when the
    program has no binaries.  Returns the MipSolution."""
    (result,) = _drive([_branch_and_bound(ir, cfg, settings)])
    return result


def _window_width(ir):
    """Programs shaped like ``ir`` that ``solve_misocp_many`` solves in one window.

    The root of a search solves ``ir``'s standard form with every binary
    relaxed by its bound rows; presolve only shrinks that program, so one
    solver batch holds at least ``_solver._batch_size`` of them.  A window
    of programs without binaries is one batch wide.  With binaries it is two:
    only the searches still open join the waves after the first, and twice
    as many searches keep those waves' batches fuller.
    """
    (p, n), q = ir.standard_form.A.shape, len(ir.standard_form.h)
    return _solver._batch_size(n, p, q) * (2 if ir.binaries else 1)


def solve_misocp_many(programs, cfg=None, settings=None):
    """Solve each program as ``solve_misocp`` would, their SOCPs in lockstep waves.

    Draws the programs one window at a time, ``_window_width`` of the
    window's first, so only a window's programs and searches are held at
    once.  Yields (program, its MipSolution) for each program, in order.  A
    program with binaries but no cardinality record for them raises
    ValidationError when its window is solved.
    """
    programs = iter(programs)
    for first in programs:
        window = [first, *itertools.islice(programs, _window_width(first) - 1)]
        searches = [_branch_and_bound(program, cfg, settings) for program in window]
        yield from zip(window, _drive(searches))


def _drive(searches):
    """Run ``_branch_and_bound`` generators to their ends, their SOCPs in lockstep waves.

    Each unfinished search puts the SOCP it waits on into a wave, which
    ``solver.solve_socp_many`` solves in batches; then each runs on to its
    next SOCP or its end.  Returns the MipSolution of each search, in order.
    """
    results = [None] * len(searches)
    waiting = []  # (search index, its generator, the SOCP request it waits on)

    def run(i, bnb, sol=None):
        """Hand ``sol`` to search i and run it to its next request or its end."""
        try:
            request = bnb.send(sol)
        except StopIteration as done:
            results[i] = done.value
        else:
            waiting.append((i, bnb, request))

    for i, bnb in enumerate(searches):
        run(i, bnb)
    while waiting:
        wave, waiting = waiting, []
        solved = _solver.solve_socp_many([request for _, _, request in wave])
        for (i, bnb, _), sol in zip(wave, solved):
            run(i, bnb, sol)
    return results


def _branch_and_bound(ir, cfg=None, settings=None):
    """The body of ``solve_misocp``, as a generator of the SOCPs it needs solved.

    Yields each continuous program to solve as a ``solver.solve_socp``
    argument tuple (ir, fixings, settings) and takes the ConicSolution back
    by ``send``.  Returns the MipSolution.  When a continuous solve, a node
    relaxation and its retry, or the verification solve ends neither
    optimal nor infeasible, the search ends ``error``, with the failure's
    message and the nodes it solved before.  Raises ValidationError for
    binaries that no cardinality record covers.
    """
    cfg = cfg or BnBConfig()
    nodes = []

    def failed(message, nodes_explored):
        return MipSolution("error", None, None, None, None, None, nodes_explored, {}, nodes, message)

    if not ir.binaries:
        # one node, logged as the root of a search would be
        sol = yield ir, {}, settings
        if sol.status == _solver.OPTIMAL:
            bound = _solver.dual_objective(sol)
            return MipSolution(
                status="optimal",
                incumbent=sol,
                objective=sol.objective,
                bound=bound,
                gap_abs=0.0,
                gap_rel=0.0,
                nodes_explored=1,
                fixings={},
                nodes=[(1, bound, np.inf, 0, {})],
            )
        if sol.status == _solver.INFEASIBLE:
            return MipSolution("infeasible", None, None, None, None, None, 1, {}, nodes)
        return failed(f"continuous solve failed with status {sol.status}", 1)
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

        sol = yield ir, fixed, settings
        if sol.status == _solver.NUMERICAL_FAILURE:
            retry = replace(
                settings or _solver.SolverSettings(), refine=4, ruiz_iter=8, reg=1e-9
            )
            sol = yield ir, fixed, retry
        if sol.status == _solver.INFEASIBLE:
            continue
        if sol.status != _solver.OPTIMAL:
            return failed(f"node relaxation failed with status {sol.status}", nodes_explored)
        bound = max(bound, _solver.dual_objective(sol))
        nodes.append((nodes_explored, bound, incumbent_obj, len(heap), fixed))
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
        _, children = branch(fixed, z_values, ir.binaries)
        for child_fixed in children:
            heapq.heappush(heap, (bound, counter, child_fixed))
            counter += 1
    else:
        open_bound = incumbent_obj
    global_bound = min(pruned_bound, open_bound)

    if incumbent_fix is None:
        if status == "node_limit":
            return MipSolution("node_limit", None, None, global_bound, None, None, nodes_explored, {}, nodes)
        return MipSolution("infeasible", None, None, None, None, None, nodes_explored, {}, nodes)
    if status is None:
        tol0 = 1e-9 * max(1.0, abs(incumbent_obj))
        status = "optimal" if incumbent_obj - global_bound <= tol0 else "gap_reached"

    # Final verification solve with binaries hard-fixed (checks big-M semantics).
    final = yield ir, incumbent_fix, settings
    if final.status != _solver.OPTIMAL:
        return failed(f"incumbent re-verification failed with status {final.status}", nodes_explored)
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
        nodes=nodes,
    )
