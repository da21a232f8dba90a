"""Interior-point engine checks: cone algebra, certified solves, statuses.

The engine is validated three ways: algebraic identities of the NT scaling
and Jordan operations on random interior points, external behavior on tiny
closed-form instances, and agreement with the dense grid-search oracle on
the 5-bus fixture.  The direct LAPACK KKT path is checked bit for bit
against scipy's lu_factor/lu_solve wrappers, and batched solves against
one-at-a-time solves.
"""

import itertools
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings as hsettings, strategies as st

from mopsched import oracle as O
from mopsched import solver as S
from mopsched.errors import ValidationError
from mopsched.program import AffExpr, Cone, ConicProgramIR, ConverterSpec, Row

from conftest import BG5, PCC5, assert_same_solution, instance5, instance33


def make_min_norm_ir():
    """min t s.t. t >= ||(3, 4)||."""
    return ConicProgramIR(
        variables=("t",),
        equalities=(),
        inequalities=(),
        soc_cones=(Cone(head="t", tail=(AffExpr({}, 3.0), AffExpr({}, 4.0))),),
        binaries=(),
        objective=AffExpr({"t": 1.0}),
    ).validate()


interior_soc = st.builds(
    lambda tail, margin: np.concatenate([[np.linalg.norm(tail) + margin], tail]),
    st.lists(st.floats(-5, 5), min_size=2, max_size=4).map(np.array),
    st.floats(0.05, 5.0),
)


class TestConeAlgebra:
    @given(s_tail=interior_soc, z_tail=interior_soc)
    @hsettings(max_examples=50, deadline=None)
    def test_nt_scaling_identities(self, s_tail, z_tail):
        n = min(len(s_tail), len(z_tail))
        s, z = s_tail[:n], z_tail[:n]
        cones = S._Cones((0, [n]))
        (W,), (lam,) = S._nt_scaling(s[None], z[None], cones, np.zeros((1, n, n)))
        assert np.allclose(W, W.T, atol=1e-10)
        assert np.allclose(W @ z, lam, atol=1e-8 * max(1, np.abs(lam).max()))
        assert np.allclose(
            np.linalg.solve(W, s), lam, atol=1e-8 * max(1, np.abs(lam).max())
        )

    @given(s_tail=interior_soc, d=st.lists(st.floats(-3, 3), min_size=5, max_size=5))
    @hsettings(max_examples=50, deadline=None)
    def test_jordan_div_inverts_prod(self, s_tail, d):
        lam = s_tail[:3]
        dv = np.array(d[:3])
        cones = S._Cones((0, [3]))
        u = S._jordan_div(lam[None], dv[None], cones)
        assert np.allclose(S._jordan_prod(lam[None], u, cones)[0], dv, atol=1e-8)

    def test_orthant_ops(self):
        cones = S._Cones((3, []))
        s = np.array([1.0, 2.0, 4.0])
        z = np.array([4.0, 2.0, 1.0])
        (W,), (lam,) = S._nt_scaling(s[None], z[None], cones, np.zeros((1, 3, 3)))
        assert np.allclose(np.diag(W), np.sqrt(s / z))
        assert np.allclose(lam, np.sqrt(s * z))
        (step,) = S._max_step(s[None], np.array([[-1.0, -4.0, 1.0]]), cones)
        assert step == pytest.approx(0.5)

    def test_max_step_hits_soc_boundary(self):
        rng = np.random.default_rng(0)
        cones = S._Cones((0, [4]))
        for _ in range(50):
            tail = rng.standard_normal(3)
            u = np.concatenate([[np.linalg.norm(tail) + rng.uniform(0.1, 2)], tail])
            du = rng.standard_normal(4)
            (alpha,) = S._max_step(u[None], du[None], cones)
            if np.isfinite(alpha):
                v = u + alpha * du
                res = v[0] ** 2 - v[1:] @ v[1:]
                assert abs(res) < 1e-7 * max(1.0, v[0] ** 2)
            else:
                v = u + 1e3 * du
                assert v[0] >= 0 and v[0] ** 2 - v[1:] @ v[1:] >= -1e-9


class TestTrivialInstances:
    def test_min_euclidean_norm(self):
        sol = S.solve_socp(make_min_norm_ir())
        assert sol.status == S.OPTIMAL
        assert sol.objective == pytest.approx(5.0, abs=1e-7)

    def test_shrinkage_zero_transfer_optimum(self, grid5, conv5):
        """No demand, no DER, loose limits: transferring anything only adds
        converter losses, so the optimum is exactly no transfer."""
        ir = instance5(grid5, bg=None)
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL
        assert sol.objective == pytest.approx(ir.loss_model["sigma"], abs=1e-8)
        for i in (1, 2):
            assert abs(sol.primal[f"P_c[{i}]"]) < 1e-7
            assert abs(sol.primal[f"Q_c[{i}]"]) < 1e-7

    def test_infeasible_certificate(self):
        ir = ConicProgramIR(
            variables=("x", "t"),
            equalities=(),
            inequalities=(Row({"x": 1.0}, -1.0), Row({"x": -1.0}, 0.0)),
            soc_cones=(Cone(head="t", tail=(AffExpr({"x": 1.0}),)),),
            binaries=(),
            objective=AffExpr({"t": 1.0}),
        ).validate()
        sol = S.solve_socp(ir)
        assert sol.status == S.INFEASIBLE
        assert sol.info["certificate_residual"] < 1e-8

    def test_unbounded_detected(self):
        ir = ConicProgramIR(
            variables=("x", "t"),
            equalities=(),
            inequalities=(Row({"x": 1.0}, 1.0),),
            soc_cones=(Cone(head="t", tail=(AffExpr({}, 1.0),)),),
            binaries=(),
            objective=AffExpr({"x": 1.0, "t": 1.0}),
        ).validate()
        sol = S.solve_socp(ir)
        assert sol.status == S.UNBOUNDED


class TestAgainstGridSearch:
    def test_5bus_matches_dense_scan(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        gs = O.grid_search_continuous(ir, resolution=1e-3)
        assert sol.status == S.OPTIMAL and gs.status == "optimal"
        assert abs(sol.objective - gs.objective) < 1e-4

    def test_5bus_with_der_matches_dense_scan(self, grid5):
        ir = instance5(grid5, p_der=0.12)
        sol = S.solve_socp(ir)
        gs = O.grid_search_continuous(ir, resolution=1e-3)
        assert abs(sol.objective - gs.objective) < 1e-4


class TestCertifiedQuality:
    @pytest.mark.parametrize(
        "p_der, cardinality, fixings",
        [
            (0.0, "unconstrained", None),
            # presolve eliminates the der_pin row
            (0.12, "unconstrained", None),
            (0.0, 1, {"z[1]": 0.0, "z[2]": 1.0}),
            (0.12, 1, {"z[1]": 1.0, "z[2]": 0.0}),
        ],
        ids=["plain", "der_pin", "n1_leg2", "n1_der_leg1"],
    )
    def test_residuals_and_gap_at_optimal(self, grid5, p_der, cardinality, fixings):
        """The presolved program's residuals, the dual one its stationarity,
        and the full program's primal feasibility."""
        ir = instance5(grid5, cardinality=cardinality, p_der=p_der)
        sol = S.solve_socp(ir, fixings)
        assert sol.status == S.OPTIMAL
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.relgap <= 1e-8
        assert S.full_violation(ir, sol) <= 1e-8

    def test_weak_duality_at_optimum(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        assert sol.objective >= S.dual_objective(sol) - 1e-8

    def test_determinism_bitwise(self, grid5):
        ir = instance5(grid5)
        a = S.solve_socp(ir)
        b = S.solve_socp(ir)
        assert a.status == b.status and a.iterations == b.iterations
        for v in ir.variables:
            assert a.primal[v] == b.primal[v]

    def test_argmin_invariant_to_objective_scaling(self, grid5):
        ir = instance5(grid5)
        scaled = ConicProgramIR(
            variables=ir.variables,
            equalities=ir.equalities,
            inequalities=ir.inequalities,
            soc_cones=ir.soc_cones,
            binaries=ir.binaries,
            objective=AffExpr(
                {v: 5.0 * c for v, c in ir.objective.coeffs.items()},
                5.0 * ir.objective.const,
            ),
            big_m=ir.big_m,
            loss_model=ir.loss_model,
        )
        tight = S.SolverSettings(abstol=1e-13, reltol=1e-13, feastol=1e-10)
        a = S.solve_socp(ir, settings=tight)
        b = S.solve_socp(scaled, settings=tight)
        assert b.objective == pytest.approx(5.0 * a.objective, rel=1e-7)
        for v in ("P_c[1]", "P_c[2]", "Q_c[1]", "Q_c[2]"):
            assert abs(a.primal[v] - b.primal[v]) < 1e-6


def relaxation(ir, fixed):
    """The node program spelled out: fixed binaries substituted, the rest in [0, 1]."""
    ineqs = []
    for row in ir.inequalities:
        coeffs = dict(row.coeffs)
        rhs = row.rhs
        for z, val in fixed.items():
            if z in coeffs:
                rhs -= coeffs.pop(z) * val
        ineqs.append(Row(coeffs, rhs, tag=row.tag))
    for z in ir.binaries:
        if z not in fixed:
            ineqs += [Row({z: 1.0}, 1.0), Row({z: -1.0}, 0.0)]
    return replace(
        ir,
        variables=tuple(v for v in ir.variables if v not in fixed),
        inequalities=tuple(ineqs),
        binaries=(),
    )


class TestFixings:
    @staticmethod
    def partial_fixings(ir):
        z = ir.binaries
        yield None
        yield {}
        yield {z[0]: 0.0}
        yield {z[-1]: 1.0}
        if len(z) > 2:
            yield {z[1]: 1.0, z[2]: 0.0}
            yield {z[0]: 0.0, z[3]: 0.0}

    def test_partial_fixings_relax_the_rest(self, grid5, grid33, conv33, bg33):
        """An unfixed binary is relaxed to [0, 1], bit for bit as in the spelled-out program."""
        programs = [instance33(grid33, conv33, bg33, cardinality=n) for n in (1, 2, 3)]
        programs.append(instance5(grid5, cardinality=1, p_der=0.12))
        for ir in programs:
            for fixed in self.partial_fixings(ir):
                got = S.solve_socp(ir, fixed)
                want = S.solve_socp(relaxation(ir, fixed or {}))
                assert got.status == want.status == S.OPTIMAL
                assert got.iterations == want.iterations
                assert got.objective == want.objective
                assert got.info["dcost"] == want.info["dcost"]
                assert got.primal == dict(want.primal, **(fixed or {}))

    def test_fixings_must_be_binary_valued(self, grid5):
        ir = instance5(grid5, cardinality=1)
        with pytest.raises(ValidationError, match="not in"):
            S.solve_socp(ir, {"z[1]": 0.5, "z[2]": 0.0})

    def test_zero_fixing_forces_exact_zeros(self, grid5):
        ir = instance5(grid5, cardinality=1)
        sol = S.solve_socp(ir, {"z[1]": 0.0, "z[2]": 1.0})
        assert sol.status == S.OPTIMAL
        assert sol.primal["S_c[1]"] == 0.0
        assert sol.primal["P_c[1]"] == 0.0
        assert sol.primal["Q_c[1]"] == 0.0

    def test_extra_fixing_rejected(self, grid5):
        ir = instance5(grid5)
        with pytest.raises(ValidationError, match="fixings"):
            S.solve_socp(ir, {"z[1]": 1.0})


class TestPresolve:
    def test_collapsed_cone_tail_with_two_free_variables_is_rejected(self):
        """t <= 0 collapses t >= ||x + y + u - 1.25||, with u = 0.25 fixed in the
        same round: the tail x + y - 1 keeps two free variables, a case no
        model program has, so the request is malformed."""
        ir = ConicProgramIR(
            variables=("t", "x", "y", "u", "w"),
            equalities=(Row({"u": 1.0}, 0.25),),
            inequalities=(Row({"t": 1.0}, 0.0),),
            soc_cones=(
                Cone(head="t", tail=(AffExpr({"x": 1.0, "y": 1.0, "u": 1.0}, -1.25),)),
                Cone(head="w", tail=(AffExpr({"x": 1.0}, -2.0), AffExpr({"y": 1.0}))),
            ),
            binaries=(),
            objective=AffExpr({"w": 1.0}),
        ).validate()
        with pytest.raises(ValidationError, match="cone on t zeroes a tail of 2 free variables"):
            S.solve_socp(ir)


def small_ir(variables, equalities=(), inequalities=(), cones=(), objective=None):
    return ConicProgramIR(
        variables=variables,
        equalities=equalities,
        inequalities=inequalities,
        soc_cones=cones,
        binaries=(),
        objective=objective,
    ).validate()


def t_over(*tail):
    """The cone t >= ||tail||."""
    return (Cone(head="t", tail=tail),)


# rule -> (program, status, presolve message): one hand-built program per
# presolve rule that ends the solve before the interior-point method
PRESOLVE_RULES = {
    "fixed_twice_to_different_values": (
        small_ir(("x", "t"), (Row({"x": 1.0}, 1.0), Row({"x": 2.0}, 4.0)),
                 cones=t_over(AffExpr({"x": 1.0})), objective=AffExpr({"t": 1.0})),
        S.INFEASIBLE, "variable x forced to both 1.0 and 2.0",
    ),
    "degenerate_equality": (
        small_ir(("x", "t"), (Row({"x": 1e-13}, 1.0),),
                 cones=t_over(AffExpr({"x": 1.0})), objective=AffExpr({"t": 1.0})),
        S.INFEASIBLE, "degenerate equality row 0",
    ),
    "inequality_left_with_a_negative_rhs": (
        small_ir(("x", "t"), (Row({"x": 1.0}, 1.0),), (Row({"x": 1.0}, 0.5),),
                 t_over(AffExpr({"x": 1.0})), AffExpr({"t": 1.0})),
        S.INFEASIBLE, "inequality row 0 reduces to 0 <= -5.000e-01",
    ),
    "collapsed_cone_with_a_nonzero_constant": (
        small_ir(("t", "x"), inequalities=(Row({"t": 1.0}, 0.0),),
                 cones=t_over(AffExpr({"x": 1.0}), AffExpr({}, 2.0)), objective=AffExpr({"x": 1.0})),
        S.INFEASIBLE, "cone on t forces 2.000e+00 = 0",
    ),
}


class TestPresolveRules:
    @pytest.mark.parametrize("rule", sorted(PRESOLVE_RULES))
    def test_status_and_message(self, rule):
        ir, status, message = PRESOLVE_RULES[rule]
        sol = S.solve_socp(ir)
        assert (sol.status, sol.info["presolve"], sol.iterations) == (status, message, 0)

    def test_equal_fixings_agree(self):
        """x = 1 and 2x = 2 fix x twice to the same value."""
        ir = small_ir(("x", "t"), (Row({"x": 1.0}, 1.0), Row({"x": 2.0}, 2.0)),
                      cones=t_over(AffExpr({"x": 1.0})), objective=AffExpr({"t": 1.0}))
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL and sol.primal["x"] == 1.0
        assert sol.objective == pytest.approx(1.0, abs=1e-8)

    def test_a_fixed_head_stays_in_h(self):
        """t = 2 fixes the head of t >= |x|, whose tail stays free: the head
        row keeps the value 2 in h, and min x is -2."""
        ir = small_ir(("t", "x"), (Row({"t": 1.0}, 2.0),),
                      cones=t_over(AffExpr({"x": 1.0})), objective=AffExpr({"x": 1.0}))
        c, A, b, G, h = S._Presolved(ir, {}).assemble()
        assert (c.tolist(), A.shape, G.tolist(), h.tolist()) == ([1.0], (0, 1), [[0.0], [-1.0]], [2.0, 0.0])
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL and sol.primal["t"] == 2.0
        assert sol.objective == pytest.approx(-2.0, abs=1e-8)

    def test_post_unscale_failure(self):
        """An iterate that meets loose interior-point tolerances fails the
        check on the unscaled data at a tight final_tol."""
        st = S.SolverSettings(feastol=1e-3, abstol=1e-3, reltol=1e-3, final_tol=1e-14)
        sol = S.solve_socp(make_min_norm_ir(), settings=st)
        assert sol.status == S.NUMERICAL_FAILURE
        assert sol.info["note"] == "post-unscale check"
        assert sol.info["pres"] > st.final_tol


def leg(*legs):
    """The variables of each given leg that fixing its binary off fixes."""
    return {f"{v}[{i}]" for i in legs for v in ("P_c", "Q_c", "S_c", "P_dc", "P_loss_conv")}


# What presolve leaves of a model program per fixing pattern, character i
# the fixing of the (i+1)-th binary and "-" leaving it relaxed: (free
# columns, equality rows, linear rows, cone sizes, the variables other than
# the binaries that presolve fixes), or the message of an infeasible pattern.
IEEE33_N2_PRESOLVED = {
    "----": (26, 10, 78, [3, 3, 3, 3, 10], set()),
    "0---": (20, 8, 75, [3, 3, 3, 10], leg(1)),
    "-0--": (20, 8, 75, [3, 3, 3, 10], leg(2)),
    "--0-": (20, 8, 75, [3, 3, 3, 10], leg(3)),
    "---0": (20, 8, 75, [3, 3, 3, 10], leg(4)),
    "1---": (25, 10, 76, [3, 3, 3, 3, 10], set()),
    "-1--": (25, 10, 76, [3, 3, 3, 3, 10], set()),
    "--1-": (25, 10, 76, [3, 3, 3, 3, 10], set()),
    "---1": (25, 10, 76, [3, 3, 3, 3, 10], set()),
    "0000": (2, 1, 0, [10], leg(1, 2, 3, 4)),
    "0001": (6, 3, 66, [3, 10], leg(1, 2, 3) | {"P_dc[4]"}),
    "0010": (6, 3, 66, [3, 10], leg(1, 2, 4) | {"P_dc[3]"}),
    "0100": (6, 3, 66, [3, 10], leg(1, 3, 4) | {"P_dc[2]"}),
    "1000": (6, 3, 66, [3, 10], leg(2, 3, 4) | {"P_dc[1]"}),
    "0011": (12, 6, 67, [3, 3, 10], leg(1, 2)),
    "0101": (12, 6, 67, [3, 3, 10], leg(1, 3)),
    "0110": (12, 6, 67, [3, 3, 10], leg(1, 4)),
    "1001": (12, 6, 67, [3, 3, 10], leg(2, 3)),
    "1010": (12, 6, 67, [3, 3, 10], leg(2, 4)),
    "1100": (12, 6, 67, [3, 3, 10], leg(3, 4)),
    # more legs on than the budget of 2 empties the cardinality row
    "0111": "inequality row 69 reduces to 0 <= -1.000e+00",
    "1011": "inequality row 69 reduces to 0 <= -1.000e+00",
    "1101": "inequality row 69 reduces to 0 <= -1.000e+00",
    "1110": "inequality row 69 reduces to 0 <= -1.000e+00",
    "1111": "inequality row 69 reduces to 0 <= -2.000e+00",
}

# the dc-link DER's pin fixes P_dc[3] in every pattern, and with one leg off
# the dc balance fixes the other leg's P_dc
FIVE_BUS_DER_N1_PRESOLVED = {
    "--": (14, 6, 16, [3, 3, 6], {"P_dc[3]"}),
    "0-": (7, 3, 9, [3, 6], leg(1) | {"P_dc[2]", "P_dc[3]"}),
    "-0": (7, 3, 9, [3, 6], leg(2) | {"P_dc[1]", "P_dc[3]"}),
    "1-": (13, 6, 14, [3, 3, 6], {"P_dc[3]"}),
    "-1": (13, 6, 14, [3, 3, 6], {"P_dc[3]"}),
    "00": "equality row 0 reduces to 0 = -1.200e-01",
    "01": (6, 3, 6, [3, 6], leg(1) | {"P_dc[2]", "P_dc[3]"}),
    "10": (6, 3, 6, [3, 6], leg(2) | {"P_dc[1]", "P_dc[3]"}),
    "11": "inequality row 11 reduces to 0 <= -1.000e+00",
}


class TestPresolvedModelPrograms:
    """What presolve leaves of the model programs for each fixing pattern that
    branch-and-bound and the oracle ask for: none, each binary fixed off,
    each fixed on, and every fixing of all binaries."""

    @staticmethod
    def check(ir, table):
        m = len(ir.binaries)
        asked = {"-" * m} | {"-" * i + c + "-" * (m - 1 - i) for i in range(m) for c in "01"}
        asked |= {"".join(bits) for bits in itertools.product("01", repeat=m)}
        assert set(table) == asked
        for pattern, want in table.items():
            fixings = {z: float(c) for z, c in zip(ir.binaries, pattern) if c != "-"}
            if isinstance(want, str):
                sol = S.solve_socp(ir, fixings)
                assert (sol.status, sol.info["presolve"]) == (S.INFEASIBLE, want), pattern
                continue
            pre = S._Presolved(ir, fixings)
            fixed = {ir.variables[j] for j in pre.fixed} - set(fixings)
            assert (len(pre.free), len(pre.eq), pre.dims[0], pre.dims[1], fixed) == want, pattern

    def test_ieee33_n2(self, grid33, conv33, bg33):
        self.check(instance33(grid33, conv33, bg33, cardinality=2), IEEE33_N2_PRESOLVED)

    def test_5bus_der_n1(self, grid5):
        self.check(instance5(grid5, cardinality=1, p_der=0.12), FIVE_BUS_DER_N1_PRESOLVED)


class TestRelaxationTightness:
    def test_tight_at_optimum(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        assert S.check_relaxation_tightness(ir, sol) <= 3e-5

    def test_inflated_epigraph_reports_definition(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        quad = sol.primal["P_loss_ntwk"] - S.check_relaxation_tightness(ir, sol) * 1.0
        sol.primal["P_loss_ntwk"] += 0.1
        gap = S.check_relaxation_tightness(ir, sol)
        assert gap == pytest.approx(0.1 / max(1.0, quad), rel=1e-3)

    def test_exact_zero_solution_has_zero_gap(self, grid5):
        ir = instance5(grid5, bg=None)
        primal = {v: 0.0 for v in ir.variables}
        primal["P_loss_ntwk"] = ir.loss_model["sigma"]
        sol = S.ConicSolution(status=S.OPTIMAL, primal=primal)
        assert S.check_relaxation_tightness(ir, sol) == 0.0


class TestNoConicPart:
    def test_rejected(self):
        """Rejected before any batch: x = 1, which presolve leaves without a
        free column, and x + y = 1, which keeps two free variables and no cone."""
        ir = ConicProgramIR(
            variables=("x",),
            equalities=(Row({"x": 1.0}, 1.0),),
            inequalities=(),
            soc_cones=(),
            binaries=(),
            objective=AffExpr({"x": 1.0}),
        ).validate()
        two = replace(ir, variables=("x", "y"), equalities=(Row({"x": 1.0, "y": 1.0}, 1.0),))
        for program in (ir, two.validate()):
            with pytest.raises(ValidationError, match="no conic part"):
                S.solve_socp(program)


def wrapper_kkt_solve(A, G, W2, reg, rhs, refine):
    """The regularized KKT solve through scipy's lu_factor/lu_solve wrappers."""
    n = A.shape[1]
    p, q = A.shape[0], G.shape[0]
    dim = n + p + q
    K = np.zeros((dim, dim))
    K[:n, n : n + p] = A.T
    K[n : n + p, :n] = A
    K[:n, n + p :] = G.T
    K[n + p :, :n] = G
    K[n + p :, n + p :] = -W2
    Kreg = K.copy()
    Kreg[np.arange(n), np.arange(n)] += reg
    Kreg[np.arange(n, dim), np.arange(n, dim)] -= reg
    lu = scipy.linalg.lu_factor(Kreg)
    x = scipy.linalg.lu_solve(lu, rhs)
    for _ in range(refine):
        x += scipy.linalg.lu_solve(lu, rhs - K @ x)
    return x


def random_kkt_data(rng, n, p, q, count):
    """A, G and ``count`` symmetric positive definite scalings W."""
    A = rng.standard_normal((p, n))
    G = rng.standard_normal((q, n))
    Ws = []
    for _ in range(count):
        B = rng.standard_normal((q, q))
        Ws.append(B @ B.T + q * np.eye(q))
    return A, G, Ws


class TestKktLapack:
    """getrf/getrs called directly give the scipy wrappers' bits and keep
    their handling of LAPACK's info; finiteness is checked where the
    program's standard form compiles (test_program.py)."""

    def assert_bitwise_equal_to_wrappers(self, A, G, Ws, rhss, reg=1e-11):
        # one KKT matrix serves every scaling in turn, as in a solve
        K = S._kkt_matrix(A[None], G[None])
        lu_ws = np.empty_like(K)
        for W in Ws:
            lu = S._kkt_factor(K, W[None], reg, A.shape[1], lu_ws)
            for rhs in rhss:
                for refine in (0, 2):
                    (got,) = S._kkt_solve(lu, K, rhs[None], refine)
                    want = wrapper_kkt_solve(A, G, W @ W, reg, rhs, refine)
                    assert np.array_equal(got, want)

    def test_ieee33_n2_root(self, grid33, conv33, bg33, monkeypatch):
        ir = instance33(grid33, conv33, bg33, cardinality=2)
        seen = {"W": []}
        kkt_matrix, kkt_factor = S._kkt_matrix, S._kkt_factor

        def recording_matrix(A, G):
            seen.update(A=A[0].copy(), G=G[0].copy())
            return kkt_matrix(A, G)

        def recording_factor(K, W, reg, n, lu_ws):
            seen["W"].append(W[0].copy())
            return kkt_factor(K, W, reg, n, lu_ws)

        monkeypatch.setattr(S, "_kkt_matrix", recording_matrix)
        monkeypatch.setattr(S, "_kkt_factor", recording_factor)
        assert S.solve_socp(ir, {}).status == S.OPTIMAL
        monkeypatch.undo()
        A, G = seen["A"], seen["G"]
        assert A.shape[1] + A.shape[0] + G.shape[0] == 136
        assert len(seen["W"]) > 5
        rng = np.random.default_rng(3)
        rhss = [rng.standard_normal(136) for _ in range(2)]
        self.assert_bitwise_equal_to_wrappers(A, G, seen["W"], rhss)

    @pytest.mark.parametrize("n, p, q", [(6, 0, 9), (7, 3, 12), (26, 10, 100)])
    def test_random_well_conditioned(self, n, p, q):
        rng = np.random.default_rng(n + p + q)
        A, G, Ws = random_kkt_data(rng, n, p, q, 3)
        rhss = [rng.standard_normal(n + p + q) for _ in range(3)]
        self.assert_bitwise_equal_to_wrappers(A, G, Ws, rhss)

    def test_singular_matrix_warns(self):
        # x[1] appears in no row and reg = 0: its KKT row and column are zero
        A = np.zeros((0, 2))
        G = np.array([[1.0, 0.0], [2.0, 0.0]])
        K = S._kkt_matrix(A[None], G[None])
        with pytest.warns(scipy.linalg.LinAlgWarning, match="exactly zero"):
            S._kkt_factor(K, np.eye(2)[None], 0.0, 2, np.empty_like(K))


def assert_same_raw(got, want):
    """Two raw interior-point results with the same keys and bits."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert got[key] == value, key


def ruiz_one(req):
    """The equilibrated (c, A, b, G, h) of one request and its (rA, rG, d),
    by the per-instance equilibration that the batched one replaced."""
    c, A, b, G, h = req.arrays
    p, q = A.shape[0], G.shape[0]
    n = G.shape[1]
    M = np.vstack([A, G]) if p else G.copy()
    l, qs = req.dims
    offsets = np.cumsum([0] + list(qs[:-1]))
    r = np.ones(p + q)
    d = np.ones(n)
    for _ in range(req.st.ruiz_iter):
        Ms = np.abs(r[:, None] * M * d[None, :])
        rn = Ms.max(axis=1)
        rn[rn == 0] = 1.0
        if len(qs):
            rn[p + l :] = np.repeat(np.maximum.reduceat(rn[p + l :], offsets), qs)
        cn = Ms.max(axis=0)
        cn[cn == 0] = 1.0
        r /= np.sqrt(rn)
        d /= np.sqrt(cn)
    rA, rG = r[:p], r[p:]
    As = rA[:, None] * A * d[None, :] if len(b) else A
    return (d * c, As, rA * b, rG[:, None] * G * d[None, :], rG * h), (rA, rG, d)


class TestBatchedEquilibration:
    """A batch's stacks are equilibrated together, each instance to the bits
    of its own equilibration."""

    @staticmethod
    def assert_as_one_at_a_time(reqs):
        stacks, scales = S._scaled_batch(reqs)
        for i, req in enumerate(reqs):
            want_stacks, want_scales = ruiz_one(req)
            for got, want in zip([a[i] for a in stacks] + list(scales[i]), want_stacks + want_scales):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return stacks

    @staticmethod
    def prepared(irs, st=S.SolverSettings()):
        reqs = [S._prepare(ir, {}, st) for ir in irs]
        assert len({req.key for req in reqs}) == 1
        return reqs

    def test_5bus(self, grid5):
        irs = [
            instance5(grid5, conv5(k, 0.12), cardinality=1, p_der=0.12, bg={b: f * s for b, s in BG5.items()})
            for k, f in ((0.01, 1.0), (0.02, 0.7), (0.05, 1.3), (0.003, 0.4))
        ]
        G = self.assert_as_one_at_a_time(self.prepared(irs))[3]
        assert not np.array_equal(G[0], G[1])

    def test_ieee33(self, grid33, conv33, bg33):
        irs = [
            instance33(grid33, replace(conv33, k=k), {bus: f * s for bus, s in bg33.items()}, cardinality=2)
            for k, f in ((0.01, 1.0), (0.03, 0.6), (0.002, 1.2))
        ]
        self.assert_as_one_at_a_time(self.prepared(irs))

    def test_no_iterations(self, grid5):
        reqs = self.prepared([instance5(grid5, conv5(k)) for k in (0.01, 0.04)], S.SolverSettings(ruiz_iter=0))
        stacks = self.assert_as_one_at_a_time(reqs)
        for got, want in zip(stacks, zip(*(req.arrays for req in reqs))):
            assert got.tobytes() == np.stack(want).tobytes()

    def test_no_equality_rows(self):
        """min t s.t. t >= ||(a x, y / a)||, x + y >= 1, x - y <= 1/2."""
        irs = [
            ConicProgramIR(
                variables=("t", "x", "y"),
                equalities=(),
                inequalities=(Row({"x": -1.0, "y": -1.0}, -1.0), Row({"x": a, "y": -a}, 0.5 * a)),
                soc_cones=(Cone(head="t", tail=(AffExpr({"x": a}), AffExpr({"y": 1.0 / a}))),),
                binaries=(),
                objective=AffExpr({"t": 1.0}),
            ).validate()
            for a in (1.0, 30.0, 0.02)
        ]
        _, A, b, _, _ = self.assert_as_one_at_a_time(self.prepared(irs))
        assert A.shape == (3, 0, 3) and b.shape == (3, 0)

    def test_random_programs(self):
        """Entries over six decades, a zero row and a zero column: scales and
        products whose rounding any other order of operations would move."""
        rng = np.random.default_rng(5)

        def request():
            def entries(*shape):
                return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)

            A, G = entries(2, 6), entries(10, 6)
            G[4] = 0.0
            A[:, 5] = G[:, 5] = 0.0
            arrays = rng.standard_normal(6), A, rng.standard_normal(2), G, rng.standard_normal(10)
            return SimpleNamespace(arrays=arrays, dims=(3, [3, 4]), st=S.SolverSettings())

        A = self.assert_as_one_at_a_time([request() for _ in range(5)])[1]
        assert not np.array_equal(A[0], A[1])


def conv5(k, p_der=0.0):
    """The 5-bus test converter with loss coefficient ``k``."""
    return ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=k, has_dc_der=p_der != 0.0)


def scaled(reqs):
    """The equilibrated stacks of a batch of requests."""
    return S._scaled_batch(reqs)[0]


class TestBatchWorkspace:
    """A batch allocates its KKT, LU and W stacks once, and iterates in them."""

    @staticmethod
    def middle_first(grid5):
        """Three scaled 5-bus programs of equal dimensions, the middle one
        finishing in fewer iterations than the other two."""
        reqs = [
            S._prepare(instance5(grid5, bg={b: f * s for b, s in BG5.items()}), {}, S.SolverSettings())
            for f in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
        ]
        lone = [S.solve_conelp(*(a[0] for a in scaled([req])), req.dims) for req in reqs]
        order = np.argsort([raw["iterations"] for raw in lone], kind="stable")
        first, later = order[0], order[-2:]
        assert lone[first]["iterations"] < min(lone[i]["iterations"] for i in later)
        picked = [later[0], first, later[1]]
        return [reqs[i] for i in picked], [lone[i] for i in picked]

    def test_rows_move_down_when_the_middle_finishes(self, grid5):
        reqs, lone = self.middle_first(grid5)
        stacks = scaled(reqs)
        raws = S._solve_conelp_batch(*stacks, reqs[0].dims, S.SolverSettings(), [None] * 3)
        for got, want in zip(raws, lone):
            assert got["status"] == S.OPTIMAL
            assert_same_raw(got, want)

    def test_every_iteration_writes_into_the_workspace(self, grid5, monkeypatch):
        reqs, _ = self.middle_first(grid5)
        calls = []
        kkt_factor = S._kkt_factor

        def recording(K, W, reg, n, lu_ws):
            lus = kkt_factor(K, W, reg, n, lu_ws)
            calls.append((K, W, lu_ws, lus))
            return lus

        monkeypatch.setattr(S, "_kkt_factor", recording)
        stacks = scaled(reqs)
        S._solve_conelp_batch(*stacks, reqs[0].dims, S.SolverSettings(), [None] * 3)
        K0, _, lu_ws, _ = calls[0]
        W_ws = calls[1][1]
        assert len(calls) > 10 and lu_ws.shape == K0.shape == (3,) + K0.shape[1:]
        for K, W, ws, lus in calls:
            assert ws is lu_ws and np.shares_memory(K, K0)
            # a copy made by the LAPACK wrapper would double the LU footprint
            assert all(np.shares_memory(lu, lu_ws) for lu, _ in lus)
        assert all(np.shares_memory(W, W_ws) for _, W, _, _ in calls[1:])
        # the first call's W is the identity, a broadcast view of no stack
        assert calls[0][1].strides[0] == 0


class TestSolvesShareNoState:
    def test_back_to_back_solves_match_single_solves(self, grid5, grid33, conv33, bg33):
        """A per-solve buffer shared by mistake shows as a changed bit."""
        programs = [
            instance5(grid5, p_der=0.12),
            instance33(grid33, conv33, bg33, cardinality=2),
        ]
        single = [S.solve_socp(ir) for ir in programs]
        forward = [S.solve_socp(ir) for ir in programs]
        backward = [S.solve_socp(ir) for ir in reversed(programs)][::-1]
        for ir, one, *again in zip(programs, single, forward, backward):
            assert one.status == S.OPTIMAL
            for sol in again:
                assert sol.iterations == one.iterations
                for v in ir.variables:
                    assert sol.primal[v] == one.primal[v]


class TestSolveSocpMany:
    """A batched solve gives every request the bits of its own ``solve_socp``."""

    @staticmethod
    def requests(grid5, grid33, conv33, bg33):
        n1 = instance5(grid5, cardinality=1)
        z1, z2 = n1.binaries
        der0 = instance5(grid5, cardinality=0, p_der=0.1)
        reqs = [(instance5(grid5, bg={b: 0.8 * s for b, s in BG5.items()}), {}, None)]
        # equal dimensions, each load scaled: one group
        reqs += [(instance5(grid5, bg={b: f * s for b, s in BG5.items()}), {}, None) for f in (0.4, 0.6, 1.0)]
        reqs += [
            (instance5(grid5), {}, S.SolverSettings(refine=4, ruiz_iter=8, reg=1e-9)),
            (n1, {}, None),
            (n1, {z1: 0.0}, None),
            (n1, {z1: 1.0, z2: 0.0}, None),
            (n1, {z1: 0.0, z2: 1.0}, None),
            (instance33(grid33, conv33, bg33, cardinality=2), {}, None),
            (instance33(grid33, conv33, bg33), {}, None),
            # infeasible in presolve and in the interior-point method
            (der0, {z: 0.0 for z in der0.binaries}, None),
            (instance33(grid33, conv33, bg33, v=(1.0, 1.005)), {}, None),
            (n1, {z1: 0.0, z2: 0.0}, None),
            # out of iterations: a numerical failure
            (instance5(grid5), {}, S.SolverSettings(max_iter=3)),
            (instance33(grid33, conv33, bg33), {}, S.SolverSettings(max_iter=4)),
        ]
        return reqs

    @pytest.mark.parametrize("budget", [S._BATCH_BYTES, 100_000, 1])
    def test_equals_one_at_a_time(self, grid5, grid33, conv33, bg33, monkeypatch, budget):
        reqs = self.requests(grid5, grid33, conv33, bg33)
        singles = [S.solve_socp(*req) for req in reqs]
        batches = []
        batch = S._solve_conelp_batch

        def recording(c, *args):
            batches.append(len(c))
            return batch(c, *args)

        monkeypatch.setattr(S, "_BATCH_BYTES", budget)
        monkeypatch.setattr(S, "_solve_conelp_batch", recording)
        many = S.solve_socp_many(reqs)
        statuses = set()
        for got, want in zip(many, singles):
            assert_same_solution(got, want)
            statuses.add((want.status, want.info.get("presolve")))
        assert {(S.INFEASIBLE, None), (S.NUMERICAL_FAILURE, None)} <= statuses
        assert any(s == S.INFEASIBLE and p for s, p in statuses)
        # the 5-bus group of four shares one batch, or the budget splits it
        # into batches of three (KKT 39, W 21: 8 (2 39^2 + 21^2) = 27,864
        # bytes an instance) or of one
        assert max(batches) == {S._BATCH_BYTES: 4, 100_000: 3, 1: 1}[budget]

    def test_a_malformed_request_raises_before_any_batch(self, grid5, monkeypatch):
        n1 = instance5(grid5, cardinality=1)
        batches = []
        monkeypatch.setattr(S, "_solve_conelp_batch", lambda *args: batches.append(args))
        # well-formed requests first: none of them reaches a batch either
        reqs = [(instance5(grid5), {}, None), (n1, {}, None), (n1, {"z[9]": 1.0}, None)]
        with pytest.raises(ValidationError, match=r"fixings \['z\[9\]'\] are not binaries"):
            S.solve_socp_many(reqs)
        assert batches == []

    def test_a_wide_group_shares_one_batch(self, grid5, monkeypatch):
        """Thirty load-scaled 5-bus programs (KKT 39) fill one batch of the
        byte budget, which holds 75 of them."""
        reqs = [
            (instance5(grid5, bg={b: f * s for b, s in BG5.items()}), {}, None)
            for f in np.linspace(0.2, 1.4, 30)
        ]
        singles = [S.solve_socp(*req) for req in reqs]
        batches = []
        batch = S._solve_conelp_batch

        def recording(c, *args):
            batches.append(len(c))
            return batch(c, *args)

        monkeypatch.setattr(S, "_solve_conelp_batch", recording)
        many = S.solve_socp_many(reqs)
        assert batches == [30] and max(batches) > 24
        for got, want in zip(many, singles):
            assert want.status == S.OPTIMAL
            assert_same_solution(got, want)


class TestFailurePaths:
    """The interior-point exits that no well-posed fixture reaches."""

    @staticmethod
    def requests5(grid5, factors):
        return [
            S._prepare(instance5(grid5, bg={b: f * s for b, s in BG5.items()}), {}, S.SolverSettings())
            for f in factors
        ]

    def test_a_stuck_step_fails_only_its_instance(self, grid5, monkeypatch):
        reqs = self.requests5(grid5, (0.6, 1.0, 1.4))
        lone = [S.solve_conelp(*(a[0] for a in scaled([req])), req.dims) for req in reqs]
        max_step = S._max_step
        calls = []

        def stalling(u, du, cones):
            alpha = max_step(u, du, cones)
            calls.append(len(u))
            if len(calls) == 6:  # the third iteration's corrector, all three live
                assert len(u) == 6
                alpha[1] = 0.0  # s of the middle instance
            return alpha

        monkeypatch.setattr(S, "_max_step", stalling)
        raws = S._solve_conelp_batch(*scaled(reqs), reqs[0].dims, S.SolverSettings(), [None] * 3)
        assert raws[1]["status"] == S.NUMERICAL_FAILURE
        assert raws[1]["iterations"] == 3 and "best_iterate" not in raws[1]
        for i in (0, 2):
            assert raws[i]["status"] == S.OPTIMAL
            assert_same_raw(raws[i], lone[i])

    def test_a_nan_iterate_fails_only_its_instance(self, grid5, monkeypatch):
        reqs = self.requests5(grid5, (0.6, 1.0, 1.4))
        lone = [S.solve_conelp(*(a[0] for a in scaled([req])), req.dims) for req in reqs]
        nt_scaling = S._nt_scaling
        calls = []

        def poisoning(s, z, cones, W):
            calls.append(len(s))
            if len(calls) == 3:  # the third iteration, all three live
                assert len(s) == 3
                s[1, 0] = np.nan  # s is a view of the middle instance's iterate
            return nt_scaling(s, z, cones, W)

        kkt_factor, getrs = S._kkt_factor, S._getrs
        seen = []

        def factor(K, W, *args):
            seen.append(np.isfinite(W).all())
            return kkt_factor(K, W, *args)

        def solve(lus, rhs):
            seen.append(np.isfinite(rhs).all())
            return getrs(lus, rhs)

        monkeypatch.setattr(S, "_nt_scaling", poisoning)
        monkeypatch.setattr(S, "_kkt_factor", factor)
        monkeypatch.setattr(S, "_getrs", solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raws = S._solve_conelp_batch(*scaled(reqs), reqs[0].dims, S.SolverSettings(), [None] * 3)
        # the lost row took its last step at W = I: no NaN reached LAPACK
        assert all(seen)
        assert raws[1]["status"] == S.NUMERICAL_FAILURE
        assert raws[1]["iterations"] == 3 and "best_iterate" not in raws[1]
        for i in (0, 2):
            assert raws[i]["status"] == S.OPTIMAL
            assert_same_raw(raws[i], lone[i])

    @pytest.mark.parametrize("max_iter", [20, 40])
    def test_unreachable_tolerances_end_with_a_status(self, grid5, max_iter):
        """At tolerances no iterate meets, the NT scaling leaves the cone
        interior by the 20th iteration (the last bits, and with them the
        iteration, depend on the BLAS thread count); the row then ends by the
        best-iterate rescue instead of a NaN reaching the factorization."""
        (req,) = self.requests5(grid5, (1.0,))
        program = [a[0] for a in scaled([req])]
        tight = dict(feastol=1e-15, abstol=1e-15, reltol=1e-15, max_iter=max_iter)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = S.solve_conelp(*program, req.dims, S.SolverSettings(**tight))
        assert raw["status"] == S.OPTIMAL and raw["best_iterate"] is True
        assert raw["iterations"] <= 20
        assert max(raw["pres"], raw["dres"], raw["relgap"]) <= S.SolverSettings().final_tol

    def test_best_iterate_rescues_unreachable_tolerances(self, grid5):
        (req,) = self.requests5(grid5, (1.0,))
        program = [a[0] for a in scaled([req])]
        tight = dict(feastol=1e-15, abstol=1e-15, reltol=1e-15, max_iter=12)
        raw = S.solve_conelp(*program, req.dims, S.SolverSettings(**tight, final_tol=1e-6))
        assert raw["status"] == S.OPTIMAL and raw["best_iterate"] is True
        assert raw["iterations"] == 12
        assert max(raw["pres"], raw["dres"], raw["relgap"]) <= 1e-6
        # without the coarser acceptance threshold the same run fails
        raw = S.solve_conelp(*program, req.dims, S.SolverSettings(**tight, final_tol=1e-14))
        assert raw["status"] == S.NUMERICAL_FAILURE and "best_iterate" not in raw
