"""Interior-point engine checks: cone algebra, certified solves, statuses.

The engine is validated three ways: algebraic identities of the NT scaling
and Jordan operations on random interior points, external behavior on tiny
closed-form instances, and agreement with the dense grid-search oracle on
the 5-bus fixture.  The direct LAPACK KKT path is checked bit for bit
against scipy's lu_factor/lu_solve wrappers, and batched solves against
one-at-a-time solves.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings as hsettings, strategies as st

from mopsched import oracle as O
from mopsched import solver as S
from mopsched.errors import MopschedError, ValidationError
from mopsched.program import AffExpr, Cone, ConicProgramIR, Row

from conftest import BG5, assert_same_solution, instance5, instance33


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


def stationarity_residual(ir, sol):
    """inf-norm of c + A^T y + G^T z over all IR variables."""
    duals = sol.duals
    worst = 0.0
    for v in ir.variables:
        g = ir.objective.coeffs.get(v, 0.0)
        for i, row in enumerate(ir.equalities):
            g += row.coeffs.get(v, 0.0) * duals["equalities"][i]
        for i, row in enumerate(ir.inequalities):
            g += row.coeffs.get(v, 0.0) * duals["inequalities"][i]
        for ci, cone in enumerate(ir.soc_cones):
            zc = duals["soc_cones"][ci]
            if v == cone.head:
                g -= zc[0]
            for j, expr in enumerate(cone.tail):
                g -= expr.coeffs.get(v, 0.0) * zc[1 + j]
        worst = max(worst, abs(g))
    return worst


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
    def test_residuals_and_gap_at_optimal(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL
        assert sol.primal_residual <= 1e-8
        assert sol.dual_residual <= 1e-8
        assert sol.relgap <= 1e-8
        assert sol.info["full_violation"] <= 1e-8

    def test_kkt_stationarity_with_reconstructed_duals(self, grid5):
        ir = instance5(grid5)
        sol = S.solve_socp(ir)
        assert stationarity_residual(ir, sol) <= 1e-8

    def test_kkt_stationarity_with_der_presolve(self, grid5):
        # der_pin is eliminated by presolve; its dual must be reconstructed
        ir = instance5(grid5, p_der=0.12)
        sol = S.solve_socp(ir)
        assert stationarity_residual(ir, sol) <= 1e-8

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
                # one inequality dual per row of the program passed in
                assert got.duals["equalities"] == want.duals["equalities"]
                assert got.duals["soc_cones"] == want.duals["soc_cones"]
                rows = len(ir.inequalities)
                assert got.duals["inequalities"] == want.duals["inequalities"][:rows]

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
    def test_collapsed_cone_tail_with_two_free_variables_becomes_an_equality(self):
        """t <= 0 collapses t >= ||x + y + u - 1.25||, with u = 0.25 fixed in the
        same round: presolve adds x + y = 1, and min ||(x - 2, y)|| over it is
        sqrt(1/2) at (1.5, -0.5)."""
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
        c, A, b, G, h = S._Presolved(ir, {}).arrays()
        # the free columns x, y and w; u = 0.25 is folded into the right-hand side
        assert A.tolist() == [[1.0, 1.0, 0.0]] and b.tolist() == [1.0]
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL
        assert sol.objective == pytest.approx(math.sqrt(0.5), abs=1e-7)
        assert sol.primal["t"] == 0.0 and sol.primal["u"] == 0.25
        assert sol.primal["x"] == pytest.approx(1.5, abs=1e-6)
        assert sol.primal["y"] == pytest.approx(-0.5, abs=1e-6)
        assert sol.info["full_violation"] <= 1e-8


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
        sol = S.ConicSolution(status=S.OPTIMAL, primal=primal, duals={})
        assert S.check_relaxation_tightness(ir, sol) == 0.0


class TestNoConicPart:
    def test_rejected(self):
        ir = ConicProgramIR(
            variables=("x",),
            equalities=(Row({"x": 1.0}, 1.0),),
            inequalities=(),
            soc_cones=(),
            binaries=(),
            objective=AffExpr({"x": 1.0}),
        ).validate()
        # fully determined by presolve, no cone needed
        sol = S.solve_socp(ir)
        assert sol.status == S.OPTIMAL and sol.primal["x"] == 1.0


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
    """getrf/getrs called directly give the scipy wrappers' bits and guards."""

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

    def test_nan_in_matrix_rejected(self):
        rng = np.random.default_rng(1)
        A, G, (W,) = random_kkt_data(rng, 4, 2, 5, 1)
        bad = G.copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            S._kkt_matrix(A[None], bad[None])
        K = S._kkt_matrix(A[None], G[None])
        W[3, 3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            S._kkt_factor(K, W[None], 1e-11, 4, np.empty_like(K))

    def test_nan_in_rhs_rejected(self):
        rng = np.random.default_rng(2)
        A, G, (W,) = random_kkt_data(rng, 4, 2, 5, 1)
        K = S._kkt_matrix(A[None], G[None])
        lu = S._kkt_factor(K, W[None], 1e-11, 4, np.empty_like(K))
        rhs = rng.standard_normal(11)
        rhs[7] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            S._kkt_solve(lu, K, rhs[None], 2)

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
        lone = [S.solve_conelp(*req.scaled(), req.dims) for req in reqs]
        order = np.argsort([raw["iterations"] for raw in lone], kind="stable")
        first, later = order[0], order[-2:]
        assert lone[first]["iterations"] < min(lone[i]["iterations"] for i in later)
        picked = [later[0], first, later[1]]
        return [reqs[i] for i in picked], [lone[i] for i in picked]

    def test_rows_move_down_when_the_middle_finishes(self, grid5):
        reqs, lone = self.middle_first(grid5)
        stacks = [np.stack(arrays) for arrays in zip(*(req.scaled() for req in reqs))]
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
        stacks = [np.stack(arrays) for arrays in zip(*(req.scaled() for req in reqs))]
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


def fully_determined_ir():
    """x = 1: presolve leaves no free variable."""
    return ConicProgramIR(
        variables=("x",),
        equalities=(Row({"x": 1.0}, 1.0),),
        inequalities=(),
        soc_cones=(),
        binaries=(),
        objective=AffExpr({"x": 1.0}),
    ).validate()


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
            # fully determined by presolve
            (fully_determined_ir(), {}, None),
            # out of iterations: a numerical failure
            (instance5(grid5), {}, S.SolverSettings(max_iter=3)),
            (instance33(grid33, conv33, bg33), {}, S.SolverSettings(max_iter=4)),
            # a fixing of a name that is no binary: solve_socp raises
            (n1, {"z[9]": 1.0}, None),
        ]
        return reqs

    @pytest.mark.parametrize("budget", [S._BATCH_BYTES, 100_000, 1])
    def test_equals_one_at_a_time(self, grid5, grid33, conv33, bg33, monkeypatch, budget):
        reqs = self.requests(grid5, grid33, conv33, bg33)
        singles = []
        for req in reqs:
            try:
                singles.append(S.solve_socp(*req))
            except MopschedError as exc:
                singles.append(exc)
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
            if isinstance(want, MopschedError):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert_same_solution(got, want)
                statuses.add((want.status, want.info.get("presolve")))
        assert {(S.INFEASIBLE, None), (S.NUMERICAL_FAILURE, None)} <= statuses
        assert (S.OPTIMAL, "fully determined") in statuses
        assert any(s == S.INFEASIBLE and p for s, p in statuses)
        # the 5-bus group of four shares one batch, or the budget splits it
        # into batches of three (KKT 39, W 21: 8 (2 39^2 + 21^2) = 27,864
        # bytes an instance) or of one
        assert max(batches) == {S._BATCH_BYTES: 4, 100_000: 3, 1: 1}[budget]
