"""Network model, linearization, and loss-surrogate checks.

The nonlinear fixed-point power flow is the oracle throughout: the affine
voltage model and the quadratic loss surrogate must match its directional
derivatives at the expansion point and track it to stated tolerances inside
the converter's operating range.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mopsched import grid as G
from mopsched.errors import ModelError, PowerFlowDivergence, ValidationError

from conftest import PCC33, fixture_text, singular_load_block_network


def two_bus_load_voltage(z, v0, s):
    """Closed-form high-voltage root of the two-bus power flow."""
    rhs = z * np.conj(s)
    q = rhs.imag / v0
    p = 0.5 * (v0 + np.sqrt(v0**2 - 4 * (q**2 - rhs.real)))
    return p + 1j * q


class TestAdmittance:
    def test_single_branch_formula(self):
        z = 0.01 + 0.1j
        net = G.two_bus_network(z=z)
        Y = G.build_admittance(net)
        expect = (1 / z) * np.array([[1, -1], [-1, 1]])
        assert np.allclose(Y, expect, atol=1e-15)

    def test_duplicate_bus_id_rejected(self):
        with pytest.raises(ModelError, match="duplicate"):
            G.BusNetwork(
                buses=(G.Bus("a", "slack"), G.Bus("a", "load")),
                branches=(G.Branch("a", "a", 0.1, 0.1),),
            )

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ModelError, match="disconnected"):
            G.BusNetwork(
                buses=(G.Bus("a", "slack"), G.Bus("b", "load"), G.Bus("c", "load")),
                branches=(G.Branch("a", "b", 0.1, 0.1),),
            )

    @pytest.mark.parametrize(
        "r, x, b_shunt, message",
        [
            (0.0, 0.0, 0.0, "zero impedance"),
            (-0.01, 0.1, 0.0, "negative resistance"),
            (float("nan"), 0.1, 0.0, "non-finite parameter"),
            (0.01, float("inf"), 0.0, "non-finite parameter"),
            (0.01, 0.1, float("-inf"), "non-finite parameter"),
        ],
        ids=["zero-impedance", "negative-r", "nan-r", "inf-x", "inf-b-shunt"],
    )
    def test_bad_branch_rejected(self, r, x, b_shunt, message):
        with pytest.raises(ModelError, match=message):
            G.BusNetwork(
                buses=(G.Bus("a", "slack"), G.Bus("b", "load")),
                branches=(G.Branch("a", "b", r, x, b_shunt),),
            )

    def test_ieee33_shape_and_invertibility(self, net33):
        Y = G.build_admittance(net33)
        assert Y.shape == (33, 33)
        # YLL nonsingular: solve against identity and check the residual
        Z = np.linalg.solve(Y[1:, 1:], np.eye(32))
        assert np.max(np.abs(Y[1:, 1:] @ Z - np.eye(32))) < 1e-10

    def test_reciprocity_all_fixtures(self, net2, net5, net33):
        for net in (net2, net5, net33):
            Y = G.build_admittance(net)
            assert np.array_equal(Y, Y.T)

    def test_row_sums_equal_shunt(self):
        net = G.two_bus_network(z=0.01 + 0.1j, b_shunt=0.04)
        Y = G.build_admittance(net)
        assert np.allclose(Y.sum(axis=1), [0.02j, 0.02j])


class TestNoLoad:
    def test_flat_voltage(self, net2):
        w = G.solve_noload(net2)
        assert np.allclose(w, [1.0 + 0.0j], atol=1e-14)

    def test_respects_slack_setting(self):
        net = G.two_bus_network(slack_voltage=1.045 + 0.0j)
        w = G.solve_noload(net)
        assert np.allclose(w, [1.045 + 0.0j], atol=1e-14)

    def test_ieee33_flat_at_unity_slack(self, net33):
        w = G.solve_noload(net33)
        v, _ = G.ac_power_flow(net33, np.zeros(32, complex))
        assert np.allclose(np.abs(w), 1.0, atol=1e-12)
        assert np.allclose(v[1:], w, atol=1e-12)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """Both fixtures' no-load voltages have the same bytes at one and at
        two OpenBLAS threads, each count in its own process, since the count
        is fixed when numpy loads."""
        script = (
            "import json; from mopsched import grid; from conftest import fixture_text\n"
            "for name in ('network_ieee33.json', 'network_5bus.json'):\n"
            "    net = grid.network_from_json(json.loads(fixture_text(name)))\n"
            "    print(grid.solve_noload(net).tobytes().hex())\n"
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(Path(G.__file__).resolve().parent.parent), str(here)])
        printed = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0] == printed[1]


class TestYllLapack:
    """zgetrf/zgetrs called directly give scipy's lu_factor/lu_solve bits,
    and a singular YLL is a ModelError."""

    @pytest.mark.parametrize("name", ["net5", "net33"])
    def test_bitwise_equal_to_wrappers(self, name, request):
        Y = G.build_admittance(request.getfixturevalue(name))
        before = Y.tobytes()
        lu, piv = G._yll_factor(Y)
        want_lu, want_piv = scipy.linalg.lu_factor(Y[1:, 1:])
        assert Y.tobytes() == before  # YLL is a view of Y: factored as a copy
        assert lu.tobytes() == want_lu.tobytes()
        assert np.array_equal(piv, want_piv)
        n1 = len(Y) - 1
        rng = np.random.default_rng(n1)
        rhs = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
        rhs_before = rhs.tobytes()
        got = G._lu_solve((lu, piv), rhs)
        want = scipy.linalg.lu_solve((want_lu, want_piv), np.column_stack([rhs, rhs]))[:, 0]
        assert got.tobytes() == want.tobytes()
        assert rhs.tobytes() == rhs_before
        eye = np.eye(n1, dtype=complex)
        got = G._getrs((lu, piv), eye)
        assert got.tobytes() == scipy.linalg.lu_solve((want_lu, want_piv), eye).tobytes()
        assert np.array_equal(eye, np.eye(n1))

    def test_non_finite_block_raises_value_error(self, net5):
        Y = G.build_admittance(net5)
        Y[2, 2] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            G._yll_factor(Y)

    def test_singular_load_block_raises(self):
        net = singular_load_block_network()
        assert G.build_admittance(net)[1, 1] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: G.solve_noload(net),
                lambda: G.ac_power_flow(net, {}),
                lambda: G.linearize(net, ["b"]),
            ):
                with pytest.raises(ModelError, match="load-bus admittance block is singular"):
                    call()


class TestPowerFlow:
    def test_zero_injection_returns_noload(self, net5):
        w = G.solve_noload(net5)
        v, loss = G.ac_power_flow(net5, np.zeros(4, complex))
        assert np.allclose(v[1:], w, atol=1e-12)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_bus_closed_form(self, net2):
        s = -(0.1 + 0.05j)
        v, loss = G.ac_power_flow(net2, {"bus_2": s})
        expect = two_bus_load_voltage(0.01 + 0.1j, 1.0, s)
        assert abs(v[1] - expect) < 1e-8
        g = (1 / (0.01 + 0.1j)).real
        assert loss == pytest.approx(g * abs(v[1] - 1.0) ** 2, rel=1e-8)

    def test_absurd_injection_diverges(self, net2):
        with pytest.raises(PowerFlowDivergence) as exc:
            G.ac_power_flow(net2, {"bus_2": -100.0 + 0.0j})
        assert exc.value.residual > 0

    def test_ieee33_base_case_canonical_results(self, net33):
        loads = json.loads(fixture_text("config_ieee33.json"))["loads"]
        # shipped peaks are 0.37x the Baran-Wu table; undo for the textbook case
        inj = {}
        for e in loads:
            if e["profile"] in ("wind", "solar"):
                continue
            inj[e["bus"]] = -(e["peak_kw"] + 1j * e["peak_kvar"]) / 0.37 / 1000.0
        v, loss = G.ac_power_flow(net33, inj)
        assert loss * 1000.0 == pytest.approx(202.68, abs=0.5)
        vm = np.abs(v)
        assert vm.min() == pytest.approx(0.9131, abs=2e-3)
        assert net33.bus_order[int(vm.argmin())] == "bus_18"


class TestVoltageLinearization:
    def test_offset_is_exact_at_zero(self, grid5, net5):
        v, _ = G.ac_power_flow(net5, np.zeros(4, complex))
        assert np.allclose(grid5.b, np.abs(v[1:]), atol=1e-14)

    def test_two_bus_matches_finite_difference(self, net2):
        K = G.linearize(net2, ["bus_2"]).K
        eps = 1e-4
        for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, -0.8])):
            sp = (d[0] + 1j * d[1]) * eps
            vp, _ = G.ac_power_flow(net2, np.array([sp]))
            vm, _ = G.ac_power_flow(net2, np.array([-sp]))
            fd = (np.abs(vp[1]) - np.abs(vm[1])) / (2 * eps)
            assert abs(fd - K[0] @ d) < 1e-6

    def test_directional_derivatives_all_fixtures(self, net5, net33, grid5, grid33):
        rng = np.random.default_rng(2)
        eps = 1e-4
        for net, lg in ((net5, grid5), (net33, grid33)):
            n1 = net.n_bus - 1
            for _ in range(20):
                d = rng.standard_normal(2 * n1)
                d /= np.linalg.norm(d)
                sp = eps * (d[:n1] + 1j * d[n1:])
                vp, _ = G.ac_power_flow(net, sp)
                vm, _ = G.ac_power_flow(net, -sp)
                fd = (np.abs(vp[1:]) - np.abs(vm[1:])) / (2 * eps)
                assert np.max(np.abs(fd - lg.full_K @ d)) < 1e-5

    def test_ieee33_rating_bounded_error_within_tolerance(self, net33, grid33):
        """Batch 2-norm of linear-vs-true voltage changes stays under 3.5%."""
        rng = np.random.default_rng(7)
        lin_all, true_all = [], []
        for _ in range(60):
            x = rng.standard_normal(8)
            legs = np.hypot(x[:4], x[4:])
            x = 0.75 * rng.uniform() ** 0.5 * x / legs.sum()
            s = np.zeros(32, complex)
            for i, bid in enumerate(grid33.pcc_buses):
                j = grid33.bus_order.index(bid)
                s[j] += x[i] + 1j * x[4 + i]
            v, _ = G.ac_power_flow(net33, s)
            true_all.append(np.abs(v[1:]) - grid33.b)
            lin_all.append(grid33.K @ x)
        lin_all = np.concatenate(lin_all)
        true_all = np.concatenate(true_all)
        rel = np.linalg.norm(lin_all - true_all) / np.linalg.norm(true_all)
        assert rel < 0.035

    def test_unknown_pcc_rejected(self, net5):
        with pytest.raises(ModelError, match="PCC"):
            G.linearize(net5, ["bus_99"])


class TestLossQuadratic:
    def test_sigma_zero_without_shunts(self, grid5, grid33):
        assert grid5.loss_quad.sigma == pytest.approx(0.0, abs=1e-12)
        assert grid33.loss_quad.sigma == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_difference(self, net2):
        lam = G.linearize(net2, ["bus_2"]).loss_quad.lam
        eps = 1e-4
        for d in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-0.8, 0.6])):
            sp = eps * (d[0] + 1j * d[1])
            _, lp = G.ac_power_flow(net2, np.array([sp]))
            _, lm = G.ac_power_flow(net2, np.array([-sp]))
            assert abs((lp - lm) / (2 * eps) - lam @ d) < 1e-6

    def test_gradient_directional_all_fixtures(self, net5, net33, grid5, grid33):
        rng = np.random.default_rng(3)
        eps = 1e-4
        for net, lg in ((net5, grid5), (net33, grid33)):
            n1 = net.n_bus - 1
            for _ in range(20):
                d = rng.standard_normal(2 * n1)
                d /= np.linalg.norm(d)
                sp = eps * (d[:n1] + 1j * d[n1:])
                _, lp = G.ac_power_flow(net, sp)
                _, lm = G.ac_power_flow(net, -sp)
                assert abs((lp - lm) / (2 * eps) - lg.full_lam @ d) < 1e-5

    def test_psd_after_projection(self, grid5, grid33):
        for lg in (grid5, grid33):
            assert np.linalg.eigvalsh(lg.full_Lambda).min() >= -1e-9
            assert np.linalg.eigvalsh(lg.loss_quad.Lambda).min() >= -1e-9
            assert np.allclose(lg.full_Lambda, lg.full_Lambda.T)

    def test_ieee33_regression_slope_under_fixture_demand(self, net33, grid33):
        """Model-vs-true loss-change slope lands in the plausible band."""
        loads = json.loads(fixture_text("config_ieee33.json"))["loads"]
        bg = np.zeros(32, complex)
        for e in loads:
            if e["profile"] in ("wind", "solar"):
                continue
            bg[grid33.bus_order.index(e["bus"])] = -(e["peak_kw"] + 1j * e["peak_kvar"]) / 1000.0
        folded = grid33.fold_background(bg)
        _, base_loss = G.ac_power_flow(net33, bg)
        rng = np.random.default_rng(5)
        model, true = [], []
        for _ in range(60):
            x = rng.standard_normal(8)
            legs = np.hypot(x[:4], x[4:])
            x = 0.75 * rng.uniform() * x / legs.sum()
            s = bg.copy()
            for i, bid in enumerate(grid33.pcc_buses):
                j = grid33.bus_order.index(bid)
                s[j] += x[i] + 1j * x[4 + i]
            _, loss = G.ac_power_flow(net33, s)
            true.append(loss - base_loss)
            q = folded.loss_quad
            model.append(x @ q.Lambda @ x + q.lam @ x)
        slope = np.polyfit(true, model, 1)[0]
        assert 0.85 <= slope <= 1.0

    def test_fold_background_matches_direct_quadratic(self, grid33):
        """Folding is exact substitution into the full quadratic."""
        rng = np.random.default_rng(9)
        s_bg = (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * 0.05
        folded = grid33.fold_background(s_bg)
        x_bg = np.concatenate([s_bg.real, s_bg.imag])
        cols = grid33._pcc_cols()
        for _ in range(5):
            x = rng.standard_normal(8) * 0.1
            x_tot = x_bg.copy()
            for j, col in enumerate(cols):
                x_tot[col] += x[j]
            full = x_tot @ grid33.full_Lambda @ x_tot + grid33.full_lam @ x_tot
            q = folded.loss_quad
            assert full == pytest.approx(x @ q.Lambda @ x + q.lam @ x + q.sigma, abs=1e-12)
            v_full = grid33.b + grid33.full_K @ x_tot
            assert np.allclose(v_full, folded.b + folded.K @ x, atol=1e-12)


class TestNetworkJson:
    def test_round_trip(self, net5):
        doc = G.network_to_json(net5)
        again = G.network_from_json(doc)
        assert G.network_to_json(again) == doc

    def test_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            G.network_from_json({"buses": []})
