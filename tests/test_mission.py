"""Mission-profile metrics, horizon scheduling, summaries, CSV IO."""

import dataclasses
import multiprocessing
from concurrent.futures.process import _RemoteTraceback

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from mopsched import mission as MS
from mopsched import profiles as PR
from mopsched.errors import MopschedError, ValidationError
from mopsched.program import UNCONSTRAINED, ConverterSpec

from conftest import PCC5, fail_solve_when


class TestElectricalCardinality:
    def test_all_zero(self):
        assert MS.electrical_cardinality([0.0, 0.0, 0.0], 0.01) == 0

    def test_paper_tolerance_case(self):
        # 1e-5 of a 3200 kVA converter
        assert MS.electrical_cardinality([500.0, 0.0, 250.0], 0.032) == 2

    def test_boundary_is_strict(self):
        eps = 0.5
        assert MS.electrical_cardinality([eps, eps], eps) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            MS.electrical_cardinality([-1.0, 2.0], 0.1)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValidationError):
            MS.electrical_cardinality([1.0], 0.0)

    @pytest.mark.parametrize(
        "row, eps", [([1.0], np.nan), ([1.0], np.inf), ([np.nan, 1.0], 0.1), ([np.inf], 0.1)]
    )
    def test_non_finite_rejected(self, row, eps):
        with pytest.raises(ValidationError, match="finite"):
            MS.electrical_cardinality(row, eps)

    @given(
        row=st.lists(st.floats(0, 1e4), min_size=1, max_size=6),
        eps=st.floats(1e-6, 10.0),
    )
    @hsettings(max_examples=100, deadline=None)
    def test_permutation_invariant_and_bounded(self, row, eps):
        ec = MS.electrical_cardinality(row, eps)
        assert 0 <= ec <= len(row)
        assert ec == MS.electrical_cardinality(sorted(row, reverse=True), eps)


class TestMec:
    def test_all_zero_profile(self):
        assert MS.mec(np.zeros((4,), dtype=int)) == 0

    def test_series_max(self):
        assert MS.mec(np.array([0, 2, 1])) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            MS.mec(np.array([], dtype=int))


def small_horizon(tau=2, cardinality=UNCONSTRAINED, der=None, demand=True, v=(0.9, 1.1)):
    t = np.arange(tau)
    profs = {
        "flat": np.full(tau, 0.8),
        "ramp": np.linspace(0.2, 1.0, tau),
        "sun": np.clip(np.sin(np.pi * (t + 1) / (tau + 1)), 0, None),
    }
    loads = (
        [
            MS.LoadSpec("bus_2", "flat", 180.0, 90.0),
            MS.LoadSpec("bus_3", "ramp", 220.0, 100.0),
            MS.LoadSpec("bus_5", "sun", -150.0, 0.0),
        ]
        if demand
        else []
    )
    return MS.HorizonInput(
        profiles=profs,
        loads=loads,
        timestep_hours=0.5,
        v_min=v[0],
        v_max=v[1],
        cardinality_limit=cardinality,
        der=der,
    )


class TestScheduleHorizon:
    def test_single_step_shrinkage_zero(self, grid5, conv5):
        hz = small_horizon(tau=1, demand=False)
        mp = MS.schedule_horizon(grid5, conv5, hz)
        assert mp.tau == 1 and mp.m == 2
        # interior-point zeros: far below the nnz tolerance
        assert np.all(mp.s_mp < 1e-6)
        assert mp.ec_series.tolist() == [0]
        assert mp.mec == 0
        assert mp.status == ["optimal"]

    def test_der_with_n0_all_infeasible(self, grid5):
        conv = ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=0.01, has_dc_der=True)
        hz = small_horizon(tau=2, cardinality=0, der=MS.DerSpec("flat", 120.0))
        mp = MS.schedule_horizon(grid5, conv, hz)
        assert mp.status == ["infeasible", "infeasible"]
        assert np.all(mp.s_mp == 0.0)
        assert np.all(np.isnan(mp.objective_kw))

    def test_row_consistency_invariants(self, grid5, conv5):
        hz = small_horizon(tau=4)
        mp = MS.schedule_horizon(grid5, conv5, hz)
        assert np.allclose(mp.s_mp, np.hypot(mp.p_mp, mp.q_mp), rtol=1e-6, atol=1e-12)
        recomputed = [MS.electrical_cardinality(row, mp.eps_kva) for row in mp.s_mp]
        assert recomputed == mp.ec_series.tolist()
        # capacity: sum of legs within total rating
        assert np.all(mp.s_mp.sum(axis=1) <= mp.s_total_kva * (1 + 1e-9))

    def test_mec_of_n1_run_is_one(self, grid5, conv5):
        hz = small_horizon(tau=3, cardinality=1)
        mp = MS.schedule_horizon(grid5, conv5, hz)
        assert all(s in ("optimal", "gap_reached") for s in mp.status)
        assert MS.mec(mp) == 1


def _with_cpus(monkeypatch, count, threads=1):
    monkeypatch.setattr(MS.os, "sched_getaffinity", lambda pid: set(range(count)))
    # a multi-threaded BLAS would otherwise keep the run in one process
    monkeypatch.setattr(MS, "_thread_count", lambda: threads)


def _profile_bits(mp):
    """Every field of a mission profile, arrays as dtype, shape and bytes."""
    out = {}
    for f in dataclasses.fields(mp):
        value = getattr(mp, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        out[f.name] = value
    return out


@pytest.mark.parametrize(
    "cpus, threads, tau, shares", [(3, 1, 7, 3), (3, 1, 2, 2), (1, 1, 7, 1), (3, 2, 7, 1)]
)
def test_share_count(monkeypatch, cpus, threads, tau, shares):
    _with_cpus(monkeypatch, cpus, threads)
    assert MS._share_count(tau) == shares


# Python 3.12+ warns on forking a process that has threads.  These tests fork
# even when the only other threads are OpenBLAS's, which shuts its pool down
# around a fork.
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestParallelShares:
    """One CPU solves the horizon inline; three split it between the caller and two forked workers."""

    @staticmethod
    def schedule(grid5, cardinality):
        conv = ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=0.01, has_dc_der=True)
        hz = small_horizon(tau=7, cardinality=cardinality, der=MS.DerSpec("sun", 120.0))
        return MS.schedule_horizon(grid5, conv, hz)

    def schedule_on(self, monkeypatch, cpus, grid5, cardinality):
        with monkeypatch.context() as m:
            _with_cpus(m, cpus)
            return self.schedule(grid5, cardinality)

    @pytest.mark.parametrize("cardinality", [1, UNCONSTRAINED])
    def test_bitwise_equal_across_cpu_counts(self, monkeypatch, grid5, cardinality):
        one = self.schedule_on(monkeypatch, 1, grid5, cardinality)
        three = self.schedule_on(monkeypatch, 3, grid5, cardinality)
        assert one.status.count("optimal") >= 5
        assert _profile_bits(three) == _profile_bits(one)

    def test_error_row_from_a_worker(self, monkeypatch, grid5):
        # with three shares, t=4 belongs to the worker solving share 1
        fail_solve_when(monkeypatch, lambda t, ir: t == 4, MopschedError("forced failure"))
        one = self.schedule_on(monkeypatch, 1, grid5, 1)
        three = self.schedule_on(monkeypatch, 3, grid5, 1)
        assert one.status[4] == "error"
        assert one.errors == {4: "forced failure"}
        assert _profile_bits(three) == _profile_bits(one)

    @pytest.mark.parametrize("t_fail, remote", [(0, False), (1, True)])
    def test_other_exceptions_propagate(self, monkeypatch, grid5, t_fail, remote):
        fail_solve_when(monkeypatch, lambda t, ir: t == t_fail, RuntimeError(f"boom at {t_fail}"))
        _with_cpus(monkeypatch, 3)
        with pytest.raises(RuntimeError, match=f"boom at {t_fail}") as info:
            self.schedule(grid5, 1)
        # t=0 is the caller's own share, t=1 a worker's
        assert isinstance(info.value.__cause__, _RemoteTraceback) is remote
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def day33(grid33, conv33):
    """One synthetic 48-step day on the 33-bus fixture, n=4 vs n=2."""
    from mopsched import cli

    cfg = cli.load_config("ieee33")
    prof = PR.synthetic_profiles(days=1, steps_per_day=48, seed=7)
    loads = tuple(
        MS.LoadSpec(e["bus"], e["profile"], e["peak_kw"], e.get("peak_kvar", 0.0))
        for e in cfg.loads
    )

    def hz(n):
        return MS.HorizonInput(
            profiles=prof,
            loads=loads,
            timestep_hours=0.5,
            v_min=cfg.v_min,
            v_max=cfg.v_max,
            cardinality_limit=n,
        )

    full = MS.schedule_horizon(grid33, conv33, hz(4))
    card2 = MS.schedule_horizon(grid33, conv33, hz(2))
    return full, card2


class TestDayComparison:
    def test_fraction_in_unit_interval(self, day33):
        full, card2 = day33
        base = full.baseline_ntwk_loss_kw
        red_full = np.nansum(base - full.objective_kw)
        red_2 = np.nansum(base - card2.objective_kw)
        assert red_full > 0
        assert 0.0 < red_2 / red_full <= 1.0

    def test_objectives_agree_where_full_run_fits_budget(self, day33):
        full, card2 = day33
        for t in range(full.tau):
            if full.ec_series[t] <= 2:
                tol = max(1e-5, 1e-4 * abs(full.objective_kw[t])) + 1e-5
                assert abs(full.objective_kw[t] - card2.objective_kw[t]) <= tol

    def test_cardinality_enforced(self, day33):
        _, card2 = day33
        assert card2.mec <= 2

    def test_feasibility_preserved_under_constraint(self, day33):
        full, card2 = day33
        for t in range(full.tau):
            if full.ec_series[t] <= 2 and full.status[t] == "optimal":
                assert card2.status[t] != "infeasible"


class TestSummarize:
    def test_zero_profile_against_own_baseline(self, grid5, conv5):
        hz = small_horizon(tau=2, demand=False)
        mp = MS.schedule_horizon(grid5, conv5, hz)
        summ = MS.summarize([dataclasses.replace(mp, baseline_ntwk_loss_kw=mp.objective_kw)])
        run = summ["runs"][0]
        assert run["loss_reduction_kwh"] == pytest.approx(0.0, abs=1e-12)
        assert run["ec_histogram"] == {"0": 2, "1": 0, "2": 0}
        assert run["zero_ec_fraction"] == 1.0

    def test_identical_profiles_fraction_one(self, grid5, conv5):
        hz = small_horizon(tau=2)
        a = MS.schedule_horizon(grid5, conv5, hz)
        b = MS.schedule_horizon(grid5, conv5, hz)
        summ = MS.summarize([a, b])
        assert summ["runs"][0] == summ["runs"][1]
        assert summ["runs"][1]["fraction_of_unconstrained_reduction"] == pytest.approx(1.0)

    def test_no_profiles_rejected(self):
        with pytest.raises(ValidationError, match="^no profiles to summarize$"):
            MS.summarize([])

    def test_profiles_over_different_horizons_rejected(self, grid5, conv5):
        mp = MS.schedule_horizon(grid5, conv5, small_horizon(tau=2))
        longer = dataclasses.replace(mp, p_mp=np.zeros((3, mp.m)))
        with pytest.raises(ValidationError, match="^profiles cover different horizons$"):
            MS.summarize([mp, longer])


class TestMissionCsv:
    def test_round_trip_and_ec_recompute(self, grid5, conv5, tmp_path):
        hz = small_horizon(tau=3)
        mp = MS.schedule_horizon(grid5, conv5, hz)
        path = tmp_path / "mission.csv"
        MS.write_mission_csv(mp, path)
        s_mp = MS.read_mission_apparent_powers(path)
        assert s_mp.shape == (3, 2)
        assert np.array_equal(s_mp, mp.s_mp)
        ec = [MS.electrical_cardinality(r, mp.eps_kva) for r in s_mp]
        assert ec == mp.ec_series.tolist()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,nope\n0,1\n")
        with pytest.raises(ValidationError, match="S_c"):
            MS.read_mission_apparent_powers(path)


class TestHorizonValidation:
    @pytest.mark.parametrize(
        "profiles, timestep_hours, message",
        [
            ({}, 0.5, "horizon needs at least one profile series"),
            ({"a": np.ones(0), "b": np.ones(0)}, 0.5, "horizon must cover at least one timestep"),
            ({"a": np.ones(2)}, 0.0, "timestep duration must be positive"),
            ({"a": np.ones(2)}, -0.5, "timestep duration must be positive"),
        ],
        ids=["no_profiles", "zero_length_series", "zero_timestep", "negative_timestep"],
    )
    def test_empty_or_instant_horizon_rejected(self, profiles, timestep_hours, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            MS.HorizonInput(
                profiles=profiles, loads=[], timestep_hours=timestep_hours, v_min=0.9, v_max=1.1
            )

    def test_unequal_series_rejected(self):
        with pytest.raises(ValidationError, match="lengths"):
            MS.HorizonInput(
                profiles={"a": np.ones(3), "b": np.ones(4)},
                loads=[],
                timestep_hours=0.5,
                v_min=0.9,
                v_max=1.1,
            )

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            MS.HorizonInput(
                profiles={"a": np.array([0.5, -0.1])},
                loads=[],
                timestep_hours=0.5,
                v_min=0.9,
                v_max=1.1,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_multiplier_rejected(self, value):
        with pytest.raises(ValidationError, match="profile 'a' has non-finite"):
            MS.HorizonInput(
                profiles={"a": np.array([0.5, value])},
                loads=[],
                timestep_hours=0.5,
                v_min=0.9,
                v_max=1.1,
            )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValidationError, match="unknown profile"):
            MS.HorizonInput(
                profiles={"a": np.ones(2)},
                loads=[MS.LoadSpec("bus_2", "zzz", 1.0)],
                timestep_hours=0.5,
                v_min=0.9,
                v_max=1.1,
            )


class TestSyntheticProfiles:
    def test_deterministic_and_normalized(self):
        a = PR.synthetic_profiles(days=2, steps_per_day=24, seed=3)
        b = PR.synthetic_profiles(days=2, steps_per_day=24, seed=3)
        assert set(a) == {
            "residential_a",
            "residential_b",
            "commercial",
            "industrial",
            "solar",
            "wind",
        }
        for name in a:
            assert np.array_equal(a[name], b[name])
            assert a[name].min() >= 0.0
            assert a[name].max() == pytest.approx(1.0)
            assert len(a[name]) == 48

    def test_horizons_shorter_than_the_wind_kernel(self):
        for n in range(1, 5):
            p = PR.synthetic_profiles(days=1, steps_per_day=n, seed=3)
            assert all(len(series) == n for series in p.values())

    def test_solar_dark_at_night(self):
        p = PR.synthetic_profiles(days=1, steps_per_day=48, seed=5)
        assert p["solar"][0] == 0.0 and p["solar"][-1] == 0.0

    def test_csv_round_trip(self, tmp_path):
        p = PR.synthetic_profiles(days=1, steps_per_day=12, seed=9)
        path = tmp_path / "profiles.csv"
        PR.write_profiles_csv(path, p)
        q = PR.read_profiles_csv(path)
        for name in p:
            assert np.allclose(p[name], q[name], atol=1e-9)

    def test_header_required(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValidationError, match="timestep"):
            PR.read_profiles_csv(path)
