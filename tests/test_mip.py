"""Branch-and-bound behavior against the exhaustive support oracle."""

from dataclasses import replace

import numpy as np
import pytest

from mopsched import mip as M
from mopsched import oracle as O
from mopsched import solver as S
from mopsched.errors import MopschedError, ValidationError
from mopsched.mission import electrical_cardinality
from mopsched.program import UNCONSTRAINED, build_timestep_program

from conftest import assert_same_solution, instance5, instance33


class TestBranchRule:
    def test_most_fractional_selected(self):
        var, children = M.branch({}, {"z[1]": 0.5, "z[2]": 0.9}, ("z[1]", "z[2]"))
        assert var == "z[1]"
        assert children[0]["z[1]"] == 0.0 and children[1]["z[1]"] == 1.0

    def test_tie_breaks_to_lowest_index(self):
        var, _ = M.branch({}, {"z[1]": 0.5, "z[2]": 0.5}, ("z[1]", "z[2]"))
        assert var == "z[1]"

    def test_integral_means_no_branching(self):
        var, children = M.branch({}, {"z[1]": 1.0, "z[2]": 0.0}, ("z[1]", "z[2]"))
        assert var is None and children == ()

    def test_fixed_variables_skipped(self):
        var, _ = M.branch({"z[1]": 1.0}, {"z[2]": 0.4}, ("z[1]", "z[2]"))
        assert var == "z[2]"


class TestSolveMisocp:
    def test_vacuous_cardinality_matches_unconstrained(self, grid5):
        unc = M.solve_misocp(instance5(grid5, cardinality=UNCONSTRAINED))
        vac = M.solve_misocp(instance5(grid5, cardinality=2))
        assert abs(vac.objective - unc.objective) < 1e-8

    def test_m4_n2_matches_eleven_subset_enumeration(self, grid33, conv33, bg33):
        ir = instance33(grid33, conv33, bg33, cardinality=2)
        ms = M.solve_misocp(ir)
        oc = O.enumerate_supports(ir, 2)
        assert oc.solves == 11  # C(4,0)+C(4,1)+C(4,2)
        assert ms.status in ("optimal", "gap_reached")
        assert abs(ms.objective - oc.objective) < max(1e-8, 1e-4 * abs(oc.objective))

    def test_n0_with_der_infeasible(self, grid5):
        ir = instance5(grid5, cardinality=0, p_der=0.1)
        ms = M.solve_misocp(ir)
        assert ms.status == "infeasible"
        assert ms.incumbent is None

    def test_binaries_without_cardinality_record_rejected(self, grid5):
        ir = replace(instance5(grid5, cardinality=1), cardinality={})
        with pytest.raises(ValidationError, match="cardinality record"):
            M.solve_misocp(ir)

    def test_delegates_when_no_binaries(self, grid5):
        ir = instance5(grid5)
        ms = M.solve_misocp(ir)
        sol = S.solve_socp(ir)
        assert ms.status == "optimal"
        assert ms.nodes_explored == 1
        assert ms.gap_abs == 0.0
        assert abs(ms.objective - sol.objective) < 1e-12

    def test_monotone_in_cardinality(self, grid33, conv33, bg33):
        objs = []
        for n in range(5):
            ms = M.solve_misocp(instance33(grid33, conv33, bg33, cardinality=n))
            assert ms.status in ("optimal", "gap_reached")
            objs.append(ms.objective)
        unc = M.solve_misocp(instance33(grid33, conv33, bg33))
        tol = 1e-7
        for a, b in zip(objs, objs[1:]):
            assert b <= a + tol
        assert abs(objs[4] - unc.objective) < 1e-8

    def test_bound_is_valid_lower_bound(self, grid33, conv33, bg33):
        cases = [(instance33(grid33, conv33, bg33, cardinality=n), n) for n in (1, 2, 3)]
        # ieee33 fixture (seed 7) at t=66, n=2: a node fathomed inside the gap
        # holds the least bound, below the incumbent
        from mopsched import cli, mission

        _, lg, conv, horizon = cli._build_setup(cli.load_config("ieee33"))
        ts = mission._timestep_input(lg, horizon(2), 66, 0.0)
        cases.append((build_timestep_program(lg, conv, ts), 2))
        for ir, n in cases:
            ms = M.solve_misocp(ir)
            oc = O.enumerate_supports(ir, n)
            assert ms.bound <= oc.objective + 1e-8

    def test_support_consistency_with_eps(self, grid33, conv33, bg33):
        for n in (0, 1, 2, 3):
            ir = instance33(grid33, conv33, bg33, cardinality=n)
            ms = M.solve_misocp(ir)
            s_vals = [ms.incumbent.primal[f"S_c[{i + 1}]"] for i in range(4)]
            eps = 1e-5 * conv33.s_total
            assert electrical_cardinality(s_vals, eps) <= n

    def test_zero_fixed_legs_are_hard_zero(self, grid33, conv33, bg33):
        ir = instance33(grid33, conv33, bg33, cardinality=1)
        ms = M.solve_misocp(ir)
        for z, val in ms.fixings.items():
            if val == 0.0:
                leg = z[2:-1]
                assert ms.incumbent.primal[f"S_c[{leg}]"] <= 1e-9

    def test_exhaustive_settings_match_enumeration(self, grid33, bg33, net33):
        """With gaps driven to zero the tree search is exact, m = 5 included."""
        from mopsched import grid as G
        from mopsched.program import ConverterSpec, TimestepInput, build_timestep_program

        pcc = ["bus_18", "bus_22", "bus_25", "bus_33", "bus_12"]
        lg = G.linearize(net33, pcc)
        conv = ConverterSpec(pcc_buses=tuple(pcc), s_total=0.75, k=0.01)
        cfg = M.BnBConfig(rel_gap=1e-12, abs_gap=1e-12, node_limit=100000)
        for n in (1, 2):
            ts = TimestepInput(
                v_min=0.90, v_max=1.06, background_injections=bg33, cardinality_limit=n
            )
            ir = build_timestep_program(lg, conv, ts)
            ms = M.solve_misocp(ir, cfg)
            oc = O.enumerate_supports(ir, n)
            assert abs(ms.objective - oc.objective) < 1e-8

    def test_gap_settings_honored(self, grid33, conv33, bg33):
        cfg = M.BnBConfig(rel_gap=1e-4, abs_gap=1e-5)
        for n in (1, 2, 3):
            ms = M.solve_misocp(instance33(grid33, conv33, bg33, cardinality=n), cfg)
            assert ms.status in ("optimal", "gap_reached")
            assert ms.gap_abs <= max(cfg.abs_gap, cfg.rel_gap * abs(ms.objective)) + 1e-12

    def test_node_limit_returned(self, grid33, conv33, bg33):
        cfg = M.BnBConfig(node_limit=1)
        ms = M.solve_misocp(instance33(grid33, conv33, bg33, cardinality=1), cfg)
        assert ms.status in ("node_limit", "optimal", "gap_reached")
        if ms.status == "node_limit":
            assert ms.nodes_explored <= 1

    def test_infeasible_voltage_box(self, grid33, conv33, bg33):
        ir = instance33(grid33, conv33, bg33, cardinality=2, v=(1.0, 1.005))
        ms = M.solve_misocp(ir)
        assert ms.status == "infeasible"

    def test_trace_file(self, grid33, conv33, bg33, tmp_path):
        path = tmp_path / "nodes.csv"
        M.solve_misocp(instance33(grid33, conv33, bg33, cardinality=2), trace=str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node,bound,incumbent,open,fixings"
        assert len(lines) >= 2

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            M.BnBConfig(rel_gap=0.0)


class TestSolveMisocpMany:
    def test_equals_per_instance(self, grid5, grid33, conv33, bg33):
        irs = [instance33(grid33, conv33, bg33, cardinality=n) for n in (1, 2, 3)]
        irs += [
            instance33(grid33, conv33, bg33),
            instance5(grid5, cardinality=1),
            instance5(grid5, cardinality=0, p_der=0.1),  # infeasible
            instance33(grid33, conv33, bg33, cardinality=2, v=(1.0, 1.005)),  # infeasible
            replace(instance5(grid5, cardinality=1), cardinality={}),  # raises
            instance5(grid5, cardinality=2, p_der=0.12),
        ]
        cfg = M.BnBConfig(rel_gap=1e-6, abs_gap=1e-7)
        many = M.solve_misocp_many(irs, cfg)
        assert len(many) == len(irs)
        for ir, got in zip(irs, many):
            try:
                want = M.solve_misocp(ir, cfg)
            except MopschedError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert_same_solution(got, want)
        assert isinstance(many[7], ValidationError)
        assert [many[i].status for i in (5, 6)] == ["infeasible", "infeasible"]


class TestBatchWidth:
    """A horizon solves its timesteps in windows of ``_batch_width``; a wider
    window holds more programs and searches at once and raises peak memory."""

    @pytest.mark.parametrize("n, width", [(UNCONSTRAINED, 7), (1, 5), (2, 5), (3, 5)])
    def test_ieee33(self, grid33, conv33, bg33, n, width):
        assert M._batch_width(instance33(grid33, conv33, bg33, cardinality=n)) == width

    @pytest.mark.parametrize("n", [UNCONSTRAINED, 1, 2])
    @pytest.mark.parametrize("p_der", [0.0, 0.12])
    def test_5bus(self, grid5, n, p_der):
        assert M._batch_width(instance5(grid5, cardinality=n, p_der=p_der)) == 24
