"""Oracle engines: support enumeration and the refining grid scan."""

from dataclasses import replace

import numpy as np
import pytest

from mopsched import oracle as O
from mopsched import solver as S
from mopsched.errors import ValidationError
from mopsched.mission import electrical_cardinality
from mopsched.program import AffExpr, Cone, ConicProgramIR, ConverterSpec, Row, UNCONSTRAINED

from conftest import PCC5, instance5


class TestEnumerateSupports:
    def test_full_support_equals_unconstrained(self, grid5):
        ir = instance5(grid5, cardinality=2)
        oc = O.enumerate_supports(ir, 2)
        unc = S.solve_socp(instance5(grid5, cardinality=UNCONSTRAINED))
        assert abs(oc.objective - unc.objective) < 1e-8
        assert oc.solves == 4  # C(2,0)+C(2,1)+C(2,2)

    def test_infeasible_when_der_blocked(self, grid5):
        ir = instance5(grid5, cardinality=0, p_der=0.1)
        oc = O.enumerate_supports(ir, 0)
        assert oc.status == "infeasible"

    def test_terminal_guard(self):
        names = tuple(f"z[{i}]" for i in range(13)) + ("t",)
        ir = ConicProgramIR(
            variables=names,
            equalities=(),
            inequalities=tuple(Row({z: 1.0}, 1.0) for z in names[:-1]),
            soc_cones=(Cone(head="t", tail=(AffExpr({}, 1.0),)),),
            binaries=names[:-1],
            objective=AffExpr({"t": 1.0}),
        ).validate()
        with pytest.raises(ValidationError, match="guard"):
            O.enumerate_supports(ir, 1)

    def test_support_size_range_checked(self, grid5):
        ir = instance5(grid5, cardinality=1)
        with pytest.raises(ValidationError):
            O.enumerate_supports(ir, 5)

    def test_continuous_program_rejected(self, grid5):
        with pytest.raises(ValidationError, match="binaries"):
            O.enumerate_supports(instance5(grid5), 1)


class TestGridSearch:
    def test_zero_demand_optimum_at_origin(self, grid5):
        ir = instance5(grid5, bg=None)
        gs = O.grid_search_continuous(ir, resolution=1e-3)
        assert gs.status == "optimal"
        assert gs.objective == pytest.approx(0.0, abs=1e-6)
        for v, val in gs.point.items():
            assert abs(val) < 2e-3

    def test_matches_socp_on_5bus(self, grid5):
        ir = instance5(grid5)
        gs = O.grid_search_continuous(ir, resolution=1e-3)
        sol = S.solve_socp(ir)
        assert abs(gs.objective - sol.objective) < 1e-4
        # the scan evaluates only feasible points: never below the optimum
        assert gs.objective >= sol.objective - 1e-9

    def test_matches_socp_on_lossless_5bus(self, grid5):
        """k = 0: the scan runs over the legs' transfers alone, at full capacity."""
        conv = ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=0.0)
        ir = instance5(grid5, conv=conv)
        gs = O.grid_search_continuous(ir, resolution=1e-3)
        sol = S.solve_socp(ir)
        assert gs.status == "optimal" and sol.status == S.OPTIMAL
        assert abs(gs.objective - sol.objective) < 1e-4
        assert gs.objective >= sol.objective - 1e-9

    @pytest.mark.parametrize(
        "record, message",
        [
            ("loss_model", "program carries no loss model metadata"),
            ("converter", "program carries no converter record"),
            ("data_rows", "program carries no record of its voltage rows"),
        ],
    )
    def test_missing_record_rejected(self, grid5, record, message):
        ir = replace(instance5(grid5), **{record: {}})
        with pytest.raises(ValidationError, match=f"^{message}$"):
            O.grid_search_continuous(ir)

    def test_infeasible_voltage_box(self, grid5):
        ir = instance5(grid5, v=(1.02, 1.03))
        gs = O.grid_search_continuous(ir, resolution=5e-3)
        assert gs.status == "infeasible"

    def test_dimension_guard(self, grid33, conv33, bg33):
        from conftest import instance33

        ir = instance33(grid33, conv33, bg33)
        with pytest.raises(ValidationError, match="dimensions"):
            O.grid_search_continuous(ir)

    def test_binaries_rejected(self, grid5):
        with pytest.raises(ValidationError, match="continuous"):
            O.grid_search_continuous(instance5(grid5, cardinality=1))


class TestShrinkage:
    def test_ec_non_increasing_in_loss_coefficient(self, grid5):
        """Larger converter loss coefficients produce sparser transfers."""
        ecs = []
        for k in (0.0, 0.005, 0.01, 0.02, 0.05):
            conv = ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=k)
            ir = instance5(grid5, conv=conv)
            sol = S.solve_socp(ir)
            assert sol.status == S.OPTIMAL
            s_vals = [
                float(np.hypot(sol.primal[f"P_c[{i}]"], sol.primal[f"Q_c[{i}]"]))
                for i in (1, 2)
            ]
            ecs.append(electrical_cardinality(s_vals, 1e-5 * 0.4))
        assert all(a >= b for a, b in zip(ecs, ecs[1:]))
        assert ecs[0] == 2  # both legs pay off when transfers are free
