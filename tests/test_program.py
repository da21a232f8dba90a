"""Timestep program assembly: structure, counts, big-M, serialization."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from mopsched import grid as G
from mopsched.errors import ValidationError
from mopsched.program import (
    UNCONSTRAINED,
    AffExpr,
    Cone,
    ConicProgramIR,
    ConverterSpec,
    Row,
    TimestepInput,
    big_m_value,
    build_timestep_program,
    serialize_ir,
)

from conftest import BG5, PCC5, instance5


def counts(ir):
    return dict(
        variables=len(ir.variables),
        equalities=len(ir.equalities),
        inequalities=len(ir.inequalities),
        cones=len(ir.soc_cones),
        binaries=len(ir.binaries),
    )


class TestStructure:
    def test_unconstrained_has_no_binaries(self, grid5):
        ir = instance5(grid5, cardinality=UNCONSTRAINED)
        assert ir.binaries == ()
        assert ir.big_m is None
        assert ir.cardinality == {}
        assert not any(r.tag == "cardinality" for r in ir.inequalities)

    def test_m4_n2_binary_bookkeeping(self, grid33, conv33, bg33):
        from conftest import instance33

        ir = instance33(grid33, conv33, bg33, cardinality=2)
        assert len(ir.binaries) == 4
        big_m_rows = [r for r in ir.inequalities if r.tag.startswith("big_m")]
        card_rows = [r for r in ir.inequalities if r.tag == "cardinality"]
        assert len(big_m_rows) == 4
        assert len(card_rows) == 1
        assert card_rows[0].rhs == 2
        assert ir.cardinality == {
            "indicators": {f"z[{i}]": f"S_c[{i}]" for i in range(1, 5)},
            "budget": 2,
        }
        assert ir.converter == {"k": 0.01, "s_total": 0.75, "p_der": 0.0}

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("has_der", [False, True])
    @pytest.mark.parametrize("card", [UNCONSTRAINED, 1])
    def test_counts_closed_form(self, net33, m, has_der, card):
        """Variable/row counts as functions of (m, DER flag, cardinality)."""
        pcc = [f"bus_{k}" for k in (18, 22, 25, 33, 12)][:m]
        lg = G.linearize(net33, pcc)
        conv = ConverterSpec(pcc_buses=tuple(pcc), s_total=0.75, k=0.01, has_dc_der=has_der)
        ts = TimestepInput(
            v_min=0.9,
            v_max=1.1,
            p_der=0.05 if has_der else 0.0,
            cardinality_limit=card,
        )
        ir = build_timestep_program(lg, conv, ts)
        zc = m if card != UNCONSTRAINED else 0
        n_mon = 32
        got = counts(ir)
        assert got["variables"] == 5 * m + 2 + int(has_der) + zc
        assert got["equalities"] == 2 * m + 2 + int(has_der)
        assert got["inequalities"] == 2 * n_mon + 1 + (m + 1 if zc else 0)
        assert got["cones"] == m + 1
        assert got["binaries"] == zc

    def test_dc_balance_arity(self, grid5):
        ir = instance5(grid5)
        row = next(r for r in ir.equalities if r.tag == "dc_balance")
        assert set(row.coeffs) == {"P_dc[1]", "P_dc[2]"}
        ir_der = instance5(grid5, p_der=0.1)
        row = next(r for r in ir_der.equalities if r.tag == "dc_balance")
        assert set(row.coeffs) == {"P_dc[1]", "P_dc[2]", "P_dc[3]"}
        pin = next(r for r in ir_der.equalities if r.tag == "der_pin")
        assert pin.coeffs == {"P_dc[3]": 1.0} and pin.rhs == 0.1
        assert ir_der.converter["p_der"] == 0.1

    def test_monitored_subset(self, grid5, conv5):
        ts = TimestepInput(
            v_min=0.9, v_max=1.1, background_injections=BG5, monitored_buses=["bus_3"]
        )
        ir = build_timestep_program(grid5, conv5, ts)
        v_rows = [r for r in ir.inequalities if r.tag.startswith("v_")]
        assert len(v_rows) == 2
        assert all("bus_3" in r.tag for r in v_rows)

    def test_unknown_monitored_bus_rejected(self, grid5, conv5):
        for bus in ("bus_99", "bus_1"):  # bus_1 is the slack bus
            ts = TimestepInput(v_min=0.9, v_max=1.1, monitored_buses=[bus])
            with pytest.raises(ValidationError, match=bus):
                build_timestep_program(grid5, conv5, ts)

    def test_cardinality_exceeding_m_rejected(self, grid5, conv5):
        ts = TimestepInput(v_min=0.9, v_max=1.1, cardinality_limit=3)
        with pytest.raises(ValidationError, match="exceeds"):
            build_timestep_program(grid5, conv5, ts)

    def test_der_without_flag_rejected(self, grid5, conv5):
        ts = TimestepInput(v_min=0.9, v_max=1.1, p_der=0.1)
        with pytest.raises(ValidationError, match="dc-link DER"):
            build_timestep_program(grid5, conv5, ts)

    def test_n_equals_m_strips_to_unconstrained(self, grid5):
        """Dropping binaries, big-M rows, and the cardinality row from an
        n=m program leaves exactly the unconstrained program."""
        full = instance5(grid5, cardinality=2)
        stripped = ConicProgramIR(
            variables=tuple(v for v in full.variables if v not in full.binaries),
            equalities=full.equalities,
            inequalities=tuple(
                r
                for r in full.inequalities
                if not (r.tag.startswith("big_m") or r.tag == "cardinality")
            ),
            soc_cones=full.soc_cones,
            binaries=(),
            objective=full.objective,
            big_m=None,
            loss_model=full.loss_model,
            converter=full.converter,
        )
        assert stripped == instance5(grid5, cardinality=UNCONSTRAINED)

    def test_binaries_only_in_big_m_and_cardinality_rows(self, grid5):
        ir = instance5(grid5, cardinality=1)
        ir.validate()
        for z in ir.binaries:
            rows = [r.tag for r in ir.inequalities if z in r.coeffs]
            assert all(t.startswith("big_m") or t == "cardinality" for t in rows)

    def test_converter_loss_is_an_equality_not_a_bound(self, grid5):
        """The linear loss rows bind exactly at any optimal point."""
        from mopsched import solver as S

        ir = instance5(grid5)
        assert sum(1 for r in ir.equalities if r.tag.startswith("conv_loss")) == 2
        sol = S.solve_socp(ir)
        for i in (1, 2):
            lhs = sol.primal[f"P_loss_conv[{i}]"]
            assert lhs == pytest.approx(0.01 * sol.primal[f"S_c[{i}]"], abs=1e-9)


class TestBigM:
    def test_kva_cases_convert_to_pu(self):
        # 3200 kVA and 750 kVA cases on a 1 MVA base
        for kva in (3200.0, 750.0):
            conv = ConverterSpec(
                pcc_buses=("a", "b", "c"), s_total=kva / 1000.0, k=0.01
            )
            assert big_m_value(conv) == pytest.approx(kva / 1000.0)

    def test_unit_capacity(self):
        conv = ConverterSpec(pcc_buses=("a", "b"), s_total=1.0)
        assert big_m_value(conv) == 1.0

    def test_big_m_rows_use_capacity(self, grid5):
        ir = instance5(grid5, cardinality=1)
        assert ir.big_m == pytest.approx(0.4)
        for r in ir.inequalities:
            if r.tag.startswith("big_m"):
                assert min(r.coeffs.values()) == pytest.approx(-0.4)


class TestValidation:
    def test_converter_invariants(self):
        with pytest.raises(ValidationError):
            ConverterSpec(pcc_buses=("a",), s_total=1.0)
        with pytest.raises(ValidationError):
            ConverterSpec(pcc_buses=("a", "a"), s_total=1.0)
        with pytest.raises(ValidationError):
            ConverterSpec(pcc_buses=("a", "b"), s_total=0.0)
        with pytest.raises(ValidationError):
            ConverterSpec(pcc_buses=("a", "b"), s_total=1.0, k=-0.1)

    def test_timestep_invariants(self):
        with pytest.raises(ValidationError):
            TimestepInput(v_min=1.1, v_max=0.9)
        with pytest.raises(ValidationError):
            TimestepInput(v_min=0.9, v_max=1.1, cardinality_limit=-1)
        with pytest.raises(ValidationError):
            TimestepInput(v_min=0.9, v_max=1.1, cardinality_limit=True)

    def test_grid_converter_mismatch(self, grid5):
        conv = ConverterSpec(pcc_buses=("bus_5", "bus_3"), s_total=0.4)
        ts = TimestepInput(v_min=0.9, v_max=1.1)
        with pytest.raises(ValidationError, match="do not match"):
            build_timestep_program(grid5, conv, ts)


def assert_numbers_exact(ir, doc):
    """Every number of ``ir`` reads back bit-for-bit from its JSON document."""
    expected = (
        [(r.coeffs, r.rhs) for r in ir.equalities + ir.inequalities],
        [[(e.coeffs, e.const) for e in c.tail] for c in ir.soc_cones],
        (ir.objective.coeffs, ir.objective.const),
        ir.big_m,
        ir.loss_model,
        ir.cardinality,
        ir.converter,
    )
    got = (
        [(r["coeffs"], r["rhs"]) for r in doc["equalities"] + doc["inequalities"]],
        [[(e["coeffs"], e["const"]) for e in c["tail"]] for c in doc["soc_cones"]],
        (doc["objective"]["coeffs"], doc["objective"]["const"]),
        doc["big_m"],
        doc["loss_model"],
        doc["cardinality"],
        doc["converter"],
    )
    # repr tells -0.0 from 0.0 and 1 from 1.0, which == does not
    assert repr(got) == repr(expected)


class TestSerialization:
    def test_round_trip_identity(self, grid5):
        for card in (UNCONSTRAINED, 0, 2):
            ir = instance5(grid5, cardinality=card, p_der=0.1)
            assert_numbers_exact(ir, json.loads(serialize_ir(ir)))

    def test_golden_file_m2(self, grid5):
        golden = Path(__file__).parent / "data" / "ir_m2_golden.json"
        ir = instance5(grid5, cardinality=1)
        assert serialize_ir(ir) + "\n" == golden.read_text()

    @given(
        coeffs=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            max_size=3,
        ),
        rhs=st.floats(allow_nan=False, allow_infinity=False, width=64),
        const=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_round_trip_random_rows(self, coeffs, rhs, const):
        ir = ConicProgramIR(
            variables=("a", "b", "c", "t"),
            equalities=(Row(dict(coeffs), rhs, tag="r"),),
            inequalities=(Row(dict(coeffs), rhs),),
            soc_cones=(Cone(head="t", tail=(AffExpr(dict(coeffs), const),)),),
            binaries=(),
            objective=AffExpr({"t": 1.0}, const),
            converter={"k": rhs, "s_total": const, "p_der": rhs},
        )
        assert_numbers_exact(ir, json.loads(serialize_ir(ir)))


class TestIrInvariants:
    def test_unknown_variable_rejected(self):
        with pytest.raises(ValidationError, match="unknown variable 'y' in equalities"):
            ConicProgramIR(
                variables=("x",),
                equalities=(Row({"y": 1.0}, 0.0),),
                inequalities=(),
                soc_cones=(),
                binaries=(),
                objective=AffExpr({"x": 1.0}),
            ).validate()

    def test_bad_indicator_rejected(self, grid5):
        ir = instance5(grid5, cardinality=1)
        for indicators, match in (
            ({"S_c[1]": "S_c[1]"}, "not a binary"),
            ({"z[1]": "S_c[9]"}, "unknown variable"),
        ):
            bad = replace(ir, cardinality={"indicators": indicators, "budget": 1})
            with pytest.raises(ValidationError, match=match):
                bad.validate()

    def test_duplicate_cone_head_rejected(self):
        cone = Cone(head="t", tail=(AffExpr({"x": 1.0}),))
        with pytest.raises(ValidationError, match="more than one cone"):
            ConicProgramIR(
                variables=("x", "t"),
                equalities=(),
                inequalities=(),
                soc_cones=(cone, cone),
                binaries=(),
                objective=AffExpr({"t": 1.0}),
            ).validate()

    def test_binary_in_objective_rejected(self):
        with pytest.raises(ValidationError, match="objective"):
            ConicProgramIR(
                variables=("z", "x", "t"),
                equalities=(),
                inequalities=(Row({"z": 1.0}, 1.0),),
                soc_cones=(Cone(head="t", tail=(AffExpr({"x": 1.0}),)),),
                binaries=("z",),
                objective=AffExpr({"z": 1.0, "t": 1.0}),
            ).validate()
