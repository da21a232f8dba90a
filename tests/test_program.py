"""Timestep program assembly: structure, counts, big-M, serialization."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from mopsched import grid as G
from mopsched import mip
from mopsched import solver as S
from mopsched.errors import ValidationError
from mopsched.program import (
    UNCONSTRAINED,
    AffExpr,
    Cone,
    ConicProgramIR,
    ConverterSpec,
    ProgramTemplate,
    Row,
    StandardForm,
    TimestepInput,
    TimestepProgram,
    big_m_value,
    build_timestep_program,
    serialize_ir,
)

from conftest import BG5, PCC5, assert_same_solution, instance5, instance33


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
            data_rows=full.data_rows,
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

    @pytest.mark.parametrize(
        "fields, name",
        [
            (dict(v_min=math.nan), "v_min"),
            (dict(v_max=math.inf), "v_max"),
            (dict(p_der=math.nan), "p_der"),
            (dict(background_injections={"bus_2": complex(math.nan, 0.0)}), "at bus_2"),
            (dict(background_injections={"bus_3": complex(-0.1, math.inf)}), "at bus_3"),
            (dict(background_injections=np.array([0.1, -math.inf, 0.0, 0.0])), "background"),
        ],
    )
    def test_non_finite_timestep_data_rejected(self, fields, name):
        with pytest.raises(ValidationError, match=f"non-finite timestep data: .*{name}"):
            TimestepInput(**{"v_min": 0.9, "v_max": 1.1, **fields})

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


def constant_tail_ir():
    """min t + 2  s.t.  x + 2y = 3,  -x <= 0.5,  t >= ||(3, x - y + 0.25)||."""
    return ConicProgramIR(
        variables=("x", "t", "y"),
        equalities=(Row({"y": 2.0, "x": 1.0}, 3.0),),
        inequalities=(Row({"x": -1.0}, 0.5),),
        soc_cones=(Cone(head="t", tail=(AffExpr({}, 3.0), AffExpr({"x": 1.0, "y": -1.0}, 0.25))),),
        binaries=(),
        objective=AffExpr({"t": 1.0}, 2.0),
    ).validate()


def dict_slacks(ir, x):
    """What the dict IR gives at the point ``x`` (a name -> value dict): the
    rows of A x - b, the rows of s = h - G x, and c'x + c0."""

    def value(coeffs):
        return sum(cf * x[v] for v, cf in coeffs.items())

    eq = [value(r.coeffs) - r.rhs for r in ir.equalities]
    s = [r.rhs - value(r.coeffs) for r in ir.inequalities]
    for z in ir.binaries:
        s += [1.0 - x[z], x[z]]
    for cone in ir.soc_cones:
        s += [x[cone.head]] + [value(e.coeffs) + e.const for e in cone.tail]
    return eq, s, value(ir.objective.coeffs) + ir.objective.const


class TestStandardForm:
    @pytest.fixture
    def programs(self, grid5, grid33, conv33, bg33):
        return [
            instance33(grid33, conv33, bg33, cardinality=2),
            instance5(grid5, cardinality=1, p_der=0.12),
            constant_tail_ir(),
        ]

    def test_rows_match_the_ir(self, programs):
        rng = np.random.default_rng(11)
        for ir in programs:
            sf = ir.standard_form
            # the values live only in the stacked matrix M and right-hand side
            assert np.array_equal(sf.M, np.vstack([sf.A, sf.G]))
            assert np.array_equal(sf.rhs, np.concatenate([sf.b, sf.h]))
            assert sf.A.base is sf.M and sf.G.base is sf.M
            x = rng.standard_normal(len(ir.variables))
            eq, s, obj = dict_slacks(ir, dict(zip(ir.variables, x)))
            assert np.allclose(sf.A @ x - sf.b, eq, rtol=1e-13, atol=1e-13)
            assert np.allclose(sf.h - sf.G @ x, s, rtol=1e-13, atol=1e-13)
            assert sf.c @ x + sf.c0 == pytest.approx(obj, rel=1e-13, abs=1e-13)

    def test_cone_layout(self, programs):
        for ir in programs:
            sf = ir.standard_form
            sizes = tuple(1 + len(cone.tail) for cone in ir.soc_cones)
            assert sf.dims == (len(ir.inequalities) + 2 * len(ir.binaries), sizes)
            assert sf.G.shape == (sf.dims[0] + sum(sizes), len(ir.variables))
            for cone, start, head in zip(ir.soc_cones, sf.starts, sf.heads):
                assert ir.variables[head] == cone.head
                assert sf.G[start, head] == -1.0 and sf.h[start] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "where", ["equality_coefficient", "inequality_rhs", "cone_tail_constant", "objective_coefficient"]
    )
    def test_non_finite_data_rejected(self, where, bad):
        ir = constant_tail_ir()
        tail = ir.soc_cones[0].tail
        changed = {
            "equality_coefficient": dict(equalities=(Row({"y": bad, "x": 1.0}, 3.0),)),
            "inequality_rhs": dict(inequalities=(Row({"x": -1.0}, bad),)),
            "cone_tail_constant": dict(soc_cones=(Cone(head="t", tail=(AffExpr({}, bad), tail[1])),)),
            "objective_coefficient": dict(objective=AffExpr({"t": bad}, 2.0)),
        }[where]
        with pytest.raises(ValidationError, match="non-finite coefficient or right-hand side"):
            replace(ir, **changed).validate().standard_form

    def test_arrays_are_read_only(self, programs):
        sf = programs[0].standard_form
        for a in (sf.c, sf.M, sf.rhs, sf.A, sf.b, sf.G, sf.h):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_compiled_once_per_program(self, grid33, conv33, bg33, monkeypatch):
        ir = instance33(grid33, conv33, bg33, cardinality=2)
        compiled = []
        compile_ = StandardForm.__init__

        def counting(form, program):
            compiled.append(program)
            compile_(form, program)

        monkeypatch.setattr(StandardForm, "__init__", counting)
        ms = mip.solve_misocp(ir)
        # the root, at least one more node and the verification solve
        assert ms.status == "optimal" and ms.nodes_explored >= 2
        assert len(compiled) == 1 and compiled[0] is ir
        again = replace(ir, objective=AffExpr(dict(ir.objective.coeffs), 1.0))
        assert again.standard_form is not ir.standard_form
        assert again.standard_form.c0 == 1.0 and ir.standard_form.c0 == 0.0
        assert len(compiled) == 2 and compiled[1] is again


def form_bytes(program):
    """The standard form's c, M and rhs, to the last bit."""
    sf = program.standard_form
    return [(a.shape, a.tobytes()) for a in (sf.c, sf.M, sf.rhs)]


def records(program):
    return (
        program.variables,
        program.binaries,
        program.cardinality,
        program.big_m,
        program.loss_model,
    )


class TestProgramTemplate:
    """A level's timesteps, the first included, re-valued from its first
    timestep's form carry the bits a full compile of each gives."""

    @staticmethod
    def level(config, level, monitored=None):
        from mopsched import cli

        cfg = replace(cli.load_config(config), days=2, steps_per_day=48, monitored_buses=monitored)
        _, grid, conv, horizon = cli._build_setup(cfg)
        return grid, conv, horizon(level)

    @pytest.mark.parametrize(
        "config, level, monitored",
        [
            ("ieee33", 2, None),
            ("ieee33", UNCONSTRAINED, None),
            ("ieee33", 2, ["bus_6", "bus_18", "bus_25", "bus_33"]),
            ("ieee33", UNCONSTRAINED, ["bus_6", "bus_18", "bus_25", "bus_33"]),
            ("5bus", 1, None),
            ("5bus", UNCONSTRAINED, None),
        ],
    )
    def test_every_timestep_matches_its_full_compile(self, config, level, monitored, monkeypatch):
        from mopsched import mission

        grid, conv, hz = self.level(config, level, monitored)
        assert hz.tau == 96 and conv.has_dc_der == (config == "5bus")
        full = []
        build = mission.build_timestep_program
        monkeypatch.setattr(mission, "build_timestep_program", lambda *a: full.append(build(*a)) or full[-1])
        programs = list(mission._timestep_programs(grid, conv, hz, range(hz.tau)))
        assert len(full) == 1 and len(programs) == 96
        compiled = full[0].standard_form  # the template's form
        for t, program in enumerate(programs):
            ir = mission._timestep_program(grid, conv, hz, t)
            assert form_bytes(program) == form_bytes(ir), t
            assert records(program) == records(ir), t
            sf = program.standard_form
            assert isinstance(program, TimestepProgram)
            assert sf.c is compiled.c and sf.columns is compiled.columns
            assert sf.M is not compiled.M and sf.A.base is sf.M

    @pytest.mark.parametrize(
        "load, zero_lam",
        [((1.0, 0.0, 0.7), [False, True, False]), ((0.0, 1.0, 0.7), [True, False, False])],
        ids=["zero_later", "zero_first"],
    )
    def test_a_changed_zero_loss_entry_is_re_valued(self, grid5, conv5, load, zero_lam, monkeypatch):
        """A loss-gradient entry that is exactly 0 where its loads are off (the
        grid's own gradient is 0 there) and nonzero elsewhere: every
        timestep is re-valued from the first one's compile, whichever of them
        is 0, with a full compile's bits, and solves as its full compile does
        when presolve substitutes that entry's variable through the loss rows."""
        from mopsched import mission

        lam = grid5.full_lam.copy()
        lam[grid5._pcc_cols()[0]] = 0.0
        grid = replace(grid5, full_lam=lam)
        hz = mission.HorizonInput(
            profiles={"load": np.array(load)},
            loads=[mission.LoadSpec("bus_2", "load", 180.0, 90.0)],
            timestep_hours=0.5,
            v_min=0.9,
            v_max=1.1,
            cardinality_limit=1,
        )
        full = []
        build = mission.build_timestep_program
        monkeypatch.setattr(mission, "build_timestep_program", lambda *a: full.append(a[2]) or build(*a))
        programs = list(mission._timestep_programs(grid, conv5, hz, range(3)))
        assert len(full) == 1 and full[0].background_injections["bus_2"] == -(0.18 + 0.09j) * load[0]
        assert [type(program) for program in programs] == [TimestepProgram] * 3
        assert [program.loss_model["lam"][0] == 0.0 for program in programs] == zero_lam
        for t, program in enumerate(programs):
            ir = mission._timestep_program(grid, conv5, hz, t)
            assert form_bytes(program) == form_bytes(ir), t
            # leg 1 off zeroes its cone, so presolve fixes P_c[1], the x
            # variable whose loss entry changes, and substitutes it
            fixings = {"z[1]": 0.0}
            assert_same_solution(S.solve_socp(program, fixings), S.solve_socp(ir, fixings))
        with pytest.raises(ValidationError, match="no dc-link DER"):
            ProgramTemplate(grid, build(grid, conv5, full[0])).program(replace(full[0], p_der=0.1))
