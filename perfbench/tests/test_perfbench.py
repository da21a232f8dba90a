"""Self-tests for the benchmark's own code; none of them runs the program.

Run with: python3 -m pytest -q perfbench/tests
"""

import types

import pytest

import checks
import tracing
from tracing import Span


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, None, None)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, parent=0),
        _span("b", 2.0, 5.0, parent=0),  # overlaps a: union is [1, 5]
        _span("c", 7.0, 8.0, parent=0),
        _span("a.child", 1.5, 2.5, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the parent at 10
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 1), (1, 2), (4, 6), (5, 5.5)]) == pytest.approx(4.0)


def _mission_csv(path, statuses):
    lines = ["t,P_c_1,Q_c_1,S_c_1,EC,status,obj,ntwk_loss,conv_loss"]
    for t, status in enumerate(statuses):
        lines.append(f"{t},0.0,0.0,0.0,0,{status},1.0,1.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_failure_counter_counts_every_non_optimal_status(tmp_path):
    a = _mission_csv(tmp_path / "a.csv", ["optimal", "error", "gap_reached", "node_limit"])
    b = _mission_csv(tmp_path / "b.csv", ["infeasible", "optimal", "error"])
    attempted, failed, kinds = checks.count_timesteps([a, b])
    assert (attempted, failed) == (7, 4)
    assert kinds == {"error": 2, "node_limit": 1, "infeasible": 1}


BNB = types.SimpleNamespace(rel_gap=1e-4, abs_gap=1e-5)
REF = {
    "n2": {"total_loss_kwh": 1000.0, "loss_reduction_kwh": 200.0, "mec": 2,
           "ec_histogram": {"0": 1, "1": 0, "2": 3}},
    "unconstrained": {"total_loss_kwh": 900.0, "loss_reduction_kwh": 300.0, "mec": 3,
                      "ec_histogram": {"0": 0, "1": 0, "2": 1, "3": 3}},
}


def _copy(ref):
    return {label: {k: (dict(v) if isinstance(v, dict) else v) for k, v in rec.items()}
            for label, rec in ref.items()}


def _compare(got):
    return checks.compare_reference(got, REF, BNB, tau=4, dt=0.5, s_base_kva=1000.0)


def test_gate_accepts_the_reference_and_last_bit_drift():
    got = _copy(REF)
    assert _compare(got) == []
    got["unconstrained"]["total_loss_kwh"] *= 1 + 5e-11
    got["n2"]["loss_reduction_kwh"] += 0.05  # inside the MIP gap allowance
    assert _compare(got) == []


@pytest.mark.parametrize(
    "label,key,value",
    [
        ("unconstrained", "total_loss_kwh", 900.0 * (1 + 1e-6)),
        ("unconstrained", "loss_reduction_kwh", 300.001),
        ("n2", "total_loss_kwh", 1000.5),
        ("n2", "mec", 3),
        ("n2", "ec_histogram", {"0": 2, "1": 0, "2": 2}),
    ],
)
def test_gate_rejects_a_perturbed_result(label, key, value):
    got = _copy(REF)
    got[label][key] = value
    problems = _compare(got)
    assert len(problems) == 1 and problems[0].startswith(f"{label}.{key}")


def test_gate_rejects_missing_levels():
    got = _copy(REF)
    del got["n2"]
    assert _compare(got)


def _fake_modules():
    horizon = types.SimpleNamespace(cardinality_limit=2)
    mission = types.ModuleType("fake_mission")
    solver = types.ModuleType("fake_solver")
    mission.build_timestep_program = lambda: "ir"
    solver.solve = lambda: "sol"

    def schedule_horizon(grid, conv, hz):
        return [(mission.build_timestep_program(), solver.solve()) for _ in range(2)]

    mission.schedule_horizon = schedule_horizon
    targets = (
        ("mission", "build_timestep_program", "program.build_timestep_program", None),
        ("mission", "schedule_horizon", "mission.schedule_horizon", None),
        ("solver", "solve", "solver.solve", None),
    )
    return {"mission": mission, "solver": solver}, targets, horizon


def test_tracer_records_nesting_level_and_timestep_then_restores():
    modules, targets, horizon = _fake_modules()
    names = ("build_timestep_program", "schedule_horizon")
    originals = {name: getattr(modules["mission"], name) for name in names}
    tracer = tracing.Tracer(modules, targets)
    with tracer, tracer.span("cli.run"):
        modules["mission"].schedule_horizon(None, None, horizon)
    names = [s.name for s in tracer.spans]
    assert names == ["cli.run", "mission.schedule_horizon", "program.build_timestep_program",
                     "solver.solve", "program.build_timestep_program", "solver.solve"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 1, 1]
    assert [s.timestep for s in tracer.spans[2:]] == [0, 0, 1, 1]
    assert {s.level for s in tracer.spans[1:]} == {2}
    assert tracer.spans[0].level is None
    assert all(s.end >= s.start for s in tracer.spans)
    for name, fn in originals.items():
        assert getattr(modules["mission"], name) is fn


def test_tracer_raises_when_a_target_is_gone_and_leaves_modules_untouched():
    modules, targets, _ = _fake_modules()
    before = modules["mission"].schedule_horizon
    del modules["solver"].solve
    with pytest.raises(tracing.TraceTargetMissing, match="solve"):
        with tracing.Tracer(modules, targets):
            pass
    assert modules["mission"].schedule_horizon is before


def test_speed_probe_scales_to_the_reference_speed_and_restores_the_handler(monkeypatch):
    import signal
    import time

    import speed

    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    probe = speed.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.samples
    probe.samples = [2 * speed.REFERENCE_KERNEL_S] * 4  # running at half speed
    assert probe.scaled(10.0) == pytest.approx((10.0 - 8 * speed.REFERENCE_KERNEL_S) / 2)
    assert speed.scale(10.0, 2 * speed.REFERENCE_KERNEL_S) == pytest.approx(5.0)


def test_layer_metrics_classifies_solves_and_scales_times():
    def span(name, start, end, parent, **attrs):
        s = Span(name, start, end, parent, None, None)
        s.attrs.update(attrs)
        return s

    socp = dict(iterations=10, status="optimal")
    spans = [
        span("mission.schedule_horizon", 0.0, 10.0, -1),
        span("program.build_timestep_program", 0.0, 1.0, 0),
        span("mip.solve_misocp", 1.0, 6.0, 0, binaries=True, nodes=2, status="gap_reached"),
        span("solver.solve_socp", 1.0, 2.0, 2, fixed=False, **socp),
        span("solver.solve_socp", 2.0, 3.0, 2, fixed=False, **socp),
        span("solver.solve_socp", 3.0, 5.0, 2, fixed=True, **socp),
        span("solver.solve_conelp", 3.5, 4.5, 5, kkt_dim=30),
        span("program.build_timestep_program", 6.0, 7.0, 0),
        span("mip.solve_misocp", 7.0, 9.0, 0, binaries=False, nodes=1, status="optimal"),
        span("solver.solve_socp", 7.0, 8.0, 8, fixed=False, iterations=4,
             status="numerical_failure"),
    ]
    m = tracing.layer_metrics(spans, scale=2.0)
    assert (m["mip.node_relaxations"], m["mip.verify_solves"], m["mip.direct_solves"]) == (2, 1, 1)
    solves = (m["solver.socp_solves"], m["solver.ipm_iters"], m["solver.numerical_failures"])
    assert solves == (4, 34, 1)
    assert m["solver.useful_solve_frac"] == pytest.approx(0.75)
    assert m["program.builds"] == 2 and m["program.build_s"] == pytest.approx(4.0)
    assert m["solver.ipm_s"] == pytest.approx(2.0)
    assert m["solver.socp_self_s"] == pytest.approx(2 * (1 + 1 + 1 + 1))
    assert m["mip.bnb_self_s"] == pytest.approx(2 * (1 + 1))
    assert m["mission.self_s"] == pytest.approx(2 * (10 - 1 - 5 - 1 - 2))
    assert m["mip.gap_reached"] == 1 and m["mip.nodes_per_timestep_max"] == 2
    assert m["mission.timestep_ms_p50"] == pytest.approx(2 * 3.5e3)


def test_a_raising_misocp_is_traced_and_counted():
    """mip.solve_misocp raises on a failed solve; its span still carries attrs."""
    mip = types.ModuleType("fake_mip")
    solver = types.ModuleType("fake_solver")
    failed = types.SimpleNamespace(iterations=7, status="numerical_failure")
    solver.solve_socp = lambda ir, fixings=None: failed

    def solve_misocp(ir):
        solver.solve_socp(ir, {0: 1})
        raise RuntimeError("incumbent re-verification failed")

    mip.solve_misocp = solve_misocp
    targets = [t for t in tracing.TARGETS if t[1] in ("solve_socp", "solve_misocp")]
    tracer = tracing.Tracer({"mip": mip, "solver": solver}, targets)
    with tracer, pytest.raises(RuntimeError):
        mip.solve_misocp(types.SimpleNamespace(binaries=[3]))
    assert mip.solve_misocp is solve_misocp
    misocp = tracer.spans[0]
    assert misocp.attrs == {"binaries": True, "nodes": 0, "status": "error"}
    m = tracing.layer_metrics(tracer.spans)
    assert (m["mip.verify_solves"], m["solver.ipm_iters"], m["solver.numerical_failures"]) == (
        1, 7, 1)
    assert m["mip.nodes_per_timestep_max"] == 0 and m["mip.gap_reached"] == 0
