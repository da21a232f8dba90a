import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from mopsched import grid as G
from mopsched.program import ConverterSpec, TimestepInput, build_timestep_program

PCC33 = ["bus_18", "bus_22", "bus_25", "bus_33"]
PCC5 = ["bus_3", "bus_5"]


def fixture_text(name):
    return resources.files("mopsched").joinpath("fixtures", name).read_text()


@pytest.fixture(scope="session")
def net2():
    return G.two_bus_network()


@pytest.fixture(scope="session")
def net5():
    return G.network_from_json(json.loads(fixture_text("network_5bus.json")))


@pytest.fixture(scope="session")
def net33():
    return G.network_from_json(json.loads(fixture_text("network_ieee33.json")))


def singular_load_block_network():
    """Slack s and load buses a, b.  The s-a branch's charging cancels its
    series admittance at a (y = -1j, half the shunt = +1j), and a has no
    other branch, so YLL's row of a is exactly zero."""
    return G.BusNetwork(
        buses=(G.Bus("s", "slack"), G.Bus("a", "load"), G.Bus("b", "load")),
        branches=(G.Branch("s", "a", 0.0, 1.0, 2.0), G.Branch("s", "b", 0.01, 0.1)),
    )


@pytest.fixture(scope="session")
def grid5(net5):
    return G.linearize(net5, PCC5)


@pytest.fixture(scope="session")
def grid33(net33):
    return G.linearize(net33, PCC33)


@pytest.fixture(scope="session")
def conv5():
    return ConverterSpec(pcc_buses=tuple(PCC5), s_total=0.4, k=0.01)


@pytest.fixture(scope="session")
def conv33():
    return ConverterSpec(pcc_buses=tuple(PCC33), s_total=0.75, k=0.01)


# A moderately asymmetric operating point on the 5-bus feeder pair: heavy
# demand on feeder A, generation at the end of feeder B, so transferring
# power through the converter pays for itself.
BG5 = {
    "bus_2": -(0.20 + 0.10j),
    "bus_3": -(0.25 + 0.12j),
    "bus_4": -(0.05 + 0.02j),
    "bus_5": 0.15 + 0.0j,
}


def ieee33_background(rng=None, scale=1.0):
    """Fixture-shaped background demand for single-timestep instances."""
    loads = json.loads(fixture_text("config_ieee33.json"))["loads"]
    bg = {}
    for entry in loads:
        if entry["profile"] in ("wind", "solar"):
            continue
        bg[entry["bus"]] = -scale * (entry["peak_kw"] + 1j * entry["peak_kvar"]) / 1000.0
    if rng is not None:
        for bus in bg:
            bg[bus] *= rng.uniform(0.3, 1.0)
    return bg


@pytest.fixture(scope="session")
def bg33():
    return ieee33_background()


def instance5(grid5, conv=None, cardinality="unconstrained", p_der=0.0, v=(0.9, 1.1), bg=BG5):
    conv = conv or ConverterSpec(
        pcc_buses=tuple(PCC5), s_total=0.4, k=0.01, has_dc_der=(p_der != 0.0)
    )
    ts = TimestepInput(
        v_min=v[0],
        v_max=v[1],
        background_injections=bg,
        p_der=p_der,
        cardinality_limit=cardinality,
    )
    return build_timestep_program(grid5, conv, ts)


def instance33(grid33, conv33, bg, cardinality="unconstrained", v=(0.90, 1.06)):
    ts = TimestepInput(
        v_min=v[0], v_max=v[1], background_injections=bg, cardinality_limit=cardinality
    )
    return build_timestep_program(grid33, conv33, ts)


def random_pcc_injection(rng, m, s_total):
    """Stacked [P, Q] with total leg apparent power on the capacity boundary."""
    x = rng.standard_normal(2 * m)
    legs = np.hypot(x[:m], x[m:])
    return s_total * rng.uniform(0.2, 1.0) * x / legs.sum()


def fail_solve_when(monkeypatch, when, exc):
    """Make the solve of each timestep where ``when(t, program)`` holds fail with ``exc``.

    The failure comes from the timestep's branch-and-bound search, the
    per-timestep entry point of ``mip.solve_misocp_many``: a MopschedError
    ends the search as an ``error`` MipSolution with its message, as a
    failed solve does, and any other exception is raised.  Each program is
    paired with its timestep where the horizon makes them, from the
    ``steps`` of ``mission._timestep_programs(grid, conv, horizon, steps)``,
    so the rule holds in whichever process solves that timestep.
    """
    from mopsched import mission
    from mopsched.errors import MopschedError

    timestep_of = {}  # id of a program the horizon made -> its timestep
    programs = mission._timestep_programs
    search = mission._mip._branch_and_bound

    def recording(grid, conv, horizon, steps):
        for t, program in zip(steps, programs(grid, conv, horizon, steps)):
            timestep_of[id(program)] = t
            yield program

    def failing(program, *args, **kwargs):
        t = timestep_of.get(id(program))  # None for a program the horizon did not make
        if t is not None and when(t, program):
            if isinstance(exc, MopschedError):
                return mission._mip.MipSolution("error", None, None, None, None, None, 0, {}, [], str(exc))
            raise exc
        return (yield from search(program, *args, **kwargs))

    monkeypatch.setattr(mission, "_timestep_programs", recording)
    monkeypatch.setattr(mission._mip, "_branch_and_bound", failing)


def same_value(a, b):
    """``a`` and ``b`` are equal to the last bit: numbers by ==, NaN equal to NaN, arrays elementwise."""
    if isinstance(a, dict) or isinstance(b, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_value, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        return True
    return a == b


def assert_same_solution(got, want):
    """Two ConicSolutions, or two MipSolutions, agree in every field to the last bit."""
    assert type(got) is type(want)
    for name in (f.name for f in dataclasses.fields(want)):
        value, other = getattr(want, name), getattr(got, name)
        if name == "incumbent" and value is not None:
            assert_same_solution(other, value)
        else:
            assert same_value(other, value), name
