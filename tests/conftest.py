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
    """Make ``solve_misocp`` raise ``exc`` for the timesteps where ``when(t, ir)`` holds.

    The timestep is read where the horizon builds its input, so the rule holds
    in whichever process solves that timestep.
    """
    from mopsched import mission

    current = []
    timestep_input = mission._timestep_input
    solve = mission._mip.solve_misocp

    def recording(grid, horizon, t, p_der):
        current.append(t)
        return timestep_input(grid, horizon, t, p_der)

    def failing(ir, *args, **kwargs):
        if when(current[-1], ir):
            raise exc
        return solve(ir, *args, **kwargs)

    monkeypatch.setattr(mission, "_timestep_input", recording)
    monkeypatch.setattr(mission._mip, "solve_misocp", failing)
