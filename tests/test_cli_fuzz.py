"""Fuzzed inputs: one value of a config, network or profiles document replaced.

Whatever the value, ``mopsched run`` either succeeds or reports an input
error: exit 0 or 2, never a traceback.
"""

import copy
import csv
import json
import math
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mopsched import cli
from mopsched.profiles import synthetic_profiles

# the 5-bus fixture cut to 2 timesteps: every example solves in well under a second
CONFIG = dict(
    json.loads(cli._fixture_path("config_5bus.json").read_text()),
    network="network.json",
    synthetic={"days": 1, "steps_per_day": 2},
    output_dir="out",
)
NETWORK = json.loads(cli._fixture_path("network_5bus.json").read_text())
_profiles = synthetic_profiles(days=1, steps_per_day=2, seed=CONFIG["seed"])
PROFILES = [["timestep", *_profiles]] + [
    [str(t), *(f"{series[t]:.10g}" for series in _profiles.values())] for t in range(2)
]

# small numbers only: a replaced count must keep the horizon tiny
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3, 3) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.just([]),
    st.just({}),
)


def _paths(node, prefix=()):
    """The path to every value below ``node``, containers included."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _cell(value):
    """``value`` as the text of a CSV cell."""
    return value if isinstance(value, str) else json.dumps(value)


DOCUMENTS = {"config": CONFIG, "network": NETWORK, "profiles": PROFILES}
PATHS = {
    "config": list(_paths(CONFIG)),
    "network": list(_paths(NETWORK)),
    "profiles": [path for path in _paths(PROFILES) if len(path) == 2],  # cells, not rows
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_replaced_value_exits_0_or_2(data):
    target = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    path = data.draw(st.sampled_from(PATHS[target]), label="path")
    value = data.draw(VALUES, label="value")
    docs = dict(DOCUMENTS)
    docs[target] = _replaced(docs[target], path, _cell(value) if target == "profiles" else value)
    if target == "profiles":
        docs["config"] = dict(CONFIG, profiles="profiles.csv")
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("config.json").write_text(json.dumps(docs["config"]))
        Path("network.json").write_text(json.dumps(docs["network"]))
        with open("profiles.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(docs["profiles"])
        result = runner.invoke(cli.main, ["run", "--config", "config.json"])
    assert result.exit_code in (0, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
