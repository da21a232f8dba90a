"""Workload definitions: the run-config documents of one benchmark run.

Each workload starts from a shipped fixture config and changes only the
horizon, the cardinality levels, the seed and the output directory.  The
program sees nothing but the resulting config documents.
"""

from __future__ import annotations

import json
from pathlib import Path

FIXTURES = Path("src") / "mopsched" / "fixtures"
SEED_STRIDE = 1000

# name -> (fixture config, overrides, horizons per run).  Why each exists is
# in README.md.
WORKLOADS = {
    # The paper's headline case: 96 steps x {n=2, unconstrained}, m=4.  Its
    # branch-and-bound work moves by up to +-15 % between seeds, so a run
    # times three seeds' horizons and reports their mean.
    "ieee33_card2": ("config_ieee33.json", {}, 3),
    # no binaries: one build and one solve per timestep, 7 days = 336 steps
    "ieee33_unconstrained": (
        "config_ieee33.json",
        {"cardinality": ["unconstrained"], "synthetic": {"days": 7, "steps_per_day": 48}},
        1,
    ),
    # tiny dense systems (KKT 9-48), dc-link solar DER, 4 days = 192 steps
    "5bus_der": ("config_5bus.json", {"synthetic": {"days": 4, "steps_per_day": 48}}, 1),
}


def config_docs(root, name, seed, workdir):
    """The run-config documents of one run of workload ``name``.

    The workload seed ``seed`` and, for workloads with several horizons per
    run, ``seed + 1000``, ``seed + 2000``, ... become the configs' seeds.
    Each horizon writes to its own directory under ``workdir``.
    """
    fixture, overrides, count = WORKLOADS[name]
    base = json.loads((Path(root) / FIXTURES / fixture).read_text())
    base.update(overrides)
    docs = []
    for k in range(count):
        config_seed = int(seed) + SEED_STRIDE * k
        doc = dict(base, seed=config_seed, jobs=1)
        doc["output_dir"] = str(Path(workdir) / f"seed{config_seed}")
        docs.append(doc)
    return docs


def warmup_doc(doc, output_dir):
    """An eight-step copy of ``doc``: fills lazy imports and code paths untimed."""
    small = dict(doc)
    small["synthetic"] = {"days": 1, "steps_per_day": 8}
    small["output_dir"] = str(output_dir)
    return small

