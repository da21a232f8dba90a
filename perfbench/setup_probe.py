"""Set-up cost of a fresh process, printed as one JSON line.

Usage: python3 perfbench/setup_probe.py <repo root> <run-config JSON>

Times ``import mopsched.cli`` and then ``load_config``, the network load,
the profiles and ``grid.linearize``: what every ``mopsched run`` pays
before its first timestep.  Then runs the speed probe's calibration kernel,
so the caller can scale the time to the reference speed (``speed.py``).
"""

import json
import sys
import time

CALIBRATION_RUNS = 50

t0 = time.perf_counter()
sys.path.insert(0, f"{sys.argv[1]}/src")
from mopsched import cli  # noqa: E402

t1 = time.perf_counter()
cfg = cli.load_config(json.loads(sys.argv[2]))
net = cli._load_network(cfg)
cli._load_profiles(cfg)
cli._grid.linearize(net, cfg.pcc_buses)
t2 = time.perf_counter()

import speed  # noqa: E402  (imported after the timed region)

kernel_s = speed.SpeedProbe().calibrate(CALIBRATION_RUNS)
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "kernel_s": kernel_s}))
