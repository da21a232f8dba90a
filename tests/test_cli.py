"""Command-line behavior: artifacts, determinism, exit codes."""

import collections
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mopsched import __main__ as entry
from mopsched import cli, mission

from conftest import fail_solve_when


@pytest.fixture()
def small_config(tmp_path):
    """Trimmed 5-bus config: short horizon, both cardinality modes."""
    cfg = {
        "network": "5bus",
        "profiles": "synthetic",
        "synthetic": {"days": 1, "steps_per_day": 8},
        "seed": 11,
        "converter": {
            "pcc_buses": ["bus_3", "bus_5"],
            "s_total_kva": 400.0,
            "loss_coeff": 0.01,
            "dc_der": {"profile": "solar", "peak_kw": 150.0},
        },
        "loads": [
            {"bus": "bus_2", "profile": "residential_a", "peak_kw": 180.0, "peak_kvar": 90.0},
            {"bus": "bus_3", "profile": "commercial", "peak_kw": 140.0, "peak_kvar": 70.0},
            {"bus": "bus_4", "profile": "residential_b", "peak_kw": 220.0, "peak_kvar": 110.0},
            {"bus": "bus_5", "profile": "solar", "peak_kw": -250.0, "peak_kvar": 0.0},
        ],
        "voltage": {"v_min_pu": 0.95, "v_max_pu": 1.05, "monitored_buses": None},
        "cardinality": [1, "unconstrained"],
        "timestep_hours": 0.5,
        "mip": {"rel_gap": 1e-4, "abs_gap": 1e-5, "node_limit": 10000},
        "output_dir": str(tmp_path / "out"),
        "jobs": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _nan_branch_resistance(cfg, tmp_path):
    net = json.loads(cli._fixture_path("network_5bus.json").read_text())
    net["branches"][0]["r_pu"] = float("nan")
    path = tmp_path / "network.json"
    path.write_text(json.dumps(net))
    cfg["network"] = str(path)


def _nan_profile_cell(cfg, tmp_path):
    from mopsched import profiles as PR

    prof = PR.synthetic_profiles(days=1, steps_per_day=8, seed=4)
    prof["commercial"][3] = float("nan")
    path = tmp_path / "profiles.csv"
    PR.write_profiles_csv(path, prof)
    cfg["profiles"] = str(path)


NON_FINITE_INPUTS = {
    "network_r_pu": _nan_branch_resistance,
    "profiles_cell": _nan_profile_cell,
    "loss_coeff": lambda cfg, _: cfg["converter"].update(loss_coeff=float("nan")),
    "load_peak_kw": lambda cfg, _: cfg["loads"][0].update(peak_kw=float("nan")),
    "timestep_hours": lambda cfg, _: cfg.update(timestep_hours=float("nan")),
}

# case -> (edit of the config document, text the error must contain)
MALFORMED_ENTRIES = {
    "load_without_peak_kw": (lambda cfg: cfg["loads"][1].pop("peak_kw"), "load entry 1 has no 'peak_kw'"),
    "load_without_bus": (lambda cfg: cfg["loads"][0].pop("bus"), "load entry 0 has no 'bus'"),
    "load_without_profile": (lambda cfg: cfg["loads"][2].pop("profile"), "load entry 2 has no 'profile'"),
    "load_peak_not_number": (
        lambda cfg: cfg["loads"][0].update(peak_kvar="x"),
        "load entry 0 peak_kvar is not a number",
    ),
    "dc_der_without_profile": (
        lambda cfg: cfg["converter"]["dc_der"].pop("profile"),
        "converter dc_der has no 'profile'",
    ),
    "dc_der_without_peak_kw": (
        lambda cfg: cfg["converter"]["dc_der"].pop("peak_kw"),
        "converter dc_der has no 'peak_kw'",
    ),
    "load_profile_list": (lambda cfg: cfg["loads"][0].update(profile=[]), "unknown profile []"),
    "dc_der_profile_object": (
        lambda cfg: cfg["converter"]["dc_der"].update(profile={}),
        "DER references unknown profile {}",
    ),
}

# case -> (network key, value, text the error must contain)
OUT_OF_RANGE_NETWORKS = {
    "s_base_zero": ("s_base_kva", 0.0, "network base power must be finite and positive"),
    "s_base_tiny": ("s_base_kva", 1e-200, "pu of the network base"),
    "slack_voltage_zero": ("slack_voltage_pu", [0.0, 0.0], "slack voltage magnitude"),
    "slack_voltage_tiny": ("slack_voltage_pu", [1e-300, 0.0], "slack voltage magnitude"),
}

BAD_SETTINGS = {
    "node_limit_not_number": ("mip", "node_limit", "x"),
    "node_limit_fraction": ("mip", "node_limit", 2.5),
    "rel_gap_infinite": ("mip", "rel_gap", float("inf")),
    "abs_gap_zero": ("mip", "abs_gap", 0.0),
    "max_iter_not_number": ("solver", "max_iter", "x"),
    "feastol_negative": ("solver", "feastol", -1e-9),
    "gamma_above_one": ("solver", "gamma", 1.5),
    "refine_boolean": ("solver", "refine", True),
}


# case -> (edit of the config document, config key the error must name)
MALFORMED_SHAPES = {
    "voltage_list": (lambda cfg: cfg.update(voltage=[]), "voltage"),
    "synthetic_number": (lambda cfg: cfg.update(synthetic=5), "synthetic"),
    "network_number": (lambda cfg: cfg.update(network=5), "network"),
    "profiles_list": (lambda cfg: cfg.update(profiles=["synthetic"]), "profiles"),
    "output_dir_number": (lambda cfg: cfg.update(output_dir=5), "output_dir"),
    "monitored_buses_number": (
        lambda cfg: cfg["voltage"].update(monitored_buses=7),
        "monitored_buses",
    ),
}

# case -> (edit of the config document, extra flags, text the error must contain)
BAD_COUNTS = {
    "days_fraction": (lambda cfg: cfg["synthetic"].update(days=1.7), [], "synthetic days"),
    "steps_per_day_zero": (
        lambda cfg: cfg["synthetic"].update(steps_per_day=0),
        [],
        "synthetic steps_per_day",
    ),
    "seed_negative": (lambda cfg: cfg.update(seed=-1), [], "seed"),
    "seed_fraction": (lambda cfg: cfg.update(seed=2.5), [], "seed"),
    "seed_flag_negative": (lambda cfg: None, ["--seed", "-1"], "seed"),
}

# config key -> edit setting it in the config document
NUMBER_KEYS = {
    "s_total_kva": lambda cfg, v: cfg["converter"].update(s_total_kva=v),
    "loss_coeff": lambda cfg, v: cfg["converter"].update(loss_coeff=v),
    "v_min_pu": lambda cfg, v: cfg["voltage"].update(v_min_pu=v),
    "v_max_pu": lambda cfg, v: cfg["voltage"].update(v_max_pu=v),
    "timestep_hours": lambda cfg, v: cfg.update(timestep_hours=v),
}


def _write(path, data):
    path.write_bytes(data)
    return str(path)


def _run(tmp_path, *flags):
    """Arguments of ``mopsched run`` on the config file of ``small_config``."""
    return ["run", "--config", str(tmp_path / "config.json"), *flags]


def _bad_json_network(tmp_path, cfg):
    cfg["network"] = _write(tmp_path / "network.json", b"[1,")
    return _run(tmp_path)


def _non_utf8_profiles(tmp_path, cfg):
    cfg["profiles"] = _write(tmp_path / "profiles.csv", b"timestep,solar\n0,\xff\n")
    return _run(tmp_path)


def _repeated_level(tmp_path, cfg):
    cfg["cardinality"] = [1, "unconstrained", "unconstrained"]
    return _run(tmp_path)


def _repeated_profile_columns(tmp_path, cfg):
    # every column twice: read as one column each, they would make a 4-step
    # horizon of interleaved values from a 2-row file
    names = b"residential_a,residential_b,commercial,solar"
    rows = b"timestep," + names + b"," + names + b"\n0" + b",0.5" * 8 + b"\n1" + b",0.4" * 8 + b"\n"
    cfg["profiles"] = _write(tmp_path / "profiles.csv", rows)
    return _run(tmp_path)


# case -> the command-line arguments, given the test directory and the config
# document, which the case may edit before it is written
BAD_INPUTS = {
    "config_bad_json": lambda d, cfg: ["run", "--config", _write(d / "bad.json", b'{"network": ')],
    "config_not_utf8": lambda d, cfg: ["run", "--config", _write(d / "bad.json", b'{"network": "\xff"}')],
    "network_bad_json": _bad_json_network,
    "config_directory": lambda d, cfg: ["run", "--config", str(d)],
    "config_nested_too_deep": lambda d, cfg: ["run", "--config", _write(d / "bad.json", b"[" * 10**5)],
    "profiles_directory": lambda d, cfg: _run(d, "--profiles", str(d)),
    "profiles_not_utf8": _non_utf8_profiles,
    "ec_input_not_utf8": lambda d, cfg: [
        "ec", "--input", _write(d / "mission.csv", b"t,S_c_1\n0,\xff\n"), "--s-total", "400"
    ],
    "cardinality_token": lambda d, cfg: _run(d, "--cardinality", "1,x"),
    "cardinality_repeated": lambda d, cfg: _run(d, "--cardinality", "1,1"),
    "cardinality_repeated_config": _repeated_level,
    "profiles_repeated_column": _repeated_profile_columns,
}


class TestRun:
    def test_artifacts_and_totals(self, small_config):
        path, cfg = small_config
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        out = Path(cfg["output_dir"])
        for label in ("n1", "unconstrained"):
            assert (out / f"mission_{label}.csv").exists()
            assert (out / f"summary_{label}.json").exists()
            assert (out / f"powers_{label}.svg").exists()
            assert (out / f"ec_{label}.svg").exists()
            assert (out / f"ec_hist_{label}.svg").exists()
        assert (out / "loss_fraction_n1.svg").exists()
        assert (out / "summary.json").exists()

        rows = read_csv_columns(out / "mission_n1.csv")
        assert len(rows) == 8
        summary = json.loads((out / "summary_n1.json").read_text())
        csv_total = sum(float(r["obj"]) for r in rows) * 0.5
        assert abs(summary["total_loss_kwh"] - csv_total) < 1e-9
        assert summary["mec"] <= 1

    def test_byte_identical_reruns(self, small_config, tmp_path):
        path, cfg = small_config
        runner = CliRunner()
        outs = []
        for sub in ("a", "b"):
            outdir = tmp_path / sub
            r = runner.invoke(cli.main, ["run", "--config", str(path), "--out", str(outdir)])
            assert r.exit_code == 0, r.output
            outs.append(outdir)
        for f in sorted(outs[0].iterdir()):
            assert (outs[1] / f.name).read_bytes() == f.read_bytes()

    def test_unknown_bus_exits_2(self, small_config):
        path, cfg = small_config
        cfg["loads"][0]["bus"] = "bus_99"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2
        assert "bus_99" in result.output

    def test_empty_cardinality_warns_exit_0(self, small_config):
        path, cfg = small_config
        cfg["cardinality"] = []
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 0
        assert "warning" in result.output

    def test_missing_config_exits_2(self):
        result = CliRunner().invoke(cli.main, ["run", "--config", "nope.json"])
        assert result.exit_code == 2

    def test_missing_network_exits_2(self, small_config):
        path, cfg = small_config
        cfg["network"] = "missing_net.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2

    def test_unknown_monitored_bus_exits_2(self, small_config):
        path, cfg = small_config
        cfg["voltage"]["monitored_buses"] = ["bus_99"]
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2
        assert "bus_99" in result.output

    def test_boolean_cardinality_exits_2(self, small_config):
        path, cfg = small_config
        cfg["cardinality"] = [True]
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2
        assert not Path(cfg["output_dir"]).exists()

    def test_inverted_voltage_limits_exit_2(self, small_config):
        path, cfg = small_config
        result = CliRunner().invoke(
            cli.main, ["run", "--config", str(path), "--vmin", "1.06", "--vmax", "0.95"]
        )
        assert result.exit_code == 2
        assert "voltage limits must satisfy v_min < v_max" in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
    def test_non_finite_input_exits_2(self, small_config, tmp_path, case):
        path, cfg = small_config
        NON_FINITE_INPUTS[case](cfg, tmp_path)
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
    def test_malformed_entry_exits_2(self, small_config, case):
        path, cfg = small_config
        edit, message = MALFORMED_ENTRIES[case]
        edit(cfg)
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_bad_setting_exits_2(self, small_config, case):
        path, cfg = small_config
        section, key, value = BAD_SETTINGS[case]
        cfg.setdefault(section, {})[key] = value
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"{section} {key} must be" in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_NETWORKS))
    def test_out_of_range_network_exits_2(self, small_config, tmp_path, case):
        path, cfg = small_config
        key, value, message = OUT_OF_RANGE_NETWORKS[case]
        net = json.loads(cli._fixture_path("network_5bus.json").read_text())
        net[key] = value
        cfg["network"] = _write(tmp_path / "network.json", json.dumps(net).encode())
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_SHAPES))
    def test_malformed_shape_exits_2(self, small_config, tmp_path, monkeypatch, case):
        path, cfg = small_config
        edit, key = MALFORMED_SHAPES[case]
        edit(cfg)
        path.write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)  # a relative output directory would land here
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and key in result.output
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("section, key", [("mip", "rel_gapp"), ("solver", "max_iters")])
    def test_unknown_setting_exits_2(self, small_config, section, key):
        path, cfg = small_config
        cfg.setdefault(section, {})[key] = 0.5
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"unknown {section} settings ['{key}']" in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("case", sorted(BAD_COUNTS))
    def test_count_not_whole_exits_2(self, small_config, case):
        path, cfg = small_config
        edit, flags, name = BAD_COUNTS[case]
        edit(cfg)
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path), *flags])
        assert result.exit_code == 2, result.output
        assert f"{name} must be a whole number" in result.output
        assert not Path(cfg["output_dir"]).exists()

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("key", sorted(NUMBER_KEYS))
    def test_number_not_real_exits_2(self, small_config, key, value):
        path, cfg = small_config
        NUMBER_KEYS[key](cfg, value)
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert f"{key} must be a number, got {value!r}" in result.output
        assert not Path(cfg["output_dir"]).exists()

    def test_whole_and_zero_numbers_load(self, small_config):
        _, cfg = small_config
        NUMBER_KEYS["s_total_kva"](cfg, 400)
        NUMBER_KEYS["loss_coeff"](cfg, 0)
        loaded = cli.load_config(cfg)
        assert (loaded.s_total_kva, loaded.loss_coeff) == (400.0, 0.0)
        assert (loaded.v_min, loaded.v_max, loaded.timestep_hours) == (0.95, 1.05, 0.5)

    def test_huge_synthetic_horizon_exits_2(self, small_config, monkeypatch):
        path, cfg = small_config
        cfg["synthetic"] = {"days": 10**7, "steps_per_day": 48}
        path.write_text(json.dumps(cfg))

        def drawn(*args):
            raise AssertionError("profiles drawn for a refused horizon")

        monkeypatch.setattr(cli._profiles, "synthetic_profiles", drawn)
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "exceeds 1,000,000 timesteps" in result.output
        assert not Path(cfg["output_dir"]).exists()
        # an annual horizon at one-minute steps stays within the limit
        cli.load_config(dict(cfg, synthetic={"days": 365, "steps_per_day": 1440}))

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, small_config, tmp_path, case):
        path, cfg = small_config
        args = BAD_INPUTS[case](tmp_path, cfg)
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error:" in result.output
        assert not Path(cfg["output_dir"]).exists()

    def test_summary_reports_every_status(self, small_config, monkeypatch):
        path, cfg = small_config
        # timestep 2 of the n=1 level, the first level run
        fail_solve_when(
            monkeypatch, lambda t, ir: t == 2 and ir.binaries, cli.MopschedError("forced failure")
        )
        result = CliRunner().invoke(cli.main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        out = Path(cfg["output_dir"])
        summary = json.loads((out / "summary.json").read_text())
        for label, run in zip(("n1", "unconstrained"), summary["runs"]):
            statuses = [r["status"] for r in read_csv_columns(out / f"mission_{label}.csv")]
            assert run["status_counts"] == dict(collections.Counter(statuses))
            assert run["infeasible_timesteps"] == statuses.count("infeasible")
        assert summary["runs"][0]["status_counts"]["error"] == 1
        assert summary["runs"][0]["errors"] == {"2": "forced failure"}
        assert summary["runs"][1]["errors"] == {}

    def test_dump_ir_and_traces(self, small_config, tmp_path):
        path, cfg = small_config
        solver_trace = tmp_path / "ipm.csv"
        mip_trace = tmp_path / "nodes.csv"
        result = CliRunner().invoke(
            cli.main,
            [
                "run",
                "--config",
                str(path),
                "--dump-ir",
                "--solver-trace",
                str(solver_trace),
                "--mip-trace",
                str(mip_trace),
            ],
        )
        assert result.exit_code == 0, result.output
        out = Path(cfg["output_dir"])
        assert (out / "ir_n1.json").exists()
        assert (out / "ir_unconstrained.json").exists()
        assert solver_trace.read_text().startswith("iter,pcost,dcost,gap")
        assert mip_trace.read_text().startswith("node,bound")

    def test_cardinality_override(self, small_config):
        path, cfg = small_config
        result = CliRunner().invoke(
            cli.main,
            ["run", "--config", str(path), "--cardinality", "0"],
        )
        assert result.exit_code == 0, result.output
        out = Path(cfg["output_dir"])
        assert (out / "mission_n0.csv").exists()
        assert not (out / "mission_n1.csv").exists()

    def test_profiles_csv_ingestion(self, small_config, tmp_path):
        from mopsched import profiles as PR

        path, cfg = small_config
        prof_csv = tmp_path / "profiles.csv"
        PR.write_profiles_csv(prof_csv, PR.synthetic_profiles(days=1, steps_per_day=6, seed=4))
        result = CliRunner().invoke(
            cli.main,
            ["run", "--config", str(path), "--profiles", str(prof_csv), "--cardinality", "1"],
        )
        assert result.exit_code == 0, result.output
        rows = read_csv_columns(Path(cfg["output_dir"]) / "mission_n1.csv")
        assert len(rows) == 6


class TestLoadConfig:
    def test_unknown_keys_ignored(self, small_config):
        _, doc = small_config
        assert doc["jobs"] == 1  # a key older configs carry
        cfg = cli.load_config(doc)
        assert cfg.network == "5bus" and not hasattr(cfg, "jobs")


class TestVerify:
    def test_fixture_passes(self, tmp_path, monkeypatch):
        p_der = []
        build = mission.build_timestep_program

        def recording_build(lg, conv, ts):
            p_der.append(ts.p_der)
            return build(lg, conv, ts)

        monkeypatch.setattr(mission, "build_timestep_program", recording_build)
        result = CliRunner().invoke(
            cli.main, ["verify", "--config", "5bus", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "verify_report.csv").read_text()
        assert "FAIL" not in report
        # checked programs are built as the run builds them, dc-link solar included
        assert any(p > 0.0 for p in p_der)

    @pytest.mark.parametrize("mip", [{"rel_gap": 1e-2}, {"rel_gap": 1e-4, "abs_gap": 1e-5}])
    @pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
    def test_oracle_tolerance_is_the_configured_gap(
        self, small_config, monkeypatch, mip, factor, passes
    ):
        """B&B may stop anywhere within its configured gap of the optimum."""
        _, doc = small_config
        cfg = cli.load_config(dict(doc, mip=mip))
        bnb = cli._bnb_config(cfg)
        limits = []
        build = mission._timestep_program
        solve = cli._mip.solve_misocp

        def recording_build(lg, conv, hz, t):
            limits.append(hz.cardinality_limit)
            return build(lg, conv, hz, t)

        def off_by_gap(ir, bnb_cfg, settings=None, **kwargs):
            ms = solve(ir, bnb_cfg, settings, **kwargs)
            oc = cli._oracle.enumerate_supports(ir, limits[-1], settings)
            if "infeasible" in (ms.status, oc.status):
                return ms
            tol = max(bnb.abs_gap, bnb.rel_gap * abs(oc.objective))
            return replace(ms, objective=oc.objective + factor * tol)

        monkeypatch.setattr(mission, "_timestep_program", recording_build)
        monkeypatch.setattr(cli._mip, "solve_misocp", off_by_gap)
        _, checks = cli.verify(cfg)
        compared = [
            ok for name, ok, detail in checks
            if name.startswith("oracle_equivalence") and "|mip - enum|" in detail
        ]
        assert compared
        assert all(ok == passes for ok in compared)

    def test_corrupted_lambda_fails(self, tmp_path):
        runner = CliRunner()
        lin_dir = tmp_path / "lin"
        r = runner.invoke(
            cli.main, ["linearize", "--config", "5bus", "--out", str(lin_dir)]
        )
        assert r.exit_code == 0, r.output
        lam = np.loadtxt(lin_dir / "Lambda.csv", delimiter=",")
        np.savetxt(lin_dir / "Lambda.csv", -lam, delimiter=",", fmt="%.17g")
        r = runner.invoke(
            cli.main,
            [
                "verify",
                "--config",
                "5bus",
                "--out",
                str(tmp_path / "rep"),
                "--linearization",
                str(lin_dir),
            ],
        )
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_missing_linearization_file_exits_2(self, tmp_path):
        r = CliRunner().invoke(
            cli.main,
            [
                "verify",
                "--config",
                "5bus",
                "--out",
                str(tmp_path),
                "--linearization",
                str(tmp_path / "nowhere"),
            ],
        )
        assert r.exit_code == 2

    def test_non_numeric_linearization_exits_2(self, tmp_path):
        runner = CliRunner()
        lin_dir = tmp_path / "lin"
        runner.invoke(cli.main, ["linearize", "--config", "5bus", "--out", str(lin_dir)])
        (lin_dir / "K.csv").write_text("abc,1\n")
        r = runner.invoke(
            cli.main,
            ["verify", "--config", "5bus", "--out", str(tmp_path / "rep")]
            + ["--linearization", str(lin_dir)],
        )
        assert r.exit_code == 2, r.output
        assert "error:" in r.output and "K.csv" in r.output

    def test_bad_input_makes_no_output_dir(self, tmp_path):
        out = tmp_path / "rep"
        r = CliRunner().invoke(
            cli.main, ["verify", "--config", "5bus", "--network", "nope.json", "--out", str(out)]
        )
        assert r.exit_code == 2, r.output
        assert not out.exists()

    def test_intact_linearization_passes(self, tmp_path):
        runner = CliRunner()
        lin_dir = tmp_path / "lin"
        runner.invoke(cli.main, ["linearize", "--config", "5bus", "--out", str(lin_dir)])
        r = runner.invoke(
            cli.main,
            [
                "verify",
                "--config",
                "5bus",
                "--out",
                str(tmp_path / "rep"),
                "--linearization",
                str(lin_dir),
            ],
        )
        assert r.exit_code == 0, r.output


class TestLinearize:
    def test_writes_model_csvs(self, tmp_path):
        r = CliRunner().invoke(
            cli.main, ["linearize", "--config", "5bus", "--out", str(tmp_path)]
        )
        assert r.exit_code == 0, r.output
        K = np.loadtxt(tmp_path / "K.csv", delimiter=",")
        assert K.shape == (4, 4)  # 4 non-slack buses x 2m
        lam = np.loadtxt(tmp_path / "Lambda.csv", delimiter=",")
        assert lam.shape == (4, 4)
        assert np.linalg.eigvalsh(lam).min() >= -1e-9


class TestEc:
    def test_recomputes_from_csv(self, small_config, tmp_path):
        path, cfg = small_config
        runner = CliRunner()
        assert runner.invoke(cli.main, ["run", "--config", str(path)]).exit_code == 0
        mission_csv = Path(cfg["output_dir"]) / "mission_unconstrained.csv"
        out_csv = tmp_path / "ec.csv"
        r = runner.invoke(
            cli.main,
            ["ec", "--input", str(mission_csv), "--s-total", "400", "--out", str(out_csv)],
        )
        assert r.exit_code == 0, r.output
        assert "MEC=" in r.output
        rows = read_csv_columns(out_csv)
        assert len(rows) == 8
        # cross-check against the mission CSV's own EC column
        mrows = read_csv_columns(mission_csv)
        assert [r["EC"] for r in rows] == [m["EC"] for m in mrows]

    def test_missing_input_exits_2(self):
        r = CliRunner().invoke(cli.main, ["ec", "--input", "nope.csv", "--s-total", "400"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("s_total, row", [("nan", "1.0,0.0"), ("400", "nan,0.0")])
    def test_non_finite_exits_2(self, tmp_path, s_total, row):
        mission_csv = tmp_path / "mission.csv"
        mission_csv.write_text(f"t,S_c_1,S_c_2\n0,{row}\n")
        r = CliRunner().invoke(
            cli.main, ["ec", "--input", str(mission_csv), "--s-total", s_total]
        )
        assert r.exit_code == 2, r.output
        assert "finite" in r.output


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def python_m(args, cwd, **blas):
    """Run ``python`` on ``args`` with mopsched importable, the BLAS thread
    variables removed from the environment and ``blas`` set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )


class TestEntryPoint:
    """The ``mopsched`` command pins BLAS to one thread, unless the variable
    is set already; the library pins nothing."""

    def test_unset_threads_write_the_pinned_bytes(self, tmp_path):
        written = []
        for name, blas in (("unset", {}), ("pinned", dict.fromkeys(BLAS_VARS, "1"))):
            out = tmp_path / name
            args = ["-m", "mopsched", "run", "--config", "5bus", "--out", str(out)]
            proc = python_m(args, tmp_path, **blas)
            assert proc.returncode == 0, proc.stderr
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] and written[0] == written[1]

    def test_a_set_variable_is_left_alone(self, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.setenv(var, "")  # restored at teardown, set or not
            monkeypatch.delenv(var)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen = {}
        monkeypatch.setattr(cli, "main", lambda: seen.update({v: os.environ.get(v) for v in BLAS_VARS}))
        entry.main()
        assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

    def test_importing_the_library_sets_nothing(self, tmp_path):
        code = (
            "import os, mopsched, mopsched.cli, mopsched.__main__; "
            f"print([v for v in {BLAS_VARS!r} if v in os.environ])"
        )
        proc = python_m(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
