"""Command-line behavior: artifacts, determinism, exit codes."""

import collections
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from mopsched import cli

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
        build = cli.build_timestep_program

        def recording_build(lg, conv, ts):
            p_der.append(ts.p_der)
            return build(lg, conv, ts)

        monkeypatch.setattr(cli, "build_timestep_program", recording_build)
        result = CliRunner().invoke(
            cli.main, ["verify", "--config", "5bus", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        report = (tmp_path / "verify_report.csv").read_text()
        assert "FAIL" not in report
        # checked programs are built as the run builds them, dc-link solar included
        assert any(p > 0.0 for p in p_der)

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
