"""Command-line front end: batch runs, verification, model dumps, EC reports.

Subcommands:
  run        schedule a horizon for each configured cardinality level and
             write mission CSVs, summary JSON, and SVG plots
  verify     run the oracle suite and linearization checks; pass/fail table
  linearize  dump the affine voltage model and loss quadratic as CSV
  ec         recompute EC/MEC from an existing mission-profile CSV

Configuration is a single JSON document; command-line flags override the
corresponding fields.  Exit codes: 0 success, 1 verification failure,
2 validation/input error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import grid as _grid
from . import mip as _mip
from . import mission as _mission
from . import oracle as _oracle
from . import profiles as _profiles
from . import solver as _solver
from . import svgplot
from .errors import MopschedError, ValidationError
from .program import UNCONSTRAINED, ConverterSpec, build_timestep_program, serialize_ir

_FIXTURE_NETWORKS = {"ieee33": "network_ieee33.json", "5bus": "network_5bus.json"}
_FIXTURE_CONFIGS = {"ieee33": "config_ieee33.json", "5bus": "config_5bus.json"}


def _fixture_path(name):
    return resources.files("mopsched").joinpath("fixtures", name)


@dataclass
class RunConfig:
    network: str
    pcc_buses: list
    s_total_kva: float
    loss_coeff: float = 0.01
    dc_der: dict = None  # {"profile": ..., "peak_kw": ...}
    loads: list = field(default_factory=list)
    v_min: float = 0.95
    v_max: float = 1.05
    monitored_buses: list = None
    cardinality: list = field(default_factory=lambda: [UNCONSTRAINED])
    profiles: str = "synthetic"
    days: int = 2
    steps_per_day: int = 48
    seed: int = 7
    timestep_hours: float = 0.5
    mip: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output_dir: str = "out"


def load_config(source):
    """RunConfig from a JSON path, fixture name, or parsed document.

    Keys the config does not know are ignored.
    """
    if isinstance(source, str):
        if source in _FIXTURE_CONFIGS:
            doc = json.loads(_fixture_path(_FIXTURE_CONFIGS[source]).read_text())
        else:
            path = Path(source)
            if not path.exists():
                raise ValidationError(f"config file {source} not found")
            doc = json.loads(path.read_text())
    else:
        doc = dict(source)
    try:
        conv = doc["converter"]
        voltage = doc.get("voltage", {})
        synth = doc.get("synthetic", {})
        cfg = RunConfig(
            network=doc["network"],
            pcc_buses=[str(b) for b in conv["pcc_buses"]],
            s_total_kva=float(conv["s_total_kva"]),
            loss_coeff=float(conv.get("loss_coeff", 0.01)),
            dc_der=conv.get("dc_der"),
            loads=[dict(entry) for entry in doc.get("loads", [])],
            v_min=float(voltage.get("v_min_pu", 0.95)),
            v_max=float(voltage.get("v_max_pu", 1.05)),
            monitored_buses=voltage.get("monitored_buses"),
            cardinality=list(doc.get("cardinality", [UNCONSTRAINED])),
            profiles=doc.get("profiles", "synthetic"),
            days=int(synth.get("days", 2)),
            steps_per_day=int(synth.get("steps_per_day", 48)),
            seed=int(doc.get("seed", 7)),
            timestep_hours=float(doc.get("timestep_hours", 0.5)),
            mip=dict(doc.get("mip", {})),
            solver=dict(doc.get("solver", {})),
            output_dir=doc.get("output_dir", "out"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed run config: {exc!r}") from exc
    return cfg


def _load_network(cfg):
    name = cfg.network
    if name in _FIXTURE_NETWORKS:
        return _grid.network_from_json(json.loads(_fixture_path(_FIXTURE_NETWORKS[name]).read_text()))
    path = Path(name)
    if not path.exists():
        raise ValidationError(f"network file {name} not found")
    return _grid.network_from_json(str(path))


def _load_profiles(cfg):
    if cfg.profiles == "synthetic":
        return _profiles.synthetic_profiles(cfg.days, cfg.steps_per_day, cfg.seed)
    path = Path(cfg.profiles)
    if not path.exists():
        raise ValidationError(f"profiles file {cfg.profiles} not found")
    return _profiles.read_profiles_csv(str(path))


def _entry_fields(entry, what, keys):
    """``entry[key]`` for each of ``keys``; a ValidationError naming ``what`` and any missing key."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{what} must be a JSON object, got {entry!r}")
    missing = [key for key in keys if key not in entry]
    if missing:
        raise ValidationError(f"{what} has no {', '.join(map(repr, missing))}: {entry!r}")
    return [entry[key] for key in keys]


def _peak(value, what):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} is not a number: {value!r}") from None


def _build_setup(cfg):
    """(network, grid, converter, horizon factory) from a validated config."""
    net = _load_network(cfg)
    prof = _load_profiles(cfg)
    loads = []
    for i, entry in enumerate(cfg.loads):
        what = f"load entry {i}"
        bus, profile, peak_kw = _entry_fields(entry, what, ("bus", "profile", "peak_kw"))
        loads.append(
            _mission.LoadSpec(
                bus=bus,
                profile=profile,
                peak_kw=_peak(peak_kw, f"{what} peak_kw"),
                peak_kvar=_peak(entry.get("peak_kvar", 0.0), f"{what} peak_kvar"),
            )
        )
    der = None
    if cfg.dc_der is not None:
        profile, peak_kw = _entry_fields(cfg.dc_der, "converter dc_der", ("profile", "peak_kw"))
        der = _mission.DerSpec(profile=profile, peak_kw=_peak(peak_kw, "converter dc_der peak_kw"))
    for load in loads:
        if load.bus not in [b.id for b in net.buses]:
            raise ValidationError(f"load references unknown bus {load.bus!r}")
    for bid in cfg.pcc_buses:
        if bid not in [b.id for b in net.buses]:
            raise ValidationError(f"PCC bus {bid!r} not in network")
    for bid in cfg.monitored_buses or []:
        if bid not in net.load_order:
            raise ValidationError(f"monitored bus {bid!r} is not a non-slack bus of the network")
    m = len(cfg.pcc_buses)
    for entry in cfg.cardinality:
        if entry == UNCONSTRAINED:
            continue
        if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry <= m:
            raise ValidationError(
                f"cardinality entry {entry!r} not in [0, {m}] or 'unconstrained'"
            )
    lg = _grid.linearize(net, cfg.pcc_buses)
    conv = ConverterSpec(
        pcc_buses=tuple(cfg.pcc_buses),
        s_total=cfg.s_total_kva / net.s_base_kva,
        k=cfg.loss_coeff,
        has_dc_der=cfg.dc_der is not None,
    )

    def horizon(n):
        return _mission.HorizonInput(
            profiles=prof,
            loads=loads,
            timestep_hours=cfg.timestep_hours,
            v_min=cfg.v_min,
            v_max=cfg.v_max,
            cardinality_limit=n,
            der=der,
            monitored_buses=cfg.monitored_buses,
        )

    horizon(UNCONSTRAINED)  # rejects bad horizon data before any output is written
    return net, lg, conv, horizon


def _bnb_config(cfg):
    """BnBConfig from the config's ``mip`` settings; BnBConfig checks their types and ranges."""
    kwargs = {key: cfg.mip[key] for key in ("rel_gap", "abs_gap", "node_limit") if key in cfg.mip}
    return _mip.BnBConfig(**kwargs)


def _solver_settings(cfg):
    known = {f for f in _solver.SolverSettings.__dataclass_fields__}
    extra = set(cfg.solver) - known
    if extra:
        raise ValidationError(f"unknown solver settings {sorted(extra)}")
    return _solver.SolverSettings(**cfg.solver)


def _timestep_program(lg, conv, hz, t):
    """Timestep ``t``'s program as the horizon run builds it, DER output included."""
    ts = _mission._timestep_input(lg, hz, t, _mission._der_output(lg, conv, hz, t))
    return build_timestep_program(lg, conv, ts)


def _label(entry):
    return "unconstrained" if entry == UNCONSTRAINED else f"n{entry}"


def _dump_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_plots(outdir, label, profile, unconstrained):
    t = np.arange(profile.tau)
    svgplot.line_chart(
        outdir / f"powers_{label}.svg",
        [
            (f"P_c[{i + 1}]", t, profile.p_mp[:, i])
            for i in range(profile.m)
        ],
        title=f"Terminal real power, {label}",
        xlabel="timestep",
        ylabel="kW",
    )
    svgplot.line_chart(
        outdir / f"ec_{label}.svg",
        [("EC", t, profile.ec_series.astype(float))],
        title=f"Electrical cardinality, {label}",
        xlabel="timestep",
        ylabel="EC",
        step=True,
        ymin=0.0,
    )
    svgplot.bar_chart(
        outdir / f"ec_hist_{label}.svg",
        labels=[str(i) for i in range(profile.m + 1)],
        values=[int(np.sum(profile.ec_series == i)) for i in range(profile.m + 1)],
        title=f"EC distribution, {label}",
        xlabel="EC",
        ylabel="timesteps",
    )
    if unconstrained is not None and unconstrained is not profile:
        base = profile.baseline_ntwk_loss_kw
        red_n = np.where(np.isfinite(profile.objective_kw), base - profile.objective_kw, 0.0)
        red_u = np.where(
            np.isfinite(unconstrained.objective_kw), base - unconstrained.objective_kw, 0.0
        )
        frac = np.where(np.abs(red_u) > 1e-9, red_n / np.where(red_u == 0, 1, red_u), 1.0)
        svgplot.line_chart(
            outdir / f"loss_fraction_{label}.svg",
            [("fraction", t, frac)],
            title=f"Fraction of unconstrained loss reduction, {label}",
            xlabel="timestep",
            ylabel="fraction",
            ymin=0.0,
        )


def run(cfg, dump_ir=False, solver_trace=None, mip_trace=None):
    """Execute all configured cardinality levels; returns artifact paths."""
    net, lg, conv, horizon = _build_setup(cfg)
    if not cfg.cardinality:
        click.echo("warning: empty cardinality list, nothing to do")
        return []
    bnb = _bnb_config(cfg)
    settings = _solver_settings(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    if solver_trace or mip_trace or dump_ir:
        # representative timestep-0 artifacts
        hz0 = horizon(cfg.cardinality[0])
        ir0 = _timestep_program(lg, conv, hz0, 0)
        if dump_ir:
            for entry in cfg.cardinality:
                ir = _timestep_program(lg, conv, horizon(entry), 0)
                (outdir / f"ir_{_label(entry)}.json").write_text(serialize_ir(ir) + "\n")
        if solver_trace:
            _solver.solve_socp(
                _mip._relaxed_program(ir0, {}), {}, settings, trace=solver_trace
            )
        if mip_trace:
            _mip.solve_misocp(ir0, bnb, settings, trace=mip_trace)

    results = []
    for entry in cfg.cardinality:
        profile = _mission.schedule_horizon(lg, conv, horizon(entry), bnb, settings)
        results.append((entry, profile))

    unconstrained = next(
        (p for e, p in results if e == UNCONSTRAINED), None
    )
    baseline = results[0][1].baseline_ntwk_loss_kw
    summary = _mission.summarize([p for _, p in results], baseline)
    artifacts = []
    for entry, profile in results:
        label = _label(entry)
        csv_path = outdir / f"mission_{label}.csv"
        _mission.write_mission_csv(profile, csv_path)
        artifacts.append(csv_path)
        run_summary = next(
            r for r in summary["runs"] if r["cardinality"] == profile.cardinality
        )
        _dump_json(
            outdir / f"summary_{label}.json",
            {
                "timesteps": summary["timesteps"],
                "timestep_hours": summary["timestep_hours"],
                "baseline_loss_kwh": summary["baseline_loss_kwh"],
                **run_summary,
            },
        )
        artifacts.append(outdir / f"summary_{label}.json")
        _write_plots(outdir, label, profile, unconstrained)
    _dump_json(outdir / "summary.json", summary)
    artifacts.append(outdir / "summary.json")
    return artifacts


# --- verification suite -------------------------------------------------------


def _fd_checks(net, lg, rng):
    Y = _grid.build_admittance(net)
    checks = []
    checks.append(
        (
            "admittance_reciprocity",
            float(np.max(np.abs(Y - Y.T))) < 1e-12,
            f"max |Y - Y^T| = {np.max(np.abs(Y - Y.T)):.2e}",
        )
    )
    v0, _ = _grid.ac_power_flow(net, np.zeros(net.n_bus - 1, complex))
    checks.append(
        (
            "noload_voltage",
            float(np.max(np.abs(np.abs(v0[1:]) - lg.b))) < 1e-10,
            f"max |b - |v|| = {np.max(np.abs(np.abs(v0[1:]) - lg.b)):.2e}",
        )
    )
    n1 = net.n_bus - 1
    eps = 1e-4
    kerr = lerr = 0.0
    for _ in range(20):
        d = rng.standard_normal(2 * n1)
        d /= np.linalg.norm(d)
        sp = d[:n1] + 1j * d[n1:]
        vp, lp = _grid.ac_power_flow(net, eps * sp)
        vm, lm = _grid.ac_power_flow(net, -eps * sp)
        kerr = max(kerr, float(np.max(np.abs((np.abs(vp[1:]) - np.abs(vm[1:])) / (2 * eps) - lg.full_K @ d))))
        lerr = max(lerr, abs((lp - lm) / (2 * eps) - lg.full_lam @ d))
    checks.append(("voltage_jacobian_fd", kerr < 1e-5, f"max dir-deriv err = {kerr:.2e}"))
    checks.append(("loss_gradient_fd", lerr < 1e-5, f"max dir-deriv err = {lerr:.2e}"))
    evmin = float(np.linalg.eigvalsh(lg.full_Lambda).min())
    checks.append(("lambda_psd", evmin >= -1e-9, f"min eigenvalue = {evmin:.2e}"))
    return checks


def _oracle_checks(cfg, lg, conv, horizon, rng):
    checks = []
    bnb = _bnb_config(cfg)
    settings = _solver_settings(cfg)
    hz = horizon(UNCONSTRAINED)
    worst = 0.0
    n_checked = 0
    m = conv.m
    for trial in range(3):
        t = int(rng.integers(0, hz.tau))
        n = int(rng.integers(0, m + 1))
        ir = _timestep_program(lg, conv, replace(hz, cardinality_limit=n), t)
        ms = _mip.solve_misocp(ir, bnb, settings)
        oc = _oracle.enumerate_supports(ir, n, settings)
        if ms.status == "infeasible" or oc.status == "infeasible":
            ok = ms.status == oc.status
            detail = f"t={t} n={n}: both infeasible" if ok else f"t={t} n={n}: status mismatch"
        else:
            diff = abs(ms.objective - oc.objective)
            tol = max(1e-8, 1e-4 * abs(oc.objective))
            ok = diff <= tol
            worst = max(worst, diff)
            detail = f"t={t} n={n}: |mip - enum| = {diff:.2e}"
        n_checked += 1
        checks.append((f"oracle_equivalence_{trial}", ok, detail))

    ir = _timestep_program(lg, conv, hz, 0)
    sol = _solver.solve_socp(ir, {}, settings)
    if sol.status == _solver.OPTIMAL:
        tight = _solver.check_relaxation_tightness(ir, sol)
        checks.append(("relaxation_tightness", tight <= 3e-5, f"gap = {tight:.2e}"))
    else:
        checks.append(("relaxation_tightness", False, f"solve status {sol.status}"))
    return checks


def _linearization_compare(lg, lin_dir):
    lin_dir = Path(lin_dir)
    arrays = {
        "K.csv": lg.K,
        "b.csv": lg.b,
        "Lambda.csv": lg.loss_quad.Lambda,
        "lambda.csv": lg.loss_quad.lam,
        "sigma.csv": np.array([lg.loss_quad.sigma]),
    }
    checks = []
    for name, expect in arrays.items():
        path = lin_dir / name
        if not path.exists():
            raise ValidationError(f"linearization dump {path} not found")
        got = np.loadtxt(path, delimiter=",", ndmin=expect.ndim)
        ok = got.shape == expect.shape and np.allclose(got, expect, atol=1e-9, rtol=0)
        detail = "matches rebuilt model" if ok else "differs from rebuilt model"
        checks.append((f"linearization_{name}", ok, detail))
    return checks


def verify(cfg, lin_dir=None, report_path=None):
    """Run the verification suite; returns (all_passed, checks)."""
    net, lg, conv, horizon = _build_setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    checks = _fd_checks(net, lg, rng)
    checks += _oracle_checks(cfg, lg, conv, horizon, rng)
    if lin_dir is not None:
        checks += _linearization_compare(lg, lin_dir)
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w") as fh:
            fh.write("check,status,detail\n")
            for name, ok, detail in checks:
                fh.write(f"{name},{'pass' if ok else 'FAIL'},\"{detail}\"\n")
    return all(ok for _, ok, _ in checks), checks


# --- click wiring --------------------------------------------------------------


@click.group()
def main():
    """Cardinality-aware scheduling of multiport converter power transfers."""


def _apply_overrides(cfg, network, profiles, cardinality, s_total, loss_coeff, vmin, vmax, out, seed, mip_rel_gap, mip_abs_gap, node_limit):
    if network:
        cfg.network = network
    if profiles:
        cfg.profiles = profiles
    if cardinality:
        entries = []
        for tok in cardinality.split(","):
            tok = tok.strip()
            entries.append(UNCONSTRAINED if tok == UNCONSTRAINED else int(tok))
        cfg.cardinality = entries
    if s_total is not None:
        cfg.s_total_kva = s_total
    if loss_coeff is not None:
        cfg.loss_coeff = loss_coeff
    if vmin is not None:
        cfg.v_min = vmin
    if vmax is not None:
        cfg.v_max = vmax
    if out:
        cfg.output_dir = out
    if seed is not None:
        cfg.seed = seed
    if mip_rel_gap is not None:
        cfg.mip["rel_gap"] = mip_rel_gap
    if mip_abs_gap is not None:
        cfg.mip["abs_gap"] = mip_abs_gap
    if node_limit is not None:
        cfg.mip["node_limit"] = node_limit
    return cfg


_shared_options = [
    click.option("--config", "config_path", default=None, help="run config JSON (or fixture name: ieee33, 5bus)"),
    click.option("--network", default=None, help="network JSON path or fixture name"),
    click.option("--profiles", default=None, help="profiles CSV path or 'synthetic'"),
    click.option("--cardinality", default=None, help="comma list, e.g. 1,2,unconstrained"),
    click.option("--s-total", type=float, default=None, help="total converter capacity, kVA"),
    click.option("--loss-coeff", type=float, default=None, help="converter loss coefficient"),
    click.option("--vmin", type=float, default=None, help="lower voltage limit, pu"),
    click.option("--vmax", type=float, default=None, help="upper voltage limit, pu"),
    click.option("--out", default=None, help="output directory"),
    click.option("--seed", type=int, default=None, help="seed for synthetic profiles"),
    click.option("--mip-rel-gap", type=float, default=None),
    click.option("--mip-abs-gap", type=float, default=None),
    click.option("--node-limit", type=int, default=None),
]


def _with_shared(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


def _config_from_cli(config_path, **overrides):
    if config_path is None:
        raise ValidationError("--config is required (path or fixture name)")
    cfg = load_config(config_path)
    return _apply_overrides(cfg, **overrides)


@main.command("run")
@_with_shared
@click.option("--dump-ir", is_flag=True, default=False, help="dump timestep-0 program IRs")
@click.option("--solver-trace", default=None, help="write an interior-point trace CSV")
@click.option("--mip-trace", default=None, help="write a branch-and-bound node log CSV")
def run_cmd(config_path, dump_ir, solver_trace, mip_trace, **overrides):
    """Schedule the horizon for each cardinality level and write reports."""
    try:
        cfg = _config_from_cli(config_path, **overrides)
        artifacts = run(cfg, dump_ir=dump_ir, solver_trace=solver_trace, mip_trace=mip_trace)
    except MopschedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for path in artifacts:
        click.echo(str(path))
    sys.exit(0)


@main.command("verify")
@_with_shared
@click.option("--linearization", "lin_dir", default=None, help="directory of linearize dumps to cross-check")
def verify_cmd(config_path, lin_dir, **overrides):
    """Run oracle and finite-difference checks; exit 0 iff all pass."""
    try:
        cfg = _config_from_cli(config_path, **overrides)
        outdir = Path(cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        passed, checks = verify(cfg, lin_dir=lin_dir, report_path=outdir / "verify_report.csv")
    except MopschedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    sys.exit(0 if passed else 1)


@main.command("linearize")
@_with_shared
def linearize_cmd(config_path, **overrides):
    """Dump K, b, Lambda, lambda, sigma as CSV files."""
    try:
        cfg = _config_from_cli(config_path, **overrides)
        _, lg, _, _ = _build_setup(cfg)
    except MopschedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "K.csv", lg.K, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "b.csv", lg.b, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "Lambda.csv", lg.loss_quad.Lambda, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "lambda.csv", lg.loss_quad.lam, delimiter=",", fmt="%.17g")
    np.savetxt(outdir / "sigma.csv", [lg.loss_quad.sigma], delimiter=",", fmt="%.17g")
    for name in ("K.csv", "b.csv", "Lambda.csv", "lambda.csv", "sigma.csv"):
        click.echo(str(outdir / name))
    sys.exit(0)


@main.command("ec")
@click.option("--input", "input_path", required=True, help="mission-profile CSV")
@click.option("--s-total", type=float, required=True, help="total converter capacity, kVA")
@click.option("--eps", type=float, default=None, help="override nnz tolerance, kVA")
@click.option("--out", default=None, help="optional EC series CSV")
def ec_cmd(input_path, s_total, eps, out):
    """Compute the EC series and MEC of an existing mission profile."""
    try:
        s_mp = _mission.read_mission_apparent_powers(input_path)
        tol = eps if eps is not None else _mission.EC_EPS_FRACTION * s_total
        ec = [_mission.electrical_cardinality(row, tol) for row in s_mp]
    except (MopschedError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    if out:
        with open(out, "w") as fh:
            fh.write("t,EC\n")
            for t, v in enumerate(ec):
                fh.write(f"{t},{v}\n")
    click.echo(f"eps_kva={tol:.10g}")
    click.echo(f"MEC={max(ec)}")
    click.echo("EC=" + ",".join(str(v) for v in ec))
    sys.exit(0)


if __name__ == "__main__":
    main()
