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
from .errors import MopschedError, ValidationError, count_setting, real_number
from .program import UNCONSTRAINED, ConverterSpec, serialize_ir

_FIXTURE_NETWORKS = {"ieee33": "network_ieee33.json", "5bus": "network_5bus.json"}
_FIXTURE_CONFIGS = {"ieee33": "config_ieee33.json", "5bus": "config_5bus.json"}
# no feeder comes near this many per-unit powers; far beyond it the loss quadratic overflows
_MAX_PU = 1e6
# a synthetic horizon of more steps is refused before its profiles are drawn; an
# annual horizon at one-minute steps has 525,600
_MAX_STEPS = 10**6
# the config key of each numeric RunConfig field, for error messages
_NUMBER_KEYS = {
    "s_total_kva": "converter s_total_kva",
    "loss_coeff": "converter loss_coeff",
    "v_min": "voltage v_min_pu",
    "v_max": "voltage v_max_pu",
    "timestep_hours": "timestep_hours",
}


def _fixture_path(name):
    return resources.files("mopsched").joinpath("fixtures", name)


def _read_json(name, fixtures, what):
    """The JSON document at fixture ``name`` or at path ``name``; ``what`` names it in errors."""
    path = _fixture_path(fixtures[name]) if name in fixtures else Path(name)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"{what} {name} not found") from None
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, bad UTF-8 or JSON, too deep
        raise ValidationError(f"{what} {name} is not readable JSON: {exc}") from None


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
    cardinality: list = (UNCONSTRAINED,)  # a tuple default load_config can read; stored as a list
    profiles: str = "synthetic"
    days: int = 2
    steps_per_day: int = 48
    seed: int = 7
    timestep_hours: float = 0.5
    mip: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output_dir: str = "out"

    def __post_init__(self):
        """Checks what a config key or a flag may set to the wrong shape; ``replace`` re-runs it."""
        for name in ("network", "profiles", "output_dir"):
            value = getattr(self, name)
            if not isinstance(value, str) or "\0" in value:
                raise ValidationError(f"{name} must be a path, got {value!r}")
        if not isinstance(self.monitored_buses, (list, type(None))):
            raise ValidationError(f"monitored_buses must be a list or null, got {self.monitored_buses!r}")
        for name in ("pcc_buses", "loads", "cardinality"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValidationError(f"{name} must be a list, got {value!r}")
        self.pcc_buses = [str(b) for b in self.pcc_buses]
        self.loads = list(self.loads)
        for name, key in _NUMBER_KEYS.items():
            setattr(self, name, real_number(key, getattr(self, name)))
        self.cardinality = list(self.cardinality)
        self.days = count_setting("synthetic days", self.days, 1)
        self.steps_per_day = count_setting("synthetic steps_per_day", self.steps_per_day, 1)
        if self.profiles == "synthetic" and self.days * self.steps_per_day > _MAX_STEPS:
            raise ValidationError(
                f"a synthetic horizon of {self.days} days x {self.steps_per_day} steps"
                f" exceeds {_MAX_STEPS:,} timesteps"
            )
        self.seed = count_setting("seed", self.seed, 0)


def _section(doc, key):
    """``doc[key]``, which must be a JSON object; ``{}`` when absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a JSON object, got {value!r}")
    return value


def load_config(source):
    """RunConfig from a JSON path, fixture name, or parsed document.

    Keys the config does not know are ignored.
    """
    doc = _read_json(source, _FIXTURE_CONFIGS, "config file") if isinstance(source, str) else dict(source)
    try:
        conv = doc["converter"]  # required, unlike the other sections
        if not isinstance(conv, dict):
            raise ValidationError(f"converter must be a JSON object, got {conv!r}")
        voltage = _section(doc, "voltage")
        synth = _section(doc, "synthetic")
        return RunConfig(
            network=doc["network"],
            pcc_buses=conv["pcc_buses"],
            s_total_kva=conv["s_total_kva"],
            loss_coeff=conv.get("loss_coeff", RunConfig.loss_coeff),
            dc_der=conv.get("dc_der"),
            loads=doc.get("loads", []),
            v_min=voltage.get("v_min_pu", RunConfig.v_min),
            v_max=voltage.get("v_max_pu", RunConfig.v_max),
            monitored_buses=voltage.get("monitored_buses"),
            cardinality=doc.get("cardinality", RunConfig.cardinality),
            profiles=doc.get("profiles", RunConfig.profiles),
            days=synth.get("days", RunConfig.days),
            steps_per_day=synth.get("steps_per_day", RunConfig.steps_per_day),
            seed=doc.get("seed", RunConfig.seed),
            timestep_hours=doc.get("timestep_hours", RunConfig.timestep_hours),
            mip=dict(_section(doc, "mip")),
            solver=dict(_section(doc, "solver")),
            output_dir=doc.get("output_dir", RunConfig.output_dir),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed run config: {exc!r}") from exc


def _load_network(cfg):
    return _grid.network_from_json(_read_json(cfg.network, _FIXTURE_NETWORKS, "network file"))


def _load_profiles(cfg):
    if cfg.profiles == "synthetic":
        return _profiles.synthetic_profiles(cfg.days, cfg.steps_per_day, cfg.seed)
    return _profiles.read_profiles_csv(cfg.profiles)


def _entry_fields(entry, what, keys):
    """``entry[key]`` for each of ``keys``; a ValidationError naming ``what`` and any missing key."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{what} must be a JSON object, got {entry!r}")
    missing = [key for key in keys if key not in entry]
    if missing:
        raise ValidationError(f"{what} has no {', '.join(map(repr, missing))}: {entry!r}")
    return [entry[key] for key in keys]


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
                peak_kw=real_number(f"{what} peak_kw", peak_kw),
                peak_kvar=real_number(f"{what} peak_kvar", entry.get("peak_kvar", 0.0)),
            )
        )
    der = None
    if cfg.dc_der is not None:
        profile, peak_kw = _entry_fields(cfg.dc_der, "converter dc_der", ("profile", "peak_kw"))
        der = _mission.DerSpec(profile=profile, peak_kw=real_number("converter dc_der peak_kw", peak_kw))
    for load in loads:
        if load.bus not in net.load_order:
            raise ValidationError(
                f"load bus {load.bus!r} is not a non-slack bus of the network"
                f" (the slack bus is {net.slack_id!r})"
            )
    for bid in cfg.monitored_buses or []:
        if bid not in net.load_order:
            raise ValidationError(f"monitored bus {bid!r} is not a non-slack bus of the network")
    m = len(cfg.pcc_buses)
    for i, entry in enumerate(cfg.cardinality):
        if entry != UNCONSTRAINED and (type(entry) is not int or not 0 <= entry <= m):
            raise ValidationError(f"cardinality entry {entry!r} not in [0, {m}] or 'unconstrained'")
        if entry in cfg.cardinality[:i]:
            raise ValidationError(f"cardinality level {entry!r} is listed more than once")
    # the converter checks its terminals before linearize relies on them
    conv = ConverterSpec(
        pcc_buses=tuple(cfg.pcc_buses),
        s_total=cfg.s_total_kva / net.s_base_kva,
        k=cfg.loss_coeff,
        has_dc_der=cfg.dc_der is not None,
    )
    lg = _grid.linearize(net, cfg.pcc_buses)

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
    powers = [cfg.s_total_kva, abs(der.peak_kw) if der else 0.0]
    powers += [abs(v) for load in loads for v in (load.peak_kw, load.peak_kvar)]
    if max(powers) > _MAX_PU * net.s_base_kva:
        raise ValidationError(
            f"powers up to {max(powers):g} kVA exceed {_MAX_PU:g} pu of the network base {net.s_base_kva:g} kVA"
        )
    return net, lg, conv, horizon


def _settings(cls, section, values):
    """``cls(**values)`` for a config settings section; ``cls`` checks the types and ranges."""
    unknown = sorted(set(values) - set(cls.__dataclass_fields__))
    if unknown:
        raise ValidationError(f"unknown {section} settings {unknown}")
    return cls(**values)


def _bnb_config(cfg):
    return _settings(_mip.BnBConfig, "mip", cfg.mip)


def _solver_settings(cfg):
    return _settings(_solver.SolverSettings, "solver", cfg.solver)


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


def _write_csv(path, header, rows):
    """Write the CSV file ``path``: the ``header`` line, then each row's field strings joined by commas."""
    Path(path).write_text(header + "\n" + "".join(",".join(row) + "\n" for row in rows))


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
        ir0 = _mission._timestep_program(lg, conv, hz0, 0)
        if dump_ir:
            for entry in cfg.cardinality:
                ir = _mission._timestep_program(lg, conv, horizon(entry), 0)
                (outdir / f"ir_{_label(entry)}.json").write_text(serialize_ir(ir) + "\n")
        if solver_trace:
            iterations = []
            _solver.solve_socp_many([(ir0, {}, settings)], [iterations])
            if iterations:  # none when presolve settles the program
                rows = ([f"{v:.12g}" for v in row] for row in iterations)
                _write_csv(solver_trace, "iter,pcost,dcost,gap,pres,dres,tau,kappa", rows)
        if mip_trace:
            rows = (
                [*map(str, node[:4]), ";".join(f"{z}={int(v)}" for z, v in sorted(node[4].items()))]
                for node in _mip.solve_misocp(ir0, bnb, settings).nodes
            )
            _write_csv(mip_trace, "node,bound,incumbent,open,fixings", rows)

    profiles = [
        _mission.schedule_horizon(lg, conv, horizon(entry), bnb, settings)
        for entry in cfg.cardinality
    ]
    unconstrained = next((p for p in profiles if p.cardinality == UNCONSTRAINED), None)
    summary = _mission.summarize(profiles)
    artifacts = []
    for entry, profile, run_summary in zip(cfg.cardinality, profiles, summary["runs"]):
        label = _label(entry)
        csv_path = outdir / f"mission_{label}.csv"
        _mission.write_mission_csv(profile, csv_path)
        artifacts.append(csv_path)
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
    m = conv.m
    for trial in range(3):
        t = int(rng.integers(0, hz.tau))
        n = int(rng.integers(0, m + 1))
        ir = _mission._timestep_program(lg, conv, replace(hz, cardinality_limit=n), t)
        ms = _mip.solve_misocp(ir, bnb, settings)
        failure = ms.message
        if failure is None:
            try:
                oc = _oracle.enumerate_supports(ir, n, settings)
            except MopschedError as exc:
                failure = exc
        if failure is not None:  # a failed solve fails its check
            checks.append((f"oracle_equivalence_{trial}", False, f"t={t} n={n}: {failure}"))
            continue
        if ms.status == "infeasible" or oc.status == "infeasible":
            ok = ms.status == oc.status
            detail = f"t={t} n={n}: both infeasible" if ok else f"t={t} n={n}: status mismatch"
        else:
            diff = abs(ms.objective - oc.objective)
            # B&B stops within its configured gap of the optimum
            tol = max(bnb.abs_gap, bnb.rel_gap * abs(oc.objective))
            ok = diff <= tol
            detail = f"t={t} n={n}: |mip - enum| = {diff:.2e}"
        checks.append((f"oracle_equivalence_{trial}", ok, detail))

    ir = _mission._timestep_program(lg, conv, hz, 0)
    sol = _solver.solve_socp(ir, {}, settings)
    if sol.status == _solver.OPTIMAL:
        tight = _solver.check_relaxation_tightness(ir, sol)
        checks.append(("relaxation_tightness", tight <= 3e-5, f"gap = {tight:.2e}"))
    else:
        checks.append(("relaxation_tightness", False, f"solve status {sol.status}"))
    return checks


def _model_arrays(lg):
    """The files ``linearize`` writes and ``verify --linearization`` reads: name -> array."""
    return {
        "K.csv": lg.K,
        "b.csv": lg.b,
        "Lambda.csv": lg.loss_quad.Lambda,
        "lambda.csv": lg.loss_quad.lam,
        "sigma.csv": np.array([lg.loss_quad.sigma]),
    }


def _linearization_compare(lg, lin_dir):
    lin_dir = Path(lin_dir)
    checks = []
    for name, expect in _model_arrays(lg).items():
        try:
            got = np.loadtxt(lin_dir / name, delimiter=",", ndmin=expect.ndim)
        except ValueError as exc:
            raise ValidationError(f"linearization dump {lin_dir / name}: {exc}") from exc
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
        rows = ([name, "pass" if ok else "FAIL", f'"{detail}"'] for name, ok, detail in checks)
        _write_csv(report_path, "check,status,detail", rows)
    return all(ok for _, ok, _ in checks), checks


# --- click wiring --------------------------------------------------------------


class _Main(click.Group):
    """Reports an input error of any subcommand as ``error: ...`` and exits 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click exits 1 quietly on a closed stdout
        except (MopschedError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
def main():
    """Cardinality-aware scheduling of multiport converter power transfers."""


# the options' destinations are RunConfig fields, or BnBConfig fields for the mip flags
_shared_options = [
    click.option("--config", "config_path", default=None, help="run config JSON (or fixture name: ieee33, 5bus)"),
    click.option("--network", default=None, help="network JSON path or fixture name"),
    click.option("--profiles", default=None, help="profiles CSV path or 'synthetic'"),
    click.option("--cardinality", default=None, help="comma list, e.g. 1,2,unconstrained"),
    click.option("--s-total", "s_total_kva", type=float, default=None, help="total converter capacity, kVA"),
    click.option("--loss-coeff", type=float, default=None, help="converter loss coefficient"),
    click.option("--vmin", "v_min", type=float, default=None, help="lower voltage limit, pu"),
    click.option("--vmax", "v_max", type=float, default=None, help="upper voltage limit, pu"),
    click.option("--out", "output_dir", default=None, help="output directory"),
    click.option("--seed", type=int, default=None, help="seed for synthetic profiles"),
    click.option("--mip-rel-gap", "rel_gap", type=float, default=None),
    click.option("--mip-abs-gap", "abs_gap", type=float, default=None),
    click.option("--node-limit", type=int, default=None),
]


def _with_shared(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


def _config_from_cli(config_path, cardinality, rel_gap, abs_gap, node_limit, **fields):
    """The config at ``config_path`` with the given flags applied; an empty string flag is ignored."""
    if config_path is None:
        raise ValidationError("--config is required (path or fixture name)")
    cfg = load_config(config_path)
    if cardinality:
        tokens = [token.strip() for token in cardinality.split(",")]
        try:
            fields["cardinality"] = [tok if tok == UNCONSTRAINED else int(tok) for tok in tokens]
        except ValueError as exc:
            raise ValidationError(f"bad --cardinality {cardinality!r}: {exc}") from None
    mip = {"rel_gap": rel_gap, "abs_gap": abs_gap, "node_limit": node_limit}
    return replace(
        cfg,
        **{name: value for name, value in fields.items() if value not in (None, "")},
        mip={**cfg.mip, **{key: value for key, value in mip.items() if value is not None}},
    )


@main.command("run")
@_with_shared
@click.option("--dump-ir", is_flag=True, default=False, help="dump timestep-0 program IRs")
@click.option("--solver-trace", default=None, help="write an interior-point trace CSV")
@click.option("--mip-trace", default=None, help="write a branch-and-bound node log CSV")
def run_cmd(config_path, dump_ir, solver_trace, mip_trace, **flags):
    """Schedule the horizon for each cardinality level and write reports."""
    cfg = _config_from_cli(config_path, **flags)
    artifacts = run(cfg, dump_ir=dump_ir, solver_trace=solver_trace, mip_trace=mip_trace)
    for path in artifacts:
        click.echo(str(path))
    sys.exit(0)


@main.command("verify")
@_with_shared
@click.option("--linearization", "lin_dir", default=None, help="directory of linearize dumps to cross-check")
def verify_cmd(config_path, lin_dir, **flags):
    """Run oracle and finite-difference checks; exit 0 iff all pass."""
    cfg = _config_from_cli(config_path, **flags)
    passed, checks = verify(cfg, lin_dir=lin_dir, report_path=Path(cfg.output_dir) / "verify_report.csv")
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    sys.exit(0 if passed else 1)


@main.command("linearize")
@_with_shared
def linearize_cmd(config_path, **flags):
    """Dump K, b, Lambda, lambda, sigma as CSV files."""
    cfg = _config_from_cli(config_path, **flags)
    _, lg, _, _ = _build_setup(cfg)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    arrays = _model_arrays(lg)
    for name, array in arrays.items():
        np.savetxt(outdir / name, array, delimiter=",", fmt="%.17g")
    # every file is written before any path is echoed: a closed stdout cannot cut the set short
    for name in arrays:
        click.echo(str(outdir / name))
    sys.exit(0)


@main.command("ec")
@click.option("--input", "input_path", required=True, help="mission-profile CSV")
@click.option("--s-total", type=float, required=True, help="total converter capacity, kVA")
@click.option("--eps", type=float, default=None, help="override nnz tolerance, kVA")
@click.option("--out", default=None, help="optional EC series CSV")
def ec_cmd(input_path, s_total, eps, out):
    """Compute the EC series and MEC of an existing mission profile."""
    s_mp = _mission.read_mission_apparent_powers(input_path)
    tol = eps if eps is not None else _mission.EC_EPS_FRACTION * s_total
    ec = [_mission.electrical_cardinality(row, tol) for row in s_mp]
    if out:
        _write_csv(out, "t,EC", ([str(t), str(v)] for t, v in enumerate(ec)))
    click.echo(f"eps_kva={tol:.10g}")
    click.echo(f"MEC={max(ec)}")
    click.echo("EC=" + ",".join(str(v) for v in ec))
    sys.exit(0)


if __name__ == "__main__":
    main()
