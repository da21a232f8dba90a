"""Horizon scheduling and mission-profile analytics.

Runs the per-timestep optimization across a horizon, assembles the tau x m
power-transfer matrices, and derives the cardinality metrics: the electrical
cardinality series (non-zero transfers per timestep, tolerance-based) and
its maximum over the horizon.  Infeasible timesteps are recorded and the run
continues; an annual study must complete and report.

Each share of a horizon is one stream: its timesteps' programs, re-valued
from one compile of the level, go to ``mip.solve_misocp_many``, which draws
and solves them a window at a time, and each result becomes one mission row.

Power columns are stored in kW/kvar/kVA (per-unit values scaled by the
network base) so that the tolerance "1e-5 of total converter capacity" reads
naturally against capacity in kVA.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .profiles import csv_reader
from .program import (
    EC_EPS_FRACTION,
    UNCONSTRAINED,
    ProgramTemplate,
    TimestepInput,
    build_timestep_program,
)
from . import mip as _mip
from . import solver as _solver


@dataclass(frozen=True)
class LoadSpec:
    bus: str
    profile: str
    peak_kw: float
    peak_kvar: float = 0.0


@dataclass(frozen=True)
class DerSpec:
    profile: str
    peak_kw: float


@dataclass(frozen=True)
class HorizonInput:
    profiles: dict  # profile id -> normalized series
    loads: tuple  # of LoadSpec
    timestep_hours: float
    v_min: float
    v_max: float
    cardinality_limit: object = UNCONSTRAINED
    der: object = None  # DerSpec
    monitored_buses: object = None

    def __post_init__(self):
        object.__setattr__(self, "loads", tuple(self.loads))
        if not self.profiles:
            raise ValidationError("horizon needs at least one profile series")
        lengths = {len(series) for series in self.profiles.values()}
        if len(lengths) != 1:
            raise ValidationError(f"profile series lengths differ: {sorted(lengths)}")
        if lengths.pop() < 1:
            raise ValidationError("horizon must cover at least one timestep")
        for name, series in self.profiles.items():
            series = np.asarray(series)
            if not np.isfinite(series).all():
                raise ValidationError(f"profile {name!r} has non-finite multipliers")
            if np.any(series < 0):
                raise ValidationError(f"profile {name!r} has negative multipliers")
        known = list(self.profiles)  # a profile name from a config may be any JSON value, even a list
        for load in self.loads:
            if load.profile not in known:
                raise ValidationError(f"load at {load.bus} references unknown profile {load.profile!r}")
        if self.der is not None and self.der.profile not in known:
            raise ValidationError(f"DER references unknown profile {self.der.profile!r}")
        numbers = [
            ("timestep_hours", self.timestep_hours),
            ("v_min", self.v_min),
            ("v_max", self.v_max),
        ]
        for load in self.loads:
            numbers += [(f"load at {load.bus}", v) for v in (load.peak_kw, load.peak_kvar)]
        if self.der is not None:
            numbers.append(("DER peak_kw", self.der.peak_kw))
        bad = [name for name, v in numbers if not np.isfinite(v)]
        if bad:
            raise ValidationError(f"non-finite horizon data: {', '.join(bad)}")
        if self.timestep_hours <= 0:
            raise ValidationError("timestep duration must be positive")
        if not self.v_min < self.v_max:
            raise ValidationError("voltage limits must satisfy v_min < v_max")

    @property
    def tau(self):
        return len(next(iter(self.profiles.values())))


@dataclass
class MissionProfile:
    """tau x m transfer matrices with cardinality metrics, kW/kvar/kVA units."""

    p_mp: np.ndarray
    q_mp: np.ndarray
    s_mp: np.ndarray
    ec_series: np.ndarray
    mec: int
    status: list
    objective_kw: np.ndarray
    ntwk_loss_kw: np.ndarray
    conv_loss_kw: np.ndarray
    baseline_ntwk_loss_kw: np.ndarray
    tightness: np.ndarray
    eps_kva: float
    s_total_kva: float
    timestep_hours: float
    cardinality: object = UNCONSTRAINED
    errors: dict = field(default_factory=dict)  # t -> message of each ``error`` step

    @property
    def tau(self):
        return self.p_mp.shape[0]

    @property
    def m(self):
        return self.p_mp.shape[1]

    @property
    def max_tightness(self):
        vals = self.tightness[np.isfinite(self.tightness)]
        return float(vals.max()) if vals.size else 0.0

    @property
    def n_infeasible(self):
        return sum(1 for s in self.status if s == "infeasible")


def electrical_cardinality(row, eps):
    """Count of apparent-power transfers strictly greater than ``eps``."""
    row = np.asarray(row, dtype=float)
    if not (np.isfinite(eps) and eps > 0):
        raise ValidationError("tolerance eps must be finite and positive")
    if not np.all(np.isfinite(row)):
        raise ValidationError("apparent powers must be finite")
    if np.any(row < 0):
        raise ValidationError("apparent powers cannot be negative")
    return int(np.sum(row > eps))


def mec(profile):
    """Maximum electrical cardinality over the horizon."""
    series = np.asarray(profile.ec_series if isinstance(profile, MissionProfile) else profile)
    if series.size == 0:
        raise ValidationError("mission profile is empty")
    return int(series.max())


def _timestep_input(grid, horizon, t, p_der_pu):
    bg = {}
    s_base = grid.s_base_kva
    for load in horizon.loads:
        mult = horizon.profiles[load.profile][t]
        s = -(load.peak_kw * mult + 1j * load.peak_kvar * mult) / s_base
        bg[load.bus] = bg.get(load.bus, 0.0) + s
    return TimestepInput(
        v_min=horizon.v_min,
        v_max=horizon.v_max,
        background_injections=bg,
        p_der=p_der_pu,
        cardinality_limit=horizon.cardinality_limit,
        monitored_buses=horizon.monitored_buses,
    )


def _der_output(grid, conv, horizon, t):
    """dc-link DER output at timestep ``t``, pu; 0 without a dc-link DER."""
    if horizon.der is None or not conv.has_dc_der:
        return 0.0
    return horizon.der.peak_kw * horizon.profiles[horizon.der.profile][t] / grid.s_base_kva


def _timestep_program(grid, conv, horizon, t):
    """Timestep ``t``'s program, DER output included."""
    ts = _timestep_input(grid, horizon, t, _der_output(grid, conv, horizon, t))
    return build_timestep_program(grid, conv, ts)


def _timestep_programs(grid, conv, horizon, steps):
    """The program of each timestep of ``steps``, one at a time.

    ``build_timestep_program`` compiles the first timestep's program once,
    and a ``ProgramTemplate`` of it re-values every timestep, the first
    included.
    """
    template = None
    for t in steps:
        ts = _timestep_input(grid, horizon, t, _der_output(grid, conv, horizon, t))
        if template is None:
            template = ProgramTemplate(grid, build_timestep_program(grid, conv, ts))
        yield template.program(ts)


def _timestep_result(grid, conv, program, ms):
    """A timestep's mission row from its program and its MipSolution: (status,
    p, q, objective, network loss, converter loss, baseline loss, tightness,
    error message or None), in kW."""
    s_base = grid.s_base_kva
    baseline_kw = program.loss_model["sigma"] * s_base
    m = conv.m
    if ms.incumbent is None:
        # a failed timestep is data, not a reason to abort the horizon
        return ms.status, np.zeros(m), np.zeros(m), np.nan, np.nan, np.nan, baseline_kw, np.nan, ms.message
    sol = ms.incumbent
    p = np.array([sol.primal[f"P_c[{i + 1}]"] for i in range(m)]) * s_base
    q = np.array([sol.primal[f"Q_c[{i + 1}]"] for i in range(m)]) * s_base
    obj, ntwk = ms.objective * s_base, sol.primal["P_loss_ntwk"] * s_base
    conv_loss = sum(sol.primal[f"P_loss_conv[{i + 1}]"] for i in range(m)) * s_base
    tight = _solver.check_relaxation_tightness(program, sol)
    return ms.status, p, q, obj, ntwk, conv_loss, baseline_kw, tight, None


def _solve_share(task, k, shares):
    """Mission rows of the timesteps t = k, k + shares, k + 2*shares, ... of ``task``.

    ``mip.solve_misocp_many`` draws the share's programs in windows; a
    window's programs share their level's compiled form
    (``_timestep_programs``), so its programs, searches and batches stay
    within a few times the solver's byte budget.
    """
    grid, conv, horizon, cfg, settings = task
    programs = _timestep_programs(grid, conv, horizon, range(k, horizon.tau, shares))
    return [
        _timestep_result(grid, conv, program, ms)
        for program, ms in _mip.solve_misocp_many(programs, cfg, settings)
    ]


def _thread_count():
    """Threads of this process, 0 where the platform does not list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _share_count(tau):
    """Shares of a horizon: one per CPU this process may run on, at most ``tau``.

    One share where forking is unavailable or unsafe: where the platform
    lacks ``os.sched_getaffinity`` or a thread listing (both mean Linux,
    which has ``fork``), or when the process runs more than one thread.  A
    multi-threaded BLAS is such a case; forked copies of its thread pool
    would oversubscribe the CPUs.
    """
    if not hasattr(os, "sched_getaffinity") or _thread_count() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), tau)


def schedule_horizon(grid, conv, horizon, cfg=None, settings=None):
    """Solve every timestep and assemble the mission profile.

    The timesteps are split into interleaved shares (see ``_share_count``):
    the calling process runs ``_solve_share`` on share 0 and each forked
    worker runs it on one other share, its (grid, conv, horizon, cfg,
    settings) task pickled with the call.  Every share runs the code of a
    sequential run on the same data, so the result does not depend on the
    CPU count.  Infeasible and failed timesteps are recorded with zero
    transfers and the run continues.
    """
    tau = horizon.tau
    task = (grid, conv, horizon, cfg or _mip.BnBConfig(), settings)
    shares = _share_count(tau)
    if shares == 1:
        results = _solve_share(task, 0, 1)
    else:
        # Fork, not spawn: workers inherit the imported program without
        # re-importing it; each gets its task pickled once, with its share.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        results = [None] * tau
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(shares - 1, mp_context=fork) as pool:
            futures = {k: pool.submit(_solve_share, task, k, shares) for k in range(1, shares)}
            # the caller works its own share rather than wait on the workers
            results[0::shares] = _solve_share(task, 0, shares)
            for k, future in futures.items():
                results[k::shares] = future.result()

    status, p_mp, q_mp, obj, ntwk, conv_loss, baseline, tight, errors = zip(*results)
    p_mp, q_mp = np.vstack(p_mp), np.vstack(q_mp)
    s_mp = np.hypot(p_mp, q_mp)
    s_total_kva = conv.s_total * grid.s_base_kva
    eps_kva = EC_EPS_FRACTION * s_total_kva
    ec = np.array([electrical_cardinality(s_mp[t], eps_kva) for t in range(tau)])
    return MissionProfile(
        p_mp=p_mp,
        q_mp=q_mp,
        s_mp=s_mp,
        ec_series=ec,
        mec=int(ec.max()) if tau else 0,
        status=list(status),
        objective_kw=np.array(obj),
        ntwk_loss_kw=np.array(ntwk),
        conv_loss_kw=np.array(conv_loss),
        baseline_ntwk_loss_kw=np.array(baseline),
        tightness=np.array(tight),
        eps_kva=eps_kva,
        s_total_kva=s_total_kva,
        timestep_hours=horizon.timestep_hours,
        cardinality=horizon.cardinality_limit,
        errors={t: msg for t, msg in enumerate(errors) if msg is not None},
    )


def summarize(profiles):
    """Cross-run report: losses, reductions, EC distributions, and per run,
    in the order of ``profiles``, the count of each timestep status and the
    message of each ``error`` step.

    The first profile's no-converter network loss per timestep (kW) is the
    baseline of every reduction.  The unconstrained run, when present,
    anchors the fraction-of-reduction metric for each cardinality level.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("no profiles to summarize")
    tau = profiles[0].tau
    baseline = profiles[0].baseline_ntwk_loss_kw
    for p in profiles:
        if p.tau != tau:
            raise ValidationError("profiles cover different horizons")

    dt = profiles[0].timestep_hours
    baseline_kwh = float(np.nansum(baseline) * dt)
    unconstrained = next(
        (p for p in profiles if p.cardinality == UNCONSTRAINED), None
    )

    def reduction_kwh(p):
        # infeasible steps carry NaN objective: no reduction contribution
        delta = np.where(np.isfinite(p.objective_kw), baseline - p.objective_kw, 0.0)
        return float(delta.sum() * dt)

    runs = []
    unc_red = reduction_kwh(unconstrained) if unconstrained is not None else None
    for p in profiles:
        red = reduction_kwh(p)
        hist = {
            str(level): int(np.sum(p.ec_series == level)) for level in range(p.m + 1)
        }
        runs.append(
            {
                "cardinality": p.cardinality,
                "total_loss_kwh": float(np.nansum(p.objective_kw) * dt),
                "loss_reduction_kwh": red,
                "fraction_of_unconstrained_reduction": (
                    red / unc_red if unc_red not in (None, 0.0) else None
                ),
                "mec": int(p.mec),
                "ec_histogram": hist,
                "zero_ec_count": int(np.sum(p.ec_series == 0)),
                "zero_ec_fraction": float(np.mean(p.ec_series == 0)),
                "infeasible_timesteps": p.n_infeasible,
                "max_relaxation_gap": p.max_tightness,
                "status_counts": dict(sorted(Counter(p.status).items())),
                "errors": {str(t): msg for t, msg in p.errors.items()},
            }
        )
    return {
        "timesteps": tau,
        "timestep_hours": dt,
        "baseline_loss_kwh": baseline_kwh,
        "runs": runs,
    }


# --- mission-profile CSV ------------------------------------------------------


def write_mission_csv(profile, path):
    m = profile.m
    header = (
        ["t"]
        + [f"P_c_{i + 1}" for i in range(m)]
        + [f"Q_c_{i + 1}" for i in range(m)]
        + [f"S_c_{i + 1}" for i in range(m)]
        + ["EC", "status", "obj", "ntwk_loss", "conv_loss"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # repr: shortest exact round-trip, so column sums reproduce the
        # summary totals bit-for-bit
        for t in range(profile.tau):
            row = (
                [t]
                + [repr(float(v) + 0.0) for v in profile.p_mp[t]]
                + [repr(float(v) + 0.0) for v in profile.q_mp[t]]
                + [repr(float(v) + 0.0) for v in profile.s_mp[t]]
                + [
                    int(profile.ec_series[t]),
                    profile.status[t],
                    repr(float(profile.objective_kw[t])),
                    repr(float(profile.ntwk_loss_kw[t])),
                    repr(float(profile.conv_loss_kw[t])),
                ]
            )
            writer.writerow(row)


def read_mission_apparent_powers(path):
    """S_c columns of a mission-profile CSV, as a tau x m array (kVA)."""
    with csv_reader(path, "mission file") as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"mission file {path} is empty") from None
        cols = [i for i, name in enumerate(header) if name.startswith("S_c_")]
        if not cols:
            raise ValidationError(f"mission file {path} has no S_c_* columns")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[i]) for i in cols])
            except (IndexError, ValueError):
                raise ValidationError(
                    f"mission file {path} line {line_no}: malformed row"
                ) from None
    if not rows:
        raise ValidationError(f"mission file {path} has no data rows")
    return np.asarray(rows)
