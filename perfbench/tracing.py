"""Traced runs: spans recorded around the program's layers from outside.

The tracer replaces module-level functions with wrappers that record a span
(name, start, end, parent, level, timestep) plus a few counts read from the
call's arguments and result.  No program file is edited; the originals are
put back on exit.  A wrapper target that no longer exists raises, so a
renamed layer fails the benchmark instead of reading as zero.

Spans are kept in memory and written out when the run ends.  The tracer
assumes one thread (the benchmark runs with ``jobs = 1``).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass, field


class TraceTargetMissing(RuntimeError):
    """A wrap target is gone from its module."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    level: object
    timestep: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _conelp_attrs(args, kwargs, result):
    c, _, b, _, h = args[:5]
    return {"kkt_dim": len(c) + len(b) + len(h)}


# ``result`` is None when the call raised: mip.solve_misocp raises
# MopschedError on a failed continuous or re-verification solve, and mission
# records that timestep as ``error``.
def _socp_attrs(args, kwargs, result):
    fixings = args[1] if len(args) > 1 else kwargs.get("fixings")
    return {
        "fixed": bool(fixings),
        "iterations": 0 if result is None else int(result.iterations),
        "status": "error" if result is None else result.status,
    }


def _misocp_attrs(args, kwargs, result):
    ir = args[0] if args else kwargs["ir"]
    return {
        "binaries": bool(ir.binaries),
        "nodes": 0 if result is None else int(result.nodes_explored),
        "status": "error" if result is None else result.status,
    }


# (module name, function name, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("solver", "solve_conelp", "solver.solve_conelp", _conelp_attrs),
    ("solver", "solve_socp", "solver.solve_socp", _socp_attrs),
    ("mip", "solve_misocp", "mip.solve_misocp", _misocp_attrs),
    # mission imports build_timestep_program by name, so it is patched there
    ("mission", "build_timestep_program", "program.build_timestep_program", None),
    ("mission", "schedule_horizon", "mission.schedule_horizon", None),
    ("mission", "write_mission_csv", "mission.write_mission_csv", None),
    ("mission", "summarize", "mission.summarize", None),
    ("svgplot", "line_chart", "svgplot.line_chart", None),
    ("svgplot", "bar_chart", "svgplot.bar_chart", None),
    ("grid", "linearize", "grid.linearize", None),
    ("profiles", "synthetic_profiles", "profiles.synthetic_profiles", None),
)


class Tracer:
    """Records spans around wrapped functions while installed (a context manager)."""

    def __init__(self, modules, targets=TARGETS):
        self.spans = []
        self._modules = modules  # short name -> module object
        self._targets = targets
        self._stack = []
        self._saved = []
        self._level = None
        self._timestep = None

    def __enter__(self):
        try:
            for mod_name, fn_name, span_name, attrs in self._targets:
                module = self._modules[mod_name]
                original = getattr(module, fn_name, None)
                if not callable(original):
                    raise TraceTargetMissing(f"{module.__name__}.{fn_name} no longer exists")
                self._saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(original, span_name, attrs))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the benchmark's own call."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name, horizon=None):
        if horizon is not None:
            self._level, self._timestep = horizon.cardinality_limit, -1
        elif name == "program.build_timestep_program" and self._timestep is not None:
            self._timestep += 1
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._level, self._timestep)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == "mission.schedule_horizon":
            self._level = self._timestep = None

    def _wrap(self, original, span_name, attrs):
        def wrapper(*args, **kwargs):
            horizon = None
            if span_name == "mission.schedule_horizon":
                horizon = args[2] if len(args) > 2 else kwargs["horizon"]
            span = self._open(span_name, horizon)
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        clipped = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def _p(values, q):
    """The q-th percentile (0 < q < 100) of values, exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(spans, scale=1.0):
    """Per-layer times and counts of one traced horizon run.

    Every time is multiplied by ``scale`` (the repetition's factor to the
    reference speed, see ``speed.py``); counts are not.
    """
    own = [t * scale for t in self_times(spans)]
    dur = [s.duration * scale for s in spans]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def self_total(name):
        return sum(own[i] for i in by_name.get(name, ()))

    socp = [spans[i] for i in by_name.get("solver.solve_socp", ())]
    conelp = [spans[i] for i in by_name.get("solver.solve_conelp", ())]
    misocp = [spans[i] for i in by_name.get("mip.solve_misocp", ())]
    builds = by_name.get("program.build_timestep_program", ())
    relax = verify = direct = 0
    for s in socp:
        parent = spans[s.parent] if s.parent >= 0 else None
        if parent is None or parent.name != "mip.solve_misocp":
            continue
        if not parent.attrs.get("binaries", False):
            direct += 1
        elif s.attrs.get("fixed", False):
            verify += 1
        else:
            relax += 1
    iters = sum(s.attrs.get("iterations", 0) for s in socp)
    failures = sum(1 for s in socp if s.attrs.get("status") == "numerical_failure")
    ipm_s = total("solver.solve_conelp")
    build_s = total("program.build_timestep_program")
    step_ms = [dur[i] * 1e3 for i in by_name.get("mip.solve_misocp", ())]
    artifacts = (
        "mission.write_mission_csv",
        "mission.summarize",
        "svgplot.line_chart",
        "svgplot.bar_chart",
    )
    n_socp = len(socp)
    return {
        "cli.artifacts_s": sum(total(name) for name in artifacts),
        "grid.linearize_ms": total("grid.linearize") * 1e3,
        "profiles.synthetic_ms": total("profiles.synthetic_profiles") * 1e3,
        "program.builds": len(builds),
        "program.build_s": build_s,
        "program.build_ms_per_call": build_s * 1e3 / max(1, len(builds)),
        "solver.socp_solves": n_socp,
        "solver.socp_self_s": self_total("solver.solve_socp"),
        "solver.ipm_s": ipm_s,
        "solver.ipm_iters": iters,
        "solver.ipm_iters_per_solve": iters / max(1, n_socp),
        "solver.ipm_ms_per_iter": ipm_s * 1e3 / max(1, iters),
        "solver.kkt_dim_mean": (
            statistics.fmean(s.attrs.get("kkt_dim", 0) for s in conelp) if conelp else 0.0
        ),
        "solver.numerical_failures": failures,
        "solver.useful_solve_frac": (n_socp - failures) / max(1, n_socp),
        "mip.bnb_self_s": self_total("mip.solve_misocp"),
        "mip.direct_solves": direct,
        "mip.node_relaxations": relax,
        "mip.verify_solves": verify,
        "mip.solves_per_timestep": (direct + relax + verify) / max(1, len(misocp)),
        "mip.nodes_per_timestep_max": max((s.attrs.get("nodes", 0) for s in misocp), default=0),
        "mip.gap_reached": sum(1 for s in misocp if s.attrs.get("status") == "gap_reached"),
        "mission.self_s": self_total("mission.schedule_horizon"),
        "mission.timestep_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "mission.timestep_ms_p95": _p(step_ms, 95) if step_ms else 0.0,
    }
