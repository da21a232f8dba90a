"""One timestep's scheduling optimization as a solver-independent conic IR.

The program minimizes network plus converter losses over the converter's
real/reactive transfers, subject to per-leg apparent-power cones, dc-link
power balance, an affine voltage model with box limits, the total-capacity
budget, and (optionally) a big-M cardinality restriction on the number of
active legs.

The IR is a plain value object: named variables, tagged linear rows,
second-order-cone memberships (head variable bounds the Euclidean norm of a
list of affine expressions), a linear objective, and the big-M constant.
Three records state the model as data next to the rows, so that no consumer
parses row tags back: ``loss_model`` carries the exact loss quadratic (for
diagnostics and oracles that evaluate the unrelaxed objective),
``cardinality`` maps each binary indicator to the leg variable it gates and
holds the budget, and ``converter`` holds the converter constants.  The
rows' tags are labels for people reading a ``serialize_ir`` dump.

An IR also offers itself as a ``StandardForm``, the arrays of
min c'x s.t. A x = b, G x + s = h, s in K that the solver takes, compiled
once on first use and shared by every solve of the program.

The timesteps of a cardinality level differ only in data: the voltage rows'
and the DER pin's right-hand sides, and the loss gradient lam and constant
sigma in the loss epigraph.  A ``ProgramTemplate`` compiles one timestep in
full and gives every timestep, that one included, a ``TimestepProgram``:
the template's form with those entries rewritten, and the records that the
solver, the branch-and-bound search and the mission read.  No IR rows are
built for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

UNCONSTRAINED = "unconstrained"
# A transfer counts as nonzero above this fraction of the converter capacity;
# branch-and-bound's support repair and the EC metric share the rule.
EC_EPS_FRACTION = 1e-5


@dataclass(frozen=True)
class ConverterSpec:
    """Idealised multiport converter: m ac legs sharing one capacity budget."""

    pcc_buses: tuple
    s_total: float  # pu on the network base
    k: float = 0.01  # converter loss per unit apparent power
    has_dc_der: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pcc_buses", tuple(self.pcc_buses))
        if self.m < 2:
            raise ValidationError("converter needs at least 2 terminals")
        if len(set(self.pcc_buses)) != self.m:
            raise ValidationError("PCC buses must be distinct")
        if not (np.isfinite(self.k) and self.k >= 0):
            raise ValidationError("loss coefficient k must be finite and nonnegative")
        if not (np.isfinite(self.s_total) and self.s_total > 0):
            raise ValidationError("total capacity must be finite and positive")

    @property
    def m(self):
        return len(self.pcc_buses)


@dataclass(frozen=True)
class TimestepInput:
    """Per-timestep data: background state, DER output, limits, cardinality."""

    v_min: float
    v_max: float
    background_injections: object = None  # complex per-bus (dict or array), pu
    p_der: float = 0.0
    cardinality_limit: object = UNCONSTRAINED  # int n or "unconstrained"
    monitored_buses: object = None  # None = all non-slack buses

    def __post_init__(self):
        bad = [name for name in ("v_min", "v_max", "p_der") if not np.isfinite(getattr(self, name))]
        bg = self.background_injections
        if isinstance(bg, dict):
            bad += [f"background injection at {bus}" for bus, s in bg.items() if not np.isfinite(s)]
        elif bg is not None and not np.isfinite(np.asarray(bg, dtype=complex)).all():
            bad.append("background_injections")
        if bad:
            raise ValidationError(f"non-finite timestep data: {', '.join(bad)}")
        if not self.v_min < self.v_max:
            raise ValidationError("voltage limits must satisfy v_min < v_max")
        n = self.cardinality_limit
        if n != UNCONSTRAINED and (
            not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0
        ):
            raise ValidationError(
                "cardinality_limit must be 'unconstrained' or a nonnegative integer"
            )


@dataclass(frozen=True)
class Row:
    """Linear row: sum(coeffs[v] * v) (== | <=) rhs."""

    coeffs: dict
    rhs: float
    tag: str = ""


@dataclass(frozen=True)
class AffExpr:
    coeffs: dict
    const: float = 0.0


@dataclass(frozen=True)
class Cone:
    """head >= || tail ||_2, head a variable, tail affine expressions."""

    head: str
    tail: tuple


@dataclass(frozen=True)
class ConicProgramIR:
    variables: tuple
    equalities: tuple  # of Row
    inequalities: tuple  # of Row
    soc_cones: tuple  # of Cone
    binaries: tuple
    objective: AffExpr
    big_m: object = None  # scalar, None when no binaries
    loss_model: dict = field(default_factory=dict)
    # {"indicators": {binary: gated variable}, "budget": n}; {} without binaries
    cardinality: dict = field(default_factory=dict)
    converter: dict = field(default_factory=dict)  # {"k", "s_total", "p_der"}
    # where a timestep's data enters, for ProgramTemplate: {"voltage": the
    # grid row of each monitored bus, whose v_upper and v_lower rows lead the
    # inequalities in that order, "der_pin": its equality or None,
    # "loss_head": the loss-epigraph head's equality, "loss_cone": the cone
    # whose first tail expression holds lam and sigma}; {} when built by hand
    data_rows: dict = field(default_factory=dict)

    def validate(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise ValidationError("duplicate variable names in IR")

        def _check_coeffs(coeffs, locus):
            for v in coeffs:
                if v not in names:
                    raise ValidationError(f"unknown variable {v!r} in {locus}")

        for i, row in enumerate(self.equalities):
            _check_coeffs(row.coeffs, f"equalities[{i}]")
        for i, row in enumerate(self.inequalities):
            _check_coeffs(row.coeffs, f"inequalities[{i}]")
        heads = [c.head for c in self.soc_cones]
        if len(set(heads)) != len(heads):
            raise ValidationError("a variable heads more than one cone")
        for i, cone in enumerate(self.soc_cones):
            if cone.head not in names:
                raise ValidationError(f"cone head {cone.head!r} is not a variable")
            for j, expr in enumerate(cone.tail):
                _check_coeffs(expr.coeffs, f"soc_cones[{i}].tail[{j}]")
        _check_coeffs(self.objective.coeffs, "objective")
        for z in self.binaries:
            if z not in names:
                raise ValidationError(f"binary {z!r} is not a variable")
            for i, row in enumerate(self.equalities):
                if z in row.coeffs:
                    raise ValidationError(f"binary {z!r} appears in equality row {i}")
            for cone in self.soc_cones:
                if z == cone.head or any(z in e.coeffs for e in cone.tail):
                    raise ValidationError(f"binary {z!r} appears in a cone")
            if z in self.objective.coeffs:
                raise ValidationError(f"binary {z!r} appears in the objective")
        for z, gated in self.cardinality.get("indicators", {}).items():
            if z not in self.binaries:
                raise ValidationError(f"indicator {z!r} is not a binary")
            if gated not in names:
                raise ValidationError(f"indicator {z!r} gates unknown variable {gated!r}")
        return self

    @cached_property
    def standard_form(self):
        """The program's ``StandardForm``, compiled on first use."""
        return StandardForm(self)


class StandardForm:
    """The IR as  min c'x + c0  s.t.  A x = b,  G x + s = h,  s in K,  nothing fixed.

    Columns are ``ir.variables`` in order (``columns`` maps a name to its
    column) and the rows of A the equalities.  The rows of G are the
    inequalities, then ``z <= 1`` and ``-z <= 0`` for each binary z, then
    each cone: a head row (-1 on the head, 0 in h) and one row per tail
    expression (minus its coefficients, its constant in h).  K is the
    nonnegative orthant on the first ``dims[0]`` rows of G and one
    second-order cone of each size in ``dims[1]``; cone k starts at row
    ``starts[k]`` of G and has its head in column ``heads[k]``.  A non-finite
    coefficient or right-hand side raises ValidationError.

    The coefficients live only in ``M``, the stacked rows [A; G], and the
    right-hand sides in ``rhs``, [b; h]; A, G, b and h are views of them.
    An entry a row lacks is +0.0 in M, so the nonzeros of M are the
    program's pattern, head rows included.  ``n_ineq`` counts the IR's
    inequalities, the leading rows of G.  The arrays are read-only.
    """

    def __init__(self, ir):
        self.columns = columns = {v: j for j, v in enumerate(ir.variables)}
        self.n_ineq = len(ir.inequalities)
        # the stacked rows of [A; G]: coefficients, their sign in the matrix, rhs
        stacked = [(r.coeffs, 1.0, r.rhs) for r in (*ir.equalities, *ir.inequalities)]
        for z in ir.binaries:
            stacked += [({z: 1.0}, 1.0, 1.0), ({z: -1.0}, 1.0, 0.0)]
        l = len(stacked) - len(ir.equalities)
        sizes = []
        for cone in ir.soc_cones:
            sizes.append(1 + len(cone.tail))
            stacked.append(({cone.head: 1.0}, -1.0, 0.0))
            stacked += [(e.coeffs, -1.0, e.const) for e in cone.tail]
        # set entry by entry, so that a coefficient a row lacks stays +0.0
        M = np.zeros((len(stacked), len(columns)))
        M[
            [r for r, (coeffs, _, _) in enumerate(stacked) for _ in coeffs],
            [columns[v] for coeffs, _, _ in stacked for v in coeffs],
        ] = [sign * cf for coeffs, sign, _ in stacked for cf in coeffs.values()]
        rhs = np.array([float(const) for _, _, const in stacked])
        self.c = np.zeros(len(columns))
        for v, cf in ir.objective.coeffs.items():
            self.c[columns[v]] = cf
        self.c0 = float(ir.objective.const)
        _check_finite(M, rhs, self.c)
        self.c.flags.writeable = False
        self._set_values(M, rhs, len(ir.equalities))
        self.dims = (l, tuple(sizes))
        self.heads = tuple(columns[cone.head] for cone in ir.soc_cones)
        self.starts = tuple(l + sum(sizes[:k]) for k in range(len(sizes)))

    def _set_values(self, M, rhs, p):
        """Take the stacked matrix [A; G] and right-hand side [b; h], read-only."""
        for a in (M, rhs):
            a.flags.writeable = False
        self.M, self.rhs = M, rhs
        self.A, self.b, self.G, self.h = M[:p], rhs[:p], M[p:], rhs[p:]

    def revalued(self, at, values, rhs_at, rhs_values):
        """This form with ``values`` at the entries ``at`` of M, a (stacked
        rows, columns) pair of index arrays, and ``rhs_values`` at the
        stacked rows ``rhs_at`` of rhs.

        The copy has its own M and rhs and shares everything else.
        """
        form = object.__new__(StandardForm)
        form.__dict__.update(self.__dict__)
        M, rhs = self.M.copy(), self.rhs.copy()
        M[at] = values
        rhs[rhs_at] = rhs_values
        _check_finite(M, rhs)
        form._set_values(M, rhs, len(self.b))
        return form


def _check_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValidationError("program has a non-finite coefficient or right-hand side")


def _folded(grid, ts):
    """``grid`` with the timestep's background injections folded in."""
    if ts.background_injections is None:
        return grid
    return grid.fold_background(ts.background_injections)


class _Entries(NamedTuple):
    """The numbers a timestep's data puts into its program."""

    lam: list  # the loss gradient, per x variable
    sigma: float  # the loss constant
    voltage: list  # v_upper and v_lower right-hand sides of each monitored bus, in row order
    der_pin: float  # the DER pin's right-hand side
    # 0.5 lam_j per x variable, +0.0 where lam_j is 0 (as a row without the
    # entry holds): the loss-epigraph head row's coefficients and minus the
    # loss cone's first tail expression's, so the M entries of both rows
    half_lam: list
    head_rhs: float  # the head row's right-hand side
    tail_const: float  # the tail expression's constant


def _entries(grid, ts, bus_rows):
    """The entries a timestep's data sets; ``grid`` has its background folded in.

    Both ``build_timestep_program`` and ``ProgramTemplate`` read them from
    here.  The loss epigraph's head row is U = (t + 1)/2 and its cone's first
    tail expression (t - 1)/2, with t = P_loss_ntwk - lam.x - sigma.
    """
    quad = grid.loss_quad
    lam = [float(v) for v in quad.lam]
    sigma = float(quad.sigma)
    voltage = []
    for r in bus_rows:
        voltage += [float(ts.v_max - grid.b[r]), float(grid.b[r] - ts.v_min)]
    return _Entries(
        lam=lam,
        sigma=sigma,
        voltage=voltage,
        der_pin=float(ts.p_der),
        half_lam=[0.5 * v if v else 0.0 for v in lam],
        head_rhs=0.5 * (1.0 - sigma),
        tail_const=-0.5 * sigma - 0.5,
    )


def _loss_model(x_vars, Lambda, entries):
    return {
        "x_vars": x_vars,
        "Lambda": Lambda,
        "lam": entries.lam,
        "sigma": entries.sigma,
        "epigraph_var": "P_loss_ntwk",
    }


def build_timestep_program(grid, conv, ts):
    """Assemble the timestep's conic program for ``conv`` on ``grid``.

    ``grid`` is a LinearizedGrid whose terminals match ``conv.pcc_buses``;
    background injections and DER output come from ``ts``.
    """
    if list(grid.pcc_buses) != list(conv.pcc_buses):
        raise ValidationError(
            f"grid terminals {grid.pcc_buses} do not match converter {list(conv.pcc_buses)}"
        )
    m = conv.m
    n_card = ts.cardinality_limit
    if n_card != UNCONSTRAINED and n_card > m:
        raise ValidationError(f"cardinality limit {n_card} exceeds terminal count {m}")
    if ts.p_der != 0.0 and not conv.has_dc_der:
        raise ValidationError("p_der given but converter has no dc-link DER")

    grid = _folded(grid, ts)
    mon = ts.monitored_buses
    unknown = [b for b in mon or () if b not in grid.bus_order]
    if unknown:
        raise ValidationError(f"monitored buses {unknown} are not non-slack buses of the grid")
    bus_rows = range(len(grid.bus_order)) if mon is None else [
        grid.bus_order.index(b) for b in mon
    ]
    data = _entries(grid, ts, bus_rows)
    F = grid.loss_quad.F  # Lambda = F^T F, for the conic loss epigraph

    p_c = [f"P_c[{i + 1}]" for i in range(m)]
    q_c = [f"Q_c[{i + 1}]" for i in range(m)]
    s_c = [f"S_c[{i + 1}]" for i in range(m)]
    p_dc = [f"P_dc[{i + 1}]" for i in range(m + 1 if conv.has_dc_der else m)]
    p_lc = [f"P_loss_conv[{i + 1}]" for i in range(m)]
    p_ln = "P_loss_ntwk"
    u_ln = "U_loss"
    z = [f"z[{i + 1}]" for i in range(m)] if n_card != UNCONSTRAINED else []
    variables = tuple(p_c + q_c + s_c + p_dc + p_lc + [p_ln, u_ln] + z)
    x_vars = p_c + q_c
    # the loss rows' coefficients on the x variables with lam_j != 0
    half_lam = {x_vars[j]: cf for j, cf in enumerate(data.half_lam) if data.lam[j] != 0.0}

    equalities = []
    # dc-link power balance over all dc-side entries.
    equalities.append(Row({v: 1.0 for v in p_dc}, 0.0, tag="dc_balance"))
    der_pin = None
    if conv.has_dc_der:
        der_pin = len(equalities)
        equalities.append(Row({p_dc[m]: 1.0}, data.der_pin, tag="der_pin"))
    # per-leg balance and linear converter loss.
    for i in range(m):
        equalities.append(
            Row({p_dc[i]: 1.0, p_lc[i]: 1.0, p_c[i]: -1.0}, 0.0, tag=f"conv_balance[{i + 1}]")
        )
        equalities.append(
            Row({p_lc[i]: 1.0, s_c[i]: -conv.k}, 0.0, tag=f"conv_loss[{i + 1}]")
        )
    # loss-cone head: U = (t + 1)/2 with t = P_loss_ntwk - lam.x - sigma.
    head_row = {u_ln: 1.0, p_ln: -0.5, **half_lam}
    loss_head = len(equalities)
    equalities.append(Row(head_row, data.head_rhs, tag="loss_epigraph_head"))

    inequalities = []
    upper, lower = data.voltage[0::2], data.voltage[1::2]
    for r, up, low in zip(bus_rows, upper, lower):
        bus = grid.bus_order[r]
        coeffs = {v: float(grid.K[r, j]) for j, v in enumerate(x_vars) if grid.K[r, j] != 0.0}
        inequalities.append(Row(dict(coeffs), up, tag=f"v_upper[{bus}]"))
        inequalities.append(Row({v: -c for v, c in coeffs.items()}, low, tag=f"v_lower[{bus}]"))
    inequalities.append(Row({v: 1.0 for v in s_c}, float(conv.s_total), tag="capacity"))

    big_m = None
    if n_card != UNCONSTRAINED:
        big_m = big_m_value(conv)
        for i in range(m):
            inequalities.append(
                Row({s_c[i]: 1.0, z[i]: -big_m}, 0.0, tag=f"big_m[{i + 1}]")
            )
        inequalities.append(Row({v: 1.0 for v in z}, float(n_card), tag="cardinality"))

    cones = [
        Cone(head=s_c[i], tail=(AffExpr({p_c[i]: 1.0}), AffExpr({q_c[i]: 1.0})))
        for i in range(m)
    ]
    # ||((t-1)/2, F x)|| <= (t+1)/2 = U  <=>  ||F x||^2 <= t.
    tail = [AffExpr({p_ln: 0.5, **{v: -cf for v, cf in half_lam.items()}}, data.tail_const)]
    for r in range(F.shape[0]):
        tail.append(
            AffExpr({v: float(F[r, j]) for j, v in enumerate(x_vars) if F[r, j] != 0.0})
        )
    loss_cone = len(cones)
    cones.append(Cone(head=u_ln, tail=tuple(tail)))

    objective = AffExpr({p_ln: 1.0, **{v: 1.0 for v in p_lc}}, 0.0)
    Lambda = [[float(v) for v in row] for row in grid.loss_quad.Lambda]

    ir = ConicProgramIR(
        variables=variables,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        soc_cones=tuple(cones),
        binaries=tuple(z),
        objective=objective,
        big_m=big_m,
        loss_model=_loss_model(list(x_vars), Lambda, data),
        cardinality=(
            {"indicators": dict(zip(z, s_c)), "budget": int(n_card)} if z else {}
        ),
        converter={
            "k": float(conv.k),
            "s_total": float(conv.s_total),
            "p_der": float(ts.p_der),
        },
        data_rows={
            "voltage": list(bus_rows),
            "der_pin": der_pin,
            "loss_head": loss_head,
            "loss_cone": loss_cone,
        },
    )
    return ir.validate()


class TimestepProgram(NamedTuple):
    """What the solver, the branch-and-bound search and the mission read of a
    timestep's program; a ConicProgramIR offers the same attributes."""

    standard_form: StandardForm
    variables: tuple
    binaries: tuple
    cardinality: dict
    big_m: object
    loss_model: dict


class ProgramTemplate:
    """A level's program, compiled once and re-valued for each of its timesteps.

    ``ir`` is the program ``build_timestep_program`` made on ``grid`` for one
    timestep of the level.  ``program(ts)`` gives the TimestepProgram of any
    timestep of the level, that one included (same converter, cardinality
    limit and monitored buses): ``ir``'s standard form with the entries ``_entries``
    sets rewritten in its matrix and right-hand side, sharing the form's
    columns, cone layout and c.  It writes the loss rows' entry on every x
    variable, +0.0 where lam_j is 0 as a full compile leaves it, so a
    timestep whose zero entries differ from ``ir``'s gets its own bits too.
    """

    def __init__(self, grid, ir):
        self.grid, self.ir = grid, ir
        sf, rows, lm = ir.standard_form, ir.data_rows, ir.loss_model
        p = len(sf.b)
        self.bus_rows = rows["voltage"]
        self.has_der = rows["der_pin"] is not None
        head, tail = rows["loss_head"], p + sf.starts[rows["loss_cone"]] + 1
        # the stacked rows whose right-hand sides a timestep sets, in _Entries order
        self.rhs_at = np.array(
            [p + i for i in range(2 * len(self.bus_rows))]
            + [rows["der_pin"]] * self.has_der
            + [head, tail]
        )
        # the head's, then the tail's, entry on each x variable
        cols = [sf.columns[v] for v in lm["x_vars"]]
        self.lam_at = (np.repeat([head, tail], len(cols)), np.array(cols * 2))

    def program(self, ts):
        """Timestep ``ts``'s TimestepProgram."""
        if ts.p_der != 0.0 and not self.has_der:
            raise ValidationError("p_der given but converter has no dc-link DER")
        data = _entries(_folded(self.grid, ts), ts, self.bus_rows)
        rhs = data.voltage + [data.der_pin] * self.has_der + [data.head_rhs, data.tail_const]
        ir = self.ir
        form = ir.standard_form.revalued(self.lam_at, data.half_lam * 2, self.rhs_at, rhs)
        lm = ir.loss_model
        return TimestepProgram(
            standard_form=form,
            variables=ir.variables,
            binaries=ir.binaries,
            cardinality=ir.cardinality,
            big_m=ir.big_m,
            loss_model=_loss_model(lm["x_vars"], lm["Lambda"], data),
        )


def big_m_value(conv):
    """Upper bound for each leg's apparent power: the total capacity."""
    return float(conv.s_total)


# --- serialization ---------------------------------------------------------


def _row_doc(row):
    return {"tag": row.tag, "coeffs": dict(row.coeffs), "rhs": row.rhs}


def _expr_doc(expr):
    return {"coeffs": dict(expr.coeffs), "const": expr.const}


def serialize_ir(ir):
    """Canonical JSON text; section and entry order is construction order."""
    doc = {
        "variables": list(ir.variables),
        "equalities": [_row_doc(r) for r in ir.equalities],
        "inequalities": [_row_doc(r) for r in ir.inequalities],
        "soc_cones": [
            {"head": c.head, "tail": [_expr_doc(e) for e in c.tail]} for c in ir.soc_cones
        ],
        "binaries": list(ir.binaries),
        "objective": _expr_doc(ir.objective),
        "big_m": ir.big_m,
        "loss_model": ir.loss_model,
        "cardinality": ir.cardinality,
        "converter": ir.converter,
    }
    return json.dumps(doc, indent=1)
