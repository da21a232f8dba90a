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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

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

    For presolve, ``by_row`` and ``by_col`` list the nonzeros of the stacked
    rows [A; G] outside the head rows as (ptr, index, value) lists: row r's
    columns are ``index[ptr[r]:ptr[r + 1]]`` of ``by_row``, in column order,
    and their values the same slice of ``value``; ``by_col`` lists each
    column's rows the same way.  The arrays are read-only.
    """

    def __init__(self, ir):
        self.columns = columns = {v: j for j, v in enumerate(ir.variables)}
        # the stacked rows of [A; G]: coefficients, their sign in the matrix, rhs
        stacked = [(r.coeffs, 1.0, r.rhs) for r in (*ir.equalities, *ir.inequalities)]
        for z in ir.binaries:
            stacked += [({z: 1.0}, 1.0, 1.0), ({z: -1.0}, 1.0, 0.0)]
        l = len(stacked) - len(ir.equalities)
        sizes, head_rows = [], []
        for cone in ir.soc_cones:
            sizes.append(1 + len(cone.tail))
            head_rows.append(len(stacked))
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
        if not (np.isfinite(M).all() and np.isfinite(rhs).all() and np.isfinite(self.c).all()):
            raise ValidationError("program has a non-finite coefficient or right-hand side")
        nonzero = M != 0
        nonzero[head_rows] = False
        self.by_row, self.by_col = _compressed(M, nonzero), _compressed(M.T, nonzero.T)
        for a in (M, rhs, self.c):
            a.flags.writeable = False
        p = len(ir.equalities)
        self.A, self.b, self.G, self.h = M[:p], rhs[:p], M[p:], rhs[p:]
        self.dims = (l, tuple(sizes))
        self.heads = tuple(columns[cone.head] for cone in ir.soc_cones)
        self.starts = tuple(l + sum(sizes[:k]) for k in range(len(sizes)))


def _compressed(M, mask):
    """(ptr, index, value) lists of the entries of M where mask holds, row by row."""
    rows, index = np.nonzero(mask)
    ptr = np.searchsorted(rows, np.arange(len(M) + 1))
    return ptr.tolist(), index.tolist(), M[rows, index].tolist()


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

    if ts.background_injections is not None:
        grid = grid.fold_background(ts.background_injections)
    quad = grid.loss_quad
    F = quad.F  # Lambda = F^T F, for the conic loss epigraph

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

    equalities = []
    # dc-link power balance over all dc-side entries.
    equalities.append(Row({v: 1.0 for v in p_dc}, 0.0, tag="dc_balance"))
    if conv.has_dc_der:
        equalities.append(Row({p_dc[m]: 1.0}, float(ts.p_der), tag="der_pin"))
    # per-leg balance and linear converter loss.
    for i in range(m):
        equalities.append(
            Row({p_dc[i]: 1.0, p_lc[i]: 1.0, p_c[i]: -1.0}, 0.0, tag=f"conv_balance[{i + 1}]")
        )
        equalities.append(
            Row({p_lc[i]: 1.0, s_c[i]: -conv.k}, 0.0, tag=f"conv_loss[{i + 1}]")
        )
    # loss-cone head: U = (t + 1)/2 with t = P_loss_ntwk - lam.x - sigma.
    head_row = {u_ln: 1.0, p_ln: -0.5}
    for j, v in enumerate(x_vars):
        if quad.lam[j] != 0.0:
            head_row[v] = 0.5 * float(quad.lam[j])
    equalities.append(Row(head_row, 0.5 * (1.0 - float(quad.sigma)), tag="loss_epigraph_head"))

    inequalities = []
    mon = ts.monitored_buses
    unknown = [b for b in mon or () if b not in grid.bus_order]
    if unknown:
        raise ValidationError(f"monitored buses {unknown} are not non-slack buses of the grid")
    bus_rows = range(len(grid.bus_order)) if mon is None else [
        grid.bus_order.index(b) for b in mon
    ]
    for r in bus_rows:
        bus = grid.bus_order[r]
        coeffs = {v: float(grid.K[r, j]) for j, v in enumerate(x_vars) if grid.K[r, j] != 0.0}
        inequalities.append(Row(dict(coeffs), float(ts.v_max - grid.b[r]), tag=f"v_upper[{bus}]"))
        inequalities.append(
            Row({v: -c for v, c in coeffs.items()}, float(grid.b[r] - ts.v_min), tag=f"v_lower[{bus}]")
        )
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
    tail = [
        AffExpr(
            {p_ln: 0.5, **{v: -0.5 * float(quad.lam[j]) for j, v in enumerate(x_vars) if quad.lam[j] != 0.0}},
            -0.5 * float(quad.sigma) - 0.5,
        )
    ]
    for r in range(F.shape[0]):
        tail.append(
            AffExpr({v: float(F[r, j]) for j, v in enumerate(x_vars) if F[r, j] != 0.0})
        )
    cones.append(Cone(head=u_ln, tail=tuple(tail)))

    objective = AffExpr({p_ln: 1.0, **{v: 1.0 for v in p_lc}}, 0.0)

    loss_model = {
        "x_vars": list(x_vars),
        "Lambda": [[float(v) for v in row] for row in quad.Lambda],
        "lam": [float(v) for v in quad.lam],
        "sigma": float(quad.sigma),
        "epigraph_var": p_ln,
    }

    ir = ConicProgramIR(
        variables=variables,
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        soc_cones=tuple(cones),
        binaries=tuple(z),
        objective=objective,
        big_m=big_m,
        loss_model=loss_model,
        cardinality=(
            {"indicators": dict(zip(z, s_c)), "budget": int(n_card)} if z else {}
        ),
        converter={
            "k": float(conv.k),
            "s_total": float(conv.s_total),
            "p_der": float(ts.p_der),
        },
    )
    return ir.validate()


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
