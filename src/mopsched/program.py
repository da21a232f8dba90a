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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, ValidationError

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

    # Factor Lambda = F^T F for the conic loss epigraph.
    lam_mat = np.asarray(quad.Lambda, dtype=float)
    try:
        evals, evecs = np.linalg.eigh(0.5 * (lam_mat + lam_mat.T))
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"loss quadratic factorization failed: {exc}") from exc
    if evals.min() < -1e-9 * max(1.0, abs(evals).max()):
        raise ModelError(f"loss quadratic is not PSD (min eigenvalue {evals.min():.3e})")
    keep = evals > abs(evals).max() * 1e-14 if evals.size else np.zeros(0, bool)
    F = (np.sqrt(evals[keep])[:, None] * evecs[:, keep].T) if keep.any() else np.zeros((0, 2 * m))

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
