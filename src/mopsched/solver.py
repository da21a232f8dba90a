"""Primal-dual interior-point solver for the timestep conic programs.

This is the only numerical engine in the repository.  It solves

    min c'x  s.t.  A x = b,  G x + s = h,  s in K,

where K is a product of a nonnegative orthant and second-order cones, via a
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector.  Infeasibility and unboundedness are certified from the
embedding.  All linear algebra is dense: the timestep programs have tens of
variables, so factorization cost is irrelevant and simplicity wins.

Pipeline for a program IR:  fix binaries -> substitution presolve -> Ruiz
equilibration -> interior-point solve -> unscale -> reassemble full-variable
solution and per-row duals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ValidationError, count_setting, real_setting

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SolverSettings:
    feastol: float = 1e-9
    abstol: float = 1e-9
    reltol: float = 1e-9
    infeastol: float = 1e-9
    max_iter: int = 200
    gamma: float = 0.99  # fraction-to-boundary
    reg: float = 1e-11  # static KKT regularization
    refine: int = 2  # iterative refinement sweeps per KKT solve
    ruiz_iter: int = 4
    # status=optimal is certified against these (looser) thresholds on the
    # original, unscaled data.
    final_tol: float = 1e-8

    def __post_init__(self):
        for name in ("feastol", "abstol", "reltol", "infeastol", "reg", "final_tol"):
            object.__setattr__(self, name, real_setting(f"solver {name}", getattr(self, name)))
        object.__setattr__(self, "gamma", real_setting("solver gamma", self.gamma, high=1.0))
        object.__setattr__(self, "max_iter", count_setting("solver max_iter", self.max_iter, 1))
        for name in ("refine", "ruiz_iter"):
            object.__setattr__(self, name, count_setting(f"solver {name}", getattr(self, name), 0))


@dataclass
class ConicSolution:
    status: str
    primal: dict
    duals: dict
    objective: object = None
    gap: object = None
    relgap: object = None
    primal_residual: object = None
    dual_residual: object = None
    iterations: int = 0
    info: dict = field(default_factory=dict)


# --- cone utilities ---------------------------------------------------------
# Vectors are split as [orthant (l entries), soc block 1, soc block 2, ...].


def _soc_slices(dims):
    l, qs = dims
    out = []
    start = l
    for d in qs:
        out.append(slice(start, start + d))
        start += d
    return out


def _cone_e(dims):
    l, qs = dims
    e = np.zeros(l + sum(qs))
    e[:l] = 1.0
    for sl in _soc_slices(dims):
        e[sl.start] = 1.0
    return e


def _degree(dims):
    l, qs = dims
    return l + len(qs)


def _jordan_prod(u, v, dims):
    l, _ = dims
    out = np.empty_like(u)
    out[:l] = u[:l] * v[:l]
    for sl in _soc_slices(dims):
        u0, u1 = u[sl.start], u[sl.start + 1 : sl.stop]
        v0, v1 = v[sl.start], v[sl.start + 1 : sl.stop]
        out[sl.start] = u0 * v0 + u1 @ v1
        out[sl.start + 1 : sl.stop] = u0 * v1 + v0 * u1
    return out


def _jordan_div(lam, d, dims):
    """Solve lam o u = d for u."""
    l, _ = dims
    out = np.empty_like(d)
    out[:l] = d[:l] / lam[:l]
    for sl in _soc_slices(dims):
        l0, l1 = lam[sl.start], lam[sl.start + 1 : sl.stop]
        d0, d1 = d[sl.start], d[sl.start + 1 : sl.stop]
        det = l0 * l0 - l1 @ l1
        u0 = (l0 * d0 - l1 @ d1) / det
        out[sl.start] = u0
        out[sl.start + 1 : sl.stop] = (d1 - u0 * l1) / l0
    return out


def _max_step(u, du, dims):
    """sup { alpha >= 0 : u + alpha du in K } for u interior to K."""
    l, _ = dims
    alpha = np.inf
    neg = du[:l] < 0
    if neg.any():
        alpha = float(np.min(-u[:l][neg] / du[:l][neg]))
    for sl in _soc_slices(dims):
        u0, u1 = u[sl.start], u[sl.start + 1 : sl.stop]
        d0, d1 = du[sl.start], du[sl.start + 1 : sl.stop]
        a = d0 * d0 - d1 @ d1
        bq = u0 * d0 - u1 @ d1
        cq = u0 * u0 - u1 @ u1
        roots = []
        if abs(a) < 1e-300:
            if bq < 0:
                roots.append(-cq / (2.0 * bq))
        else:
            disc = bq * bq - a * cq
            if disc >= 0.0:
                sq = math.sqrt(disc)
                roots.extend(r for r in ((-bq + sq) / a, (-bq - sq) / a) if r > 0)
        if d0 < 0:
            roots.append(-u0 / d0)
        if roots:
            alpha = min(alpha, min(roots))
    return alpha


def _interior_violation(u, dims):
    """max over blocks of distance past the cone boundary (<0 means interior)."""
    l, qs = dims
    worst = -np.inf
    if l:
        worst = float(np.max(-u[:l]))
    for sl in _soc_slices(dims):
        u0, u1 = u[sl.start], u[sl.start + 1 : sl.stop]
        worst = max(worst, float(np.linalg.norm(u1) - u0))
    return worst


def _nt_scaling(s, z, dims):
    """Dense NT scaling W (symmetric PD) with W z = W^-1 s = lam."""
    l, qs = dims
    q_all = l + sum(qs)
    W = np.zeros((q_all, q_all))
    lam = np.zeros(q_all)
    w_lin = np.sqrt(s[:l] / z[:l])
    W[np.arange(l), np.arange(l)] = w_lin
    lam[:l] = np.sqrt(s[:l] * z[:l])
    for sl in _soc_slices(dims):
        sb, zb = s[sl], z[sl]
        rs = math.sqrt(sb[0] ** 2 - sb[1:] @ sb[1:])
        rz = math.sqrt(zb[0] ** 2 - zb[1:] @ zb[1:])
        sn, zn = sb / rs, zb / rz
        gamma = math.sqrt((1.0 + sn @ zn) / 2.0)
        wb = sn.copy()
        wb[0] += zn[0]
        wb[1:] -= zn[1:]
        wb /= 2.0 * gamma
        d = sl.stop - sl.start
        Wb = np.empty((d, d))
        Wb[0, 0] = wb[0]
        Wb[0, 1:] = wb[1:]
        Wb[1:, 0] = wb[1:]
        Wb[1:, 1:] = np.eye(d - 1) + np.outer(wb[1:], wb[1:]) / (1.0 + wb[0])
        eta = math.sqrt(rs / rz)
        W[sl, sl] = eta * Wb
        lam[sl] = (eta * Wb) @ zb
    return W, lam


# --- homogeneous self-dual interior-point core ------------------------------


def _kkt_factor(A, G, W2, reg):
    n = A.shape[1] if A.size else G.shape[1]
    p, q = A.shape[0], G.shape[0]
    dim = n + p + q
    K = np.zeros((dim, dim))
    if p:
        K[:n, n : n + p] = A.T
        K[n : n + p, :n] = A
    K[:n, n + p :] = G.T
    K[n + p :, :n] = G
    K[n + p :, n + p :] = -W2
    Kreg = K.copy()
    idx = np.arange(dim)
    Kreg[idx[:n], idx[:n]] += reg
    Kreg[idx[n:], idx[n:]] -= reg
    return scipy.linalg.lu_factor(Kreg), K


def _kkt_solve(lu, K, rhs, refine):
    x = scipy.linalg.lu_solve(lu, rhs)
    for _ in range(refine):
        x += scipy.linalg.lu_solve(lu, rhs - K @ x)
    return x


def solve_conelp(c, A, b, G, h, dims, settings=None, trace_rows=None):
    """Solve the standard-form cone LP; returns a raw result dict.

    ``dims`` = (l, [q1, q2, ...]).  Vectors in the result are in the same
    (possibly scaled) data space as the inputs.
    """
    st = settings or SolverSettings()
    c = np.asarray(c, float)
    b = np.asarray(b, float)
    h = np.asarray(h, float)
    A = np.asarray(A, float).reshape(len(b), len(c))
    G = np.asarray(G, float).reshape(len(h), len(c))
    n, p, q = len(c), len(b), len(h)
    if q == 0:
        raise ValidationError("program has no conic part")
    deg = _degree(dims)
    e = _cone_e(dims)

    normb = max(1.0, np.linalg.norm(b)) if p else 1.0
    normh = max(1.0, np.linalg.norm(h))
    normc = max(1.0, np.linalg.norm(c))

    # Initial point: least-squares primal/dual solves at W = I, shifted into
    # the cone interior.
    lu0, K0 = _kkt_factor(A, G, np.eye(q), st.reg)
    sol_p = _kkt_solve(lu0, K0, np.concatenate([np.zeros(n), b, h]), st.refine)
    x = sol_p[:n]
    s = -sol_p[n + p :]
    viol = _interior_violation(s, dims)
    if viol > -1e-8:
        s = s + (1.0 + viol) * e
    sol_d = _kkt_solve(lu0, K0, np.concatenate([-c, np.zeros(p), np.zeros(q)]), st.refine)
    y = sol_d[n : n + p]
    z = sol_d[n + p :]
    viol = _interior_violation(z, dims)
    if viol > -1e-8:
        z = z + (1.0 + viol) * e
    tau, kappa = 1.0, 1.0

    status = NUMERICAL_FAILURE
    metrics = {}
    result_extra = {}
    iters = 0
    best = None  # (score, iterate snapshot, metrics) for graceful degradation
    for it in range(st.max_iter):
        iters = it
        rx = A.T @ y + G.T @ z + c * tau
        ry = A @ x - b * tau
        rz = G @ x + s - h * tau
        rtau = kappa + c @ x + b @ y + h @ z

        xt = x / tau
        st_ = s / tau
        yt = y / tau
        zt = z / tau
        pcost = float(c @ xt)
        dcost = float(-(b @ yt + h @ zt))
        gap = float(st_ @ zt)
        relgap = gap / max(1.0, abs(pcost), abs(dcost))
        pres = max(
            (np.linalg.norm(A @ xt - b) / normb) if p else 0.0,
            np.linalg.norm(G @ xt + st_ - h) / normh,
        )
        dres = np.linalg.norm(A.T @ yt + G.T @ zt + c) / normc
        metrics = dict(
            pcost=pcost, dcost=dcost, gap=gap, relgap=relgap, pres=pres, dres=dres
        )
        score = max(pres, dres, relgap)
        if best is None or score < best[0]:
            best = (score, (x.copy(), y.copy(), z.copy(), s.copy(), tau, kappa), dict(metrics))
        if trace_rows is not None:
            trace_rows.append(
                (it, pcost, dcost, gap, pres, dres, float(tau), float(kappa))
            )

        if pres <= st.feastol and dres <= st.feastol and (
            gap <= st.abstol or relgap <= st.reltol
        ):
            status = OPTIMAL
            break

        by_hz = b @ y + h @ z
        if by_hz < -1e-300:
            cert = np.linalg.norm(A.T @ y + G.T @ z) / (-by_hz)
            if cert <= st.infeastol:
                status = INFEASIBLE
                scale = -1.0 / by_hz
                result_extra = {
                    "cert_y": y * scale,
                    "cert_z": z * scale,
                    "cert_residual": float(cert),
                }
                break
        cx = c @ x
        if cx < -1e-300:
            cert = max(
                np.linalg.norm(A @ x) if p else 0.0, np.linalg.norm(G @ x + s)
            ) / (-cx)
            if cert <= st.infeastol:
                status = UNBOUNDED
                scale = -1.0 / cx
                result_extra = {
                    "cert_x": x * scale,
                    "cert_s": s * scale,
                    "cert_residual": float(cert),
                }
                break

        mu = (s @ z + tau * kappa) / (deg + 1)
        W, lam = _nt_scaling(s, z, dims)
        W2 = W @ W
        lu, K = _kkt_factor(A, G, W2, st.reg)
        u1 = _kkt_solve(lu, K, np.concatenate([-c, b, h]), st.refine)
        den = (c @ u1[:n] + b @ u1[n : n + p] + h @ u1[n + p :]) - kappa / tau

        def direction(ds_rhs, dtau_rhs, xi):
            rhs = np.concatenate(
                [-xi * rx, -xi * ry, -xi * rz - W @ _jordan_div(lam, ds_rhs, dims)]
            )
            u0 = _kkt_solve(lu, K, rhs, st.refine)
            num = -xi * rtau - dtau_rhs / tau - (
                c @ u0[:n] + b @ u0[n : n + p] + h @ u0[n + p :]
            )
            dtau = num / den
            dxyz = u0 + dtau * u1
            dz = dxyz[n + p :]
            ds = W @ (_jordan_div(lam, ds_rhs, dims) - W @ dz)
            dkappa = (dtau_rhs - kappa * dtau) / tau
            return dxyz[:n], dxyz[n : n + p], dz, ds, dtau, dkappa

        lam2 = _jordan_prod(lam, lam, dims)

        # predictor
        dxa, dya, dza, dsa, dtaua, dkappaa = direction(-lam2, -tau * kappa, 1.0)
        alpha = min(
            _max_step(s, dsa, dims),
            _max_step(z, dza, dims),
            (tau / -dtaua) if dtaua < 0 else np.inf,
            (kappa / -dkappaa) if dkappaa < 0 else np.inf,
            1.0,
        )
        mu_aff = (
            (s + alpha * dsa) @ (z + alpha * dza)
            + (tau + alpha * dtaua) * (kappa + alpha * dkappaa)
        ) / (deg + 1)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

        # corrector
        corr = _jordan_prod(np.linalg.solve(W, dsa), W @ dza, dims)
        ds_rhs = -lam2 - corr + sigma * mu * e
        dtau_rhs = -tau * kappa - dtaua * dkappaa + sigma * mu
        dx, dy, dz, ds, dtau, dkappa = direction(ds_rhs, dtau_rhs, 1.0 - sigma)
        amax = min(
            _max_step(s, ds, dims),
            _max_step(z, dz, dims),
            (tau / -dtau) if dtau < 0 else np.inf,
            (kappa / -dkappa) if dkappa < 0 else np.inf,
        )
        alpha = min(1.0, st.gamma * amax)
        if not np.isfinite(alpha) or alpha <= 1e-13:
            break
        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * dz
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status != OPTIMAL and best is not None and best[0] <= st.final_tol:
        # requested tolerances were out of reach but the best iterate still
        # certifies at the coarser acceptance threshold
        status = OPTIMAL
        x, y, z, s, tau, kappa = best[1]
        metrics = best[2]
        result_extra = {"best_iterate": True}

    return dict(
        status=status,
        x=x / tau,
        y=y / tau,
        z=z / tau,
        s=s / tau,
        tau=float(tau),
        kappa=float(kappa),
        iterations=iters + 1,
        **metrics,
        **result_extra,
    )


# --- Ruiz equilibration ------------------------------------------------------


def _ruiz_equilibrate(A, G, dims, iters):
    """Row/column scales for [A; G]; SOC blocks share one row scale."""
    p, q = A.shape[0], G.shape[0]
    n = G.shape[1]
    M = np.vstack([A, G]) if p else G.copy()
    r = np.ones(p + q)
    d = np.ones(n)
    l, qs = dims
    for _ in range(iters):
        Ms = r[:, None] * M * d[None, :]
        rn = np.max(np.abs(Ms), axis=1)
        rn[rn == 0] = 1.0
        for sl in _soc_slices(dims):
            blk = slice(p + sl.start, p + sl.stop)
            rn[blk] = np.max(rn[blk])
        cn = np.max(np.abs(Ms), axis=0)
        cn[cn == 0] = 1.0
        r /= np.sqrt(rn)
        d /= np.sqrt(cn)
    return r[:p], r[p:], d


# --- IR presolve and assembly -------------------------------------------------


class _Infeasible(Exception):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


class _Unbounded(Exception):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(reason)


_FEAS_TOL = 1e-9
_FIX_CONFLICT_TOL = 1e-7


class _Presolved:
    def __init__(self, ir, fixings):
        self.ir = ir
        self.fixed = {}
        self.eqs = [
            {"coeffs": dict(r.coeffs), "rhs": float(r.rhs), "idx": i}
            for i, r in enumerate(ir.equalities)
        ]
        self.ineqs = [
            {"coeffs": dict(r.coeffs), "rhs": float(r.rhs), "idx": i}
            for i, r in enumerate(ir.inequalities)
        ]
        self.cones = [
            {
                "head": c.head,
                "tail": [[dict(e.coeffs), float(e.const)] for e in c.tail],
                "idx": i,
            }
            for i, c in enumerate(ir.soc_cones)
        ]
        self.obj_coeffs = dict(ir.objective.coeffs)
        self.obj_const = float(ir.objective.const)
        self.removed_eq_events = []  # (row_idx, var, coef) in elimination order
        self.cone_zero_vars = set()

        binaries = set(ir.binaries)
        fixings = dict(fixings or {})
        if set(fixings) != binaries:
            raise ValidationError(
                "fixings must cover exactly the binaries of the program "
                f"(expected {sorted(binaries)}, got {sorted(fixings)})"
            )
        for name, val in fixings.items():
            val = float(val)
            if val not in (0.0, 1.0):
                raise ValidationError(f"binary fixing {name}={val} is not in {{0, 1}}")
            self._fix(name, val)
        self._run()

    def _fix(self, var, val):
        if var in self.fixed:
            if abs(self.fixed[var] - val) > _FIX_CONFLICT_TOL:
                raise _Infeasible(
                    f"variable {var} forced to both {self.fixed[var]} and {val}"
                )
            return
        self.fixed[var] = val

    def _substitute(self):
        for row in self.eqs + self.ineqs:
            for var in [v for v in row["coeffs"] if v in self.fixed]:
                row["rhs"] -= row["coeffs"].pop(var) * self.fixed[var]
        for cone in self.cones:
            for entry in cone["tail"]:
                coeffs, _ = entry
                for var in [v for v in coeffs if v in self.fixed]:
                    entry[1] += coeffs.pop(var) * self.fixed[var]
        for var in [v for v in self.obj_coeffs if v in self.fixed]:
            self.obj_const += self.obj_coeffs.pop(var) * self.fixed[var]

    def _run(self):
        changed = True
        while changed:
            changed = False
            self._substitute()
            heads = {c["head"]: c for c in self.cones}

            for row in list(self.eqs):
                if not row["coeffs"]:
                    if abs(row["rhs"]) > _FEAS_TOL:
                        raise _Infeasible(
                            f"equality row {row['idx']} reduces to 0 = {row['rhs']:.3e}"
                        )
                    self.eqs.remove(row)
                    changed = True
                elif len(row["coeffs"]) == 1:
                    (var, coef), = row["coeffs"].items()
                    if abs(coef) < 1e-12:
                        if abs(row["rhs"]) > _FEAS_TOL:
                            raise _Infeasible(f"degenerate equality row {row['idx']}")
                    else:
                        self._fix(var, row["rhs"] / coef)
                        self.removed_eq_events.append((row["idx"], var, coef))
                    self.eqs.remove(row)
                    changed = True

            for row in list(self.ineqs):
                if not row["coeffs"]:
                    if row["rhs"] < -_FEAS_TOL:
                        raise _Infeasible(
                            f"inequality row {row['idx']} reduces to 0 <= {row['rhs']:.3e}"
                        )
                    self.ineqs.remove(row)
                    changed = True
                    continue
                if len(row["coeffs"]) == 1:
                    (var, coef), = row["coeffs"].items()
                    # Cone head forced to zero collapses the whole cone block.
                    if coef > 0 and row["rhs"] / coef <= 1e-12 and var in heads:
                        cone = heads.pop(var)
                        self._collapse_cone(cone, var)
                        self.cones.remove(cone)
                        self.ineqs.remove(row)
                        changed = True

            for cone in list(self.cones):
                if cone["head"] in self.fixed and all(
                    not coeffs for coeffs, _ in cone["tail"]
                ):
                    head_val = self.fixed[cone["head"]]
                    norm = math.hypot(*[const for _, const in cone["tail"]])
                    if head_val < norm - 1e-7:
                        raise _Infeasible(
                            f"cone {cone['idx']} fixed infeasible: {head_val:.3e} < {norm:.3e}"
                        )
                    self.cones.remove(cone)
                    changed = True

        # Variables appearing nowhere: cost-free ones pin to zero.
        used = set()
        for row in self.eqs + self.ineqs:
            used.update(row["coeffs"])
        for cone in self.cones:
            used.add(cone["head"])
            for coeffs, _ in cone["tail"]:
                used.update(coeffs)
        for var in self.ir.variables:
            if var in self.fixed or var in used:
                continue
            if abs(self.obj_coeffs.get(var, 0.0)) > 0:
                raise _Unbounded(f"variable {var} is unconstrained with nonzero cost")
            self._fix(var, 0.0)
        self._substitute()
        self.free_vars = [v for v in self.ir.variables if v not in self.fixed]

    def _collapse_cone(self, cone, head):
        self._fix(head, 0.0)
        self.cone_zero_vars.add(head)
        for coeffs, const in cone["tail"]:
            live = {v: c for v, c in coeffs.items() if v not in self.fixed}
            shift = const + sum(c * self.fixed[v] for v, c in coeffs.items() if v in self.fixed)
            if not live:
                if abs(shift) > _FEAS_TOL:
                    raise _Infeasible(f"cone on {head} forces {shift:.3e} = 0")
            elif len(live) == 1:
                (var, coef), = live.items()
                self._fix(var, -shift / coef)
                self.cone_zero_vars.add(var)
            else:
                self.eqs.append(
                    {"coeffs": live, "rhs": -shift, "idx": -1}
                )


def _assemble(pre):
    """Dense cone-LP arrays from a presolved program."""
    order = pre.free_vars
    vidx = {v: j for j, v in enumerate(order)}
    n = len(order)
    p = len(pre.eqs)
    A = np.zeros((p, n))
    b = np.zeros(p)
    for i, row in enumerate(pre.eqs):
        for v, cf in row["coeffs"].items():
            A[i, vidx[v]] = cf
        b[i] = row["rhs"]
    l = len(pre.ineqs)
    g_rows = [None] * l
    h = np.zeros(l + sum(1 + len(c["tail"]) for c in pre.cones))
    G = np.zeros((len(h), n))
    for i, row in enumerate(pre.ineqs):
        for v, cf in row["coeffs"].items():
            G[i, vidx[v]] = cf
        h[i] = row["rhs"]
    qs = []
    r = l
    for cone in pre.cones:
        qs.append(1 + len(cone["tail"]))
        head = cone["head"]
        if head in pre.fixed:
            h[r] = pre.fixed[head]
        else:
            G[r, vidx[head]] = -1.0
        r += 1
        for coeffs, const in cone["tail"]:
            for v, cf in coeffs.items():
                G[r, vidx[v]] = -cf
            h[r] = const
            r += 1
    c = np.zeros(n)
    for v, cf in pre.obj_coeffs.items():
        if v in vidx:
            c[vidx[v]] = cf
    return order, c, A, b, G, h, (l, qs)


def _reconstruct_duals(pre, y, z_lin, z_cones):
    """Per-row duals on the original IR, recovering duals of presolved rows.

    Rows eliminated while fixing a variable get duals from the stationarity
    conditions of those variables (small least-squares solve); rows swallowed
    by a collapsed cone block are reported as zero.
    """
    ir = pre.ir
    eq_duals = [0.0] * len(ir.equalities)
    for row, yv in zip(pre.eqs, y):
        if row["idx"] >= 0:
            eq_duals[row["idx"]] = float(yv)
    ineq_duals = [0.0] * len(ir.inequalities)
    for row, zv in zip(pre.ineqs, z_lin):
        ineq_duals[row["idx"]] = float(zv)
    cone_duals = [[0.0] * (1 + len(c.tail)) for c in ir.soc_cones]
    for cone, zc in zip(pre.cones, z_cones):
        cone_duals[cone["idx"]] = [float(v) for v in zc]

    events = [
        (idx, var, coef)
        for idx, var, coef in pre.removed_eq_events
        if idx >= 0 and var not in pre.cone_zero_vars
    ]
    if events:
        # stationarity residual of each event variable under known duals
        def grad(var):
            g = float(pre.ir.objective.coeffs.get(var, 0.0))
            for i, row in enumerate(ir.equalities):
                if var in row.coeffs:
                    g += row.coeffs[var] * eq_duals[i]
            for i, row in enumerate(ir.inequalities):
                if var in row.coeffs:
                    g += row.coeffs[var] * ineq_duals[i]
            for ci, cone in enumerate(ir.soc_cones):
                zc = cone_duals[ci]
                if var == cone.head:
                    g -= zc[0]
                for j, expr in enumerate(cone.tail):
                    if var in expr.coeffs:
                        g -= expr.coeffs[var] * zc[1 + j]
            return g

        M = np.zeros((len(events), len(events)))
        rhs = np.zeros(len(events))
        for a, (_, var, _) in enumerate(events):
            rhs[a] = -grad(var)
            for bidx, (row_idx, _, _) in enumerate(events):
                M[a, bidx] = ir.equalities[row_idx].coeffs.get(var, 0.0)
        try:
            sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            sol = np.zeros(len(events))
        for (row_idx, _, _), val in zip(events, sol):
            eq_duals[row_idx] = float(val)
    return {
        "equalities": eq_duals,
        "inequalities": ineq_duals,
        "soc_cones": cone_duals,
    }


def _final_metrics(ir, primal):
    """Primal feasibility of the full-variable solution on the original IR."""
    worst_eq = 0.0
    for row in ir.equalities:
        val = sum(cf * primal[v] for v, cf in row.coeffs.items()) - row.rhs
        worst_eq = max(worst_eq, abs(val))
    worst_in = 0.0
    for row in ir.inequalities:
        val = sum(cf * primal[v] for v, cf in row.coeffs.items()) - row.rhs
        worst_in = max(worst_in, val)
    worst_cone = 0.0
    for cone in ir.soc_cones:
        norm = math.hypot(
            *[
                sum(cf * primal[v] for v, cf in e.coeffs.items()) + e.const
                for e in cone.tail
            ]
        )
        worst_cone = max(worst_cone, norm - primal[cone.head])
    return max(worst_eq, worst_in, worst_cone, 0.0)


def solve_socp(ir, fixings=None, settings=None, trace=None):
    """Solve the continuous program (binaries fixed via ``fixings``).

    Returns a ConicSolution with full-variable primal values, per-row duals,
    residuals measured on the original (unscaled) data, and the duality gap.
    """
    st = settings or SolverSettings()
    try:
        pre = _Presolved(ir, fixings)
    except _Infeasible as inf:
        return ConicSolution(
            status=INFEASIBLE,
            primal={},
            duals={},
            iterations=0,
            info={"presolve": inf.reason, "certificate_residual": 0.0},
        )
    except _Unbounded as unb:
        return ConicSolution(
            status=UNBOUNDED, primal={}, duals={}, iterations=0, info={"presolve": unb.reason}
        )

    if not pre.free_vars:
        primal = {v: pre.fixed[v] for v in ir.variables}
        obj = pre.obj_const
        return ConicSolution(
            status=OPTIMAL,
            primal=primal,
            duals=_reconstruct_duals(pre, [], [], []),
            objective=obj,
            gap=0.0,
            relgap=0.0,
            primal_residual=0.0,
            dual_residual=0.0,
            iterations=0,
            info={"presolve": "fully determined"},
        )

    order, c, A, b, G, h, dims = _assemble(pre)

    rA, rG, d = _ruiz_equilibrate(A, G, dims, st.ruiz_iter)
    As = rA[:, None] * A * d[None, :] if len(b) else A
    bs = rA * b
    Gs = rG[:, None] * G * d[None, :]
    hs = rG * h
    cs = d * c

    trace_rows = [] if trace is not None else None
    raw = solve_conelp(cs, As, bs, Gs, hs, dims, st, trace_rows)
    if trace is not None:
        with open(trace, "w") as fh:
            fh.write("iter,pcost,dcost,gap,pres,dres,tau,kappa\n")
            for row in trace_rows:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")

    if raw["status"] == INFEASIBLE:
        cert_y = raw["cert_y"] * rA if len(b) else raw["cert_y"]
        cert_z = raw["cert_z"] * rG
        denom = -(b @ cert_y + h @ cert_z)
        resid = np.linalg.norm(A.T @ cert_y + G.T @ cert_z) / max(denom, 1e-300)
        return ConicSolution(
            status=INFEASIBLE,
            primal={},
            duals={},
            iterations=raw["iterations"],
            info={"certificate_residual": float(resid)},
        )
    if raw["status"] == UNBOUNDED:
        return ConicSolution(
            status=UNBOUNDED,
            primal={},
            duals={},
            iterations=raw["iterations"],
            info={"certificate_residual": float(raw.get("cert_residual", np.nan))},
        )
    if raw["status"] != OPTIMAL:
        return ConicSolution(
            status=NUMERICAL_FAILURE,
            primal={},
            duals={},
            iterations=raw["iterations"],
            info={k: raw.get(k) for k in ("pres", "dres", "gap", "relgap")},
        )

    # Unscale and evaluate honest metrics on the original data.
    x = d * raw["x"]
    y = rA * raw["y"] if len(b) else raw["y"]
    z = rG * raw["z"]
    s = raw["s"] / rG

    pcost = float(c @ x)
    dcost = float(-(b @ y + h @ z))
    gap = float(s @ z)
    relgap = gap / max(1.0, abs(pcost), abs(dcost))
    pres = max(
        (np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b))) if len(b) else 0.0,
        np.linalg.norm(G @ x + s - h) / max(1.0, np.linalg.norm(h)),
    )
    dres = np.linalg.norm(A.T @ y + G.T @ z + c) / max(1.0, np.linalg.norm(c))
    if max(pres, dres) > st.final_tol or relgap > 10 * st.final_tol:
        return ConicSolution(
            status=NUMERICAL_FAILURE,
            primal={},
            duals={},
            iterations=raw["iterations"],
            info={"pres": pres, "dres": dres, "relgap": relgap, "note": "post-unscale check"},
        )

    primal = dict(pre.fixed)
    for v, val in zip(order, x):
        primal[v] = float(val)
    l = dims[0]
    z_lin = z[:l]
    z_cones = []
    r = l
    for qd in dims[1]:
        z_cones.append(z[r : r + qd])
        r += qd
    duals = _reconstruct_duals(pre, y, z_lin, z_cones)
    objective = pcost + pre.obj_const
    return ConicSolution(
        status=OPTIMAL,
        primal=primal,
        duals=duals,
        objective=float(objective),
        gap=gap,
        relgap=float(relgap),
        primal_residual=float(pres),
        dual_residual=float(dres),
        iterations=raw["iterations"],
        info={
            "dcost": dcost + pre.obj_const,
            "full_violation": _final_metrics(ir, primal),
        },
    )


def dual_objective(sol):
    """Certified lower bound on the optimum (dual objective at the solution)."""
    return sol.info.get("dcost", sol.objective)


def check_relaxation_tightness(ir, sol):
    """Relative slack of the network-loss epigraph at a solution.

    Returns |epigraph - quadratic| / max(1, quadratic) with the quadratic
    evaluated exactly from the IR's loss model.
    """
    lm = ir.loss_model
    if not lm:
        raise ValidationError("program carries no loss model metadata")
    x = np.array([sol.primal[v] for v in lm["x_vars"]])
    Lam = np.asarray(lm["Lambda"], float)
    lam = np.asarray(lm["lam"], float)
    quad = float(x @ Lam @ x + lam @ x + lm["sigma"])
    epi = float(sol.primal[lm["epigraph_var"]])
    return abs(epi - quad) / max(1.0, quad)
