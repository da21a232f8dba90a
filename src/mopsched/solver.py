"""Primal-dual interior-point solver for the timestep conic programs.

This is the only numerical engine in the repository.  It solves

    min c'x  s.t.  A x = b,  G x + s = h,  s in K,

where K is a product of a nonnegative orthant and second-order cones, via a
homogeneous self-dual embedding with Nesterov-Todd scaling and a Mehrotra
predictor-corrector.  Infeasibility and unboundedness are certified from the
embedding.  All linear algebra is dense: the timestep programs have tens of
variables (a KKT matrix of 9 to 136 rows).

At that size the per-call cost of numpy and of the LAPACK wrappers outweighs
the arithmetic, so the interior-point method runs on a batch: a (k, ...)
stack of programs of equal dimensions, advanced in lockstep, each instance
leaving the stack when it finishes.  Every floating-point operation of an
instance is the one a lone solve runs, so a batch gives each program the
bits it would get alone:

* dot products and norms are ``np.vecdot`` (one BLAS ddot per instance and
  cone), matrix-vector and matrix-matrix products are stacked
  ``np.matmul`` (one gemv or gemm per instance), and ``solve(W, .)`` is a
  stacked ``np.linalg.solve`` (one dgesv per instance);
* each instance's KKT matrix is factored by LAPACK getrf and solved by
  getrs with iterative refinement, called directly, one call per instance
  (scipy's ``dgetrf``/``dgetrs``, loaded without ``scipy.linalg``: see
  ``lapack.py``);
* Python's scalar ``min``/``max`` and ``**`` become ``np.where`` chains and
  ``np.float_power``.

Each batch lays out its cones, allocates its KKT, LU and W stacks and fills
the constant blocks of its KKT matrices once; an iteration writes the W
blocks, the -W^2 blocks and the LU factors into those arrays and allocates
none of its own size.  ``solve_socp_many``, the one batching entry point,
groups its presolved requests (``_Presolved``) by key, cuts each group into
batches of as many instances as fit their KKT, LU and W arrays in
``_BATCH_BYTES`` (bytes alone set the width), and equilibrates each batch's
stacked programs together; ``solve_socp`` and ``solve_conelp`` are batches
of one.

Failures take one path each.  An instance that cannot go on (a zero or
non-finite step, or an NT scaling off the cone interior) leaves its batch
``numerical_failure``, or ``optimal`` when its best iterate certifies at
``final_tol``, and the others run on.  A malformed request raises
ValidationError in ``solve_socp_many`` before any batch runs.

Pipeline for a program IR:  take its standard form, compiled once per IR
-> fix the given binaries, relax the others to [0, 1] by their bound rows
-> singleton and empty row presolve (``_Presolved``), which selects rows and
columns of the form -> Ruiz equilibration of the batch's stacks ->
interior-point solve -> unscale -> full-variable solution, with the
presolved program's objective, dual objective, residuals and gap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import lapack
from .errors import ValidationError, count_setting, real_setting

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"

# Bytes of KKT, LU and W arrays one batch may hold, the only bound on its
# width: 5 instances of an ieee33 branch-and-bound relaxation (KKT 136), 7 of
# an unconstrained ieee33 program (KKT 119), 45 of a 5-bus DER program with
# binaries (KKT 50) and 68 of an unconstrained one (KKT 41).  A horizon's
# windows are sized by it (mip._window_width), so a wider batch also holds more
# programs and searches in memory: 5-bus windows of 45 and 68 run the
# benchmark's 5bus_der workload about a fifth faster than windows of 24,
# for about 3 % more peak resident memory.
_BATCH_BYTES = 2 << 20


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
    objective: object = None
    gap: object = None
    relgap: object = None
    primal_residual: object = None
    dual_residual: object = None
    iterations: int = 0
    info: dict = field(default_factory=dict)


# --- batched elementwise helpers ----------------------------------------------
# Python's max(a, b) returns b only when b > a, so a NaN in b never wins and a
# NaN in a never loses; np.maximum would propagate either.


def _larger(a, b):
    return np.where(b > a, b, a)


def _smaller(a, b):
    return np.where(b < a, b, a)


def _mv(M, v):
    """Stacked matrix-vector products M[i] @ v[i]: one gemv per instance."""
    return np.matmul(M, v[..., None])[..., 0]


def _norm(v):
    """np.linalg.norm of each row of v: sqrt of one ddot per row."""
    return np.sqrt(np.vecdot(v, v))


# --- cone utilities ---------------------------------------------------------
# Vectors are split as [orthant (l entries), soc block 1, soc block 2, ...];
# the batched helpers take a (k, size) stack of such vectors.


class _Cones:
    """Layout of the cone K, worked out once per batch.

    ``groups`` holds one index array per second-order-cone dimension d, of
    shape (cones of dimension d, d): row j lists the positions of one cone's
    block, head first.  Cone operations gather a group with ``take`` into a
    C-ordered (k, cones, d) array, so that every dot product runs over
    contiguous memory as in a lone solve (BLAS rounds strided dot products
    differently), and work on all its cones at once.
    """

    def __init__(self, dims):
        l, qs = dims
        self.l = l
        self.size = l + sum(qs)
        self.degree = l + len(qs)
        by_dim = {}
        start = l
        for d in qs:
            by_dim.setdefault(d, []).append(np.arange(start, start + d))
            start += d
        self.groups = [np.array(rows) for rows in by_dim.values()]
        self.e = np.zeros(self.size)
        self.e[:l] = 1.0
        for idx in self.groups:
            self.e[idx[:, 0]] = 1.0


def _jordan_prod(u, v, cones):
    l = cones.l
    out = np.empty_like(u)
    out[:, :l] = u[:, :l] * v[:, :l]
    for idx in cones.groups:
        ub, vb = u.take(idx, axis=1), v.take(idx, axis=1)
        u0, v0 = ub[..., :1], vb[..., :1]
        u1, v1 = ub[..., 1:], vb[..., 1:]
        out[:, idx[:, 0]] = u0[..., 0] * v0[..., 0] + np.vecdot(u1, v1)
        out[:, idx[:, 1:]] = u0 * v1 + v0 * u1
    return out


def _jordan_div(lam, d, cones):
    """Solve lam o u = d for u."""
    l = cones.l
    out = np.empty_like(d)
    out[:, :l] = d[:, :l] / lam[:, :l]
    for idx in cones.groups:
        lb, db = lam.take(idx, axis=1), d.take(idx, axis=1)
        l0, l1 = lb[..., 0], lb[..., 1:]
        d0, d1 = db[..., 0], db[..., 1:]
        det = l0 * l0 - np.vecdot(l1, l1)
        u0 = (l0 * d0 - np.vecdot(l1, d1)) / det
        out[:, idx[:, 0]] = u0
        out[:, idx[:, 1:]] = (d1 - u0[..., None] * l1) / l0[..., None]
    return out


def _ratio(num, den, where):
    """num / den where ``where`` holds, +inf elsewhere (and no warning there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(where, num / den, np.inf)


def _max_step(u, du, cones):
    """sup { alpha >= 0 : u + alpha du in K } for each row u interior to K."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ul, dl = u[:, : cones.l], du[:, : cones.l]
        alpha = np.where(dl < 0, -ul / dl, np.inf).min(axis=1, initial=np.inf)
        for idx in cones.groups:
            ub, db = u.take(idx, axis=1), du.take(idx, axis=1)
            u0, u1 = ub[..., 0], ub[..., 1:]
            d0, d1 = db[..., 0], db[..., 1:]
            a = d0 * d0 - np.vecdot(d1, d1)
            bq = u0 * d0 - np.vecdot(u1, d1)
            cq = u0 * u0 - np.vecdot(u1, u1)
            # the positive roots of a alpha^2 + 2 bq alpha + cq, and the head's
            # zero; a negative discriminant gives NaN roots, which never pass > 0
            sq = np.sqrt(bq * bq - a * cq)
            r1, r2 = (-bq + sq) / a, (-bq - sq) / a
            curved = np.minimum(np.where(r1 > 0, r1, np.inf), np.where(r2 > 0, r2, np.inf))
            flat = np.where(bq < 0, -cq / (2.0 * bq), np.inf)
            roots = np.where(abs(a) < 1e-300, flat, curved)
            roots = np.minimum(roots, np.where(d0 < 0, -u0 / d0, np.inf))
            # every candidate is positive or +inf, so the order of the minima
            # does not matter
            alpha = np.minimum(alpha, roots.min(axis=1))
    return alpha


def _interior_violation(u, cones):
    """max over blocks of distance past the cone boundary (<0 means interior)."""
    l = cones.l
    worst = np.full(len(u), -np.inf)
    if l:
        worst = np.max(-u[:, :l], axis=1)
    for idx in cones.groups:
        ub = u.take(idx, axis=1)
        past = _norm(ub[..., 1:]) - ub[..., 0]
        for j in range(len(idx)):
            worst = _larger(worst, past[:, j])
    return worst


def _nt_scaling(s, z, cones, W):
    """Dense NT scalings W (symmetric PD) with W z = W^-1 s = lam, per instance.

    ``W`` is a (k', size, size) workspace, k' >= k, zero outside the cone
    blocks; its first k matrices get the scalings, and are returned.
    """
    k, l = len(s), cones.l
    W = W[:k]
    lam = np.zeros((k, cones.size))
    lin = np.arange(l)
    W[:, lin, lin] = np.sqrt(s[:, :l] / z[:, :l])
    lam[:, :l] = np.sqrt(s[:, :l] * z[:, :l])
    for idx in cones.groups:
        d = idx.shape[1]
        sb, zb = s.take(idx, axis=1), z.take(idx, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            rs = np.sqrt(np.float_power(sb[..., 0], 2.0) - np.vecdot(sb[..., 1:], sb[..., 1:]))
            rz = np.sqrt(np.float_power(zb[..., 0], 2.0) - np.vecdot(zb[..., 1:], zb[..., 1:]))
            sn, zn = sb / rs[..., None], zb / rz[..., None]
            gamma = np.sqrt((1.0 + np.vecdot(sn, zn)) / 2.0)
            wb = sn.copy()
            wb[..., 0] += zn[..., 0]
            wb[..., 1:] -= zn[..., 1:]
            wb /= (2.0 * gamma)[..., None]
            w1 = wb[..., 1:]
            Wb = np.empty(wb.shape + (d,))
            Wb[..., 0, 0] = wb[..., 0]
            Wb[..., 0, 1:] = w1
            Wb[..., 1:, 0] = w1
            Wb[..., 1:, 1:] = np.eye(d - 1) + (w1[..., :, None] * w1[..., None, :]) / (
                1.0 + wb[..., 0]
            )[..., None, None]
            Wb = np.sqrt(rs / rz)[..., None, None] * Wb
        W[:, idx[:, :, None], idx[:, None, :]] = Wb
        lam[:, idx] = _mv(Wb, zb)
    return W, lam


# --- homogeneous self-dual interior-point core ------------------------------
#
# The KKT matrix is [[0, A', G'], [A, 0, 0], [G, 0, -W^2]].  The direct
# getrf/getrs calls keep scipy's handling of LAPACK's info: an exactly zero
# pivot warns scipy.linalg.LinAlgWarning, the one path that imports
# scipy.linalg.  They check no finiteness: the program data was
# checked where its StandardForm compiled, and an instance whose NT scaling
# leaves the cone interior takes its last step at W = I (see
# _solve_conelp_batch), so one instance's NaN never reaches a stacked call.


def _kkt_matrix(A, G):
    """The KKT matrices of a batch, their -W^2 blocks still empty.

    ``A`` and ``G`` are (k, p, n) and (k, q, n) stacks.  ``_kkt_factor``
    fills the -W^2 blocks.
    """
    k, p, n = A.shape
    q = G.shape[1]
    K = np.zeros((k, n + p + q, n + p + q))
    if p:
        K[:, :n, n : n + p] = A.transpose(0, 2, 1)
        K[:, n : n + p, :n] = A
    K[:, :n, n + p :] = G.transpose(0, 2, 1)
    K[:, n + p :, :n] = G
    return K


def _kkt_factor(K, W, reg, n, lu_ws):
    """Write -W^2 into the KKT stack and LU-factor each instance; returns a (lu, piv) each.

    The factored matrix is K plus the static regularization, +reg on the
    ``n`` x rows and -reg on the others.  It is copied transposed into the
    (k', dim, dim) workspace ``lu_ws``, k' >= k, so that each instance's
    matrix is the Fortran-ordered transpose getrf works in, and is factored
    there in place: each ``lu`` is a view of ``lu_ws``.
    """
    q = W.shape[-1]
    k, dim = K.shape[:2]
    block = K[:, dim - q :, dim - q :]
    np.matmul(W, W, out=block)
    np.negative(block, out=block)
    KT = lu_ws[:k]
    np.copyto(KT, K.transpose(0, 2, 1))
    diag = np.arange(dim)
    KT[:, diag, diag] += np.where(diag < n, reg, -reg)
    lus = []
    for KTi in KT:
        lu, piv, info = lapack.dgetrf(KTi.T, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal getrf")
        if info > 0:
            from scipy.linalg import LinAlgWarning

            warnings.warn(
                f"Diagonal number {info} is exactly zero. Singular matrix.",
                LinAlgWarning,
                stacklevel=2,
            )
        lus.append((lu, piv))
    return lus


def _getrs(lus, rhs):
    """Solve each instance's system in place in ``rhs`` and return it."""
    for (lu, piv), row in zip(lus, rhs):
        x, info = lapack.dgetrs(lu, piv, row, overwrite_b=True)
        if info:
            raise ValueError(f"illegal value in {-info}th argument of internal getrs")
        if x is not row:  # getrs solves a contiguous row in place
            row[...] = x
    return rhs


def _kkt_solve(lus, K, rhs, refine):
    x = _getrs(lus, rhs.copy())
    for _ in range(refine):
        x += _getrs(lus, rhs - _mv(K, x))
    return x


def solve_conelp(c, A, b, G, h, dims, settings=None, trace_rows=None):
    """Solve the standard-form cone LP; returns a raw result dict.

    ``dims`` = (l, [q1, q2, ...]).  Vectors in the result are in the same
    (possibly scaled) data space as the inputs.  ``trace_rows``, a list,
    gets one row per iteration.  A batch of one.
    """
    c = np.asarray(c, float)
    b = np.asarray(b, float)
    h = np.asarray(h, float)
    A = np.asarray(A, float).reshape(len(b), len(c))
    G = np.asarray(G, float).reshape(len(h), len(c))
    batch = (c[None], A[None], b[None], G[None], h[None])
    return _solve_conelp_batch(*batch, dims, settings or SolverSettings(), [trace_rows])[0]


class _Live:
    """The unfinished instances of a batch, as row-aligned stacks.

    ``data`` holds each instance's program and KKT matrix, ``v`` its iterate
    [x, y, z, s, tau, kappa] in one row, ``best``, ``best_score`` and
    ``best_metrics`` its best-scoring iterate so far, and ``ids`` its
    position in the batch.  The KKT stack ``data["K"]`` is the leading rows
    of the batch's own array, compacted in place when rows leave.
    """

    def __init__(self, data, v, traces):
        self.ids = np.arange(len(v))
        self.data = data
        self.v = v
        self.best = v.copy()
        self.best_score = np.full(len(v), np.inf)
        self.best_metrics = np.zeros((len(v), 6))
        self.traces = traces

    def drop(self, rows):
        """Remove the rows where the mask ``rows`` holds."""
        keep = ~rows
        self.ids = self.ids[keep]
        K = self.data["K"]
        for j, i in enumerate(np.flatnonzero(keep)):
            if i != j:
                K[j] = K[i]
        for key in self.data:
            self.data[key] = K[: len(self.ids)] if key == "K" else self.data[key][keep]
        self.v, self.best = self.v[keep], self.best[keep]
        self.best_score, self.best_metrics = self.best_score[keep], self.best_metrics[keep]
        self.traces = [t for t, kept in zip(self.traces, keep) if kept]


_METRICS = ("pcost", "dcost", "gap", "relgap", "pres", "dres")


def _solve_conelp_batch(c, A, b, G, h, dims, st, traces):
    """``solve_conelp`` for each instance of (k, ...) stacks of equal dimensions.

    ``traces`` holds, per instance, None or the list that gets its iteration
    rows.  Returns one raw result dict per instance.
    """
    k, n = c.shape
    p, q = b.shape[1], h.shape[1]
    cones = _Cones(dims)
    deg = cones.degree
    e = cones.e
    dim = n + p + q
    cut = np.cumsum([0, n, p, q, q])  # x, y, z, s in an iterate row; tau and kappa last

    def split(v):
        return [v[:, cut[i] : cut[i + 1]] for i in range(4)]

    # The batch's workspace, its only (k, dim, dim) and (k, q, q) arrays:
    # the KKT stack, the LU stack factored in place and the NT scalings.
    K = _kkt_matrix(A, G)
    lu_ws = np.empty_like(K)
    W_ws = np.zeros((k, q, q))

    # Initial point: least-squares primal/dual solves at W = I, shifted into
    # the cone interior.
    lus = _kkt_factor(K, np.broadcast_to(np.eye(q), (k, q, q)), st.reg, n, lu_ws)
    sol_p = _kkt_solve(lus, K, np.concatenate([np.zeros((k, n)), b, h], axis=1), st.refine)
    sol_d = _kkt_solve(lus, K, np.concatenate([-c, np.zeros((k, p + q))], axis=1), st.refine)
    del lus
    v = np.empty((k, cut[-1] + 2))
    x0, y0, z0, s0 = split(v)
    x0[...] = sol_p[:, :n]
    y0[...] = sol_d[:, n : n + p]
    for out, u in ((s0, -sol_p[:, n + p :]), (z0, sol_d[:, n + p :])):
        viol = _interior_violation(u, cones)
        out[...] = np.where((viol > -1e-8)[:, None], u + (1.0 + viol)[:, None] * e, u)
    v[:, -2:] = 1.0
    norms = [_larger(1.0, _norm(vec)) for vec in (b, h, c)]
    live = _Live(
        dict(
            c=c, b=b, h=h, A=A, G=G, K=K,
            normb=norms[0] if p else np.ones(k), normh=norms[1], normc=norms[2],
            rhs1=np.concatenate([-c, b, h], axis=1),
        ),
        v,
        list(traces),
    )
    del c, b, h, A, G, K, v
    results = [None] * k

    def finish(rows, status, metrics, it, certificate=None):
        """Record the rows where the mask ``rows`` holds as done, row r with ``status[r]``."""
        for r in np.flatnonzero(rows):
            status_r, v_r, metrics_r = str(status[r]), live.v[r], metrics[r]
            extra = certificate(r) if certificate else {}
            if status_r != OPTIMAL and live.best_score[r] <= st.final_tol:
                # requested tolerances were out of reach but the best iterate
                # still certifies at the coarser acceptance threshold
                status_r, v_r, metrics_r = OPTIMAL, live.best[r], live.best_metrics[r]
                extra = {"best_iterate": True}
            tau = v_r[-2]
            x, y, z, s = (v_r[cut[i] : cut[i + 1]] / tau for i in range(4))
            results[live.ids[r]] = dict(
                status=status_r,
                x=x,
                y=y,
                z=z,
                s=s,
                iterations=it + 1,
                **dict(zip(_METRICS, map(float, metrics_r))),
                **extra,
            )
        live.drop(rows)

    def newton_step(rx, ry, rz, rtau):
        """The predictor-corrector step of each live row, its step length, and
        whether its NT scaling left the cone interior."""
        d = live.data
        c, b, h, K = d["c"], d["b"], d["h"], d["K"]
        _, _, z, s = split(live.v)
        tau, kappa = live.v[:, -2], live.v[:, -1]
        kk = len(tau)

        mu = (np.vecdot(s, z) + tau * kappa) / (deg + 1)
        W, lam = _nt_scaling(s, z, cones, W_ws)
        # a row whose scaling left the cone interior ends stuck; W = I and
        # lam = e keep its last step finite for the batch's stacked calls
        lost = ~np.isfinite(lam).all(axis=1) | (lam[:, : cones.l] <= 0).any(axis=1)
        if lost.any():
            W[lost] = np.eye(q)
            lam[lost] = e
        lus = _kkt_factor(K, W, st.reg, n, lu_ws)
        u1 = _kkt_solve(lus, K, d["rhs1"], st.refine)
        den = (
            np.vecdot(c, u1[:, :n]) + np.vecdot(b, u1[:, n : n + p]) + np.vecdot(h, u1[:, n + p :])
        ) - kappa / tau

        def direction(ds_rhs, dtau_rhs, xi):
            """The step [dx, dy, dz, ds, dtau, dkappa] of each row, in an iterate-shaped stack."""
            quot = _jordan_div(lam, ds_rhs, cones)
            nxi = -xi[:, None]
            rhs = np.concatenate([nxi * rx, nxi * ry, nxi * rz - _mv(W, quot)], axis=1)
            u0 = _kkt_solve(lus, K, rhs, st.refine)
            num = -xi * rtau - dtau_rhs / tau - (
                np.vecdot(c, u0[:, :n]) + np.vecdot(b, u0[:, n : n + p]) + np.vecdot(h, u0[:, n + p :])
            )
            dtau = num / den
            out = np.empty((kk, cut[-1] + 2))
            out[:, :dim] = u0 + dtau[:, None] * u1
            out[:, dim:-2] = _mv(W, quot - _mv(W, out[:, n + p : dim]))
            out[:, -2] = dtau
            out[:, -1] = (dtau_rhs - kappa * dtau) / tau
            return out

        def step_to_boundary(step):
            _, _, dz, ds = split(step)
            dtau, dkappa = step[:, -2], step[:, -1]
            both = _max_step(np.concatenate([s, z]), np.concatenate([ds, dz]), cones)
            alpha = _smaller(both[:kk], both[kk:])
            alpha = _smaller(alpha, _ratio(tau, -dtau, dtau < 0))
            return _smaller(alpha, _ratio(kappa, -dkappa, dkappa < 0))

        lam2 = _jordan_prod(lam, lam, cones)

        # predictor
        aff = direction(-lam2, -tau * kappa, np.ones(kk))
        _, _, dza, dsa = split(aff)
        dtaua, dkappaa = aff[:, -2], aff[:, -1]
        alpha = _smaller(step_to_boundary(aff), 1.0)
        mu_aff = (
            np.vecdot(s + alpha[:, None] * dsa, z + alpha[:, None] * dza)
            + (tau + alpha * dtaua) * (kappa + alpha * dkappaa)
        ) / (deg + 1)
        sigma = _smaller(1.0, _larger(0.0, np.float_power(mu_aff / mu, 3.0)))

        # corrector
        corr = _jordan_prod(np.linalg.solve(W, dsa[..., None])[..., 0], _mv(W, dza), cones)
        ds_rhs = -lam2 - corr + (sigma * mu)[:, None] * e
        dtau_rhs = -tau * kappa - dtaua * dkappaa + sigma * mu
        step = direction(ds_rhs, dtau_rhs, 1.0 - sigma)
        return step, _smaller(1.0, st.gamma * step_to_boundary(step)), lost

    for it in range(st.max_iter):
        d = live.data
        c, b, h, A, G = d["c"], d["b"], d["h"], d["A"], d["G"]
        AT, GT = A.transpose(0, 2, 1), G.transpose(0, 2, 1)
        v = live.v
        x, y, z, s = split(v)
        tau, kappa = v[:, -2], v[:, -1]
        aty_gtz = _mv(AT, y) + _mv(GT, z)
        ax = _mv(A, x)
        gx_s = _mv(G, x) + s
        rx = aty_gtz + c * tau[:, None]
        ry = ax - b * tau[:, None]
        rz = gx_s - h * tau[:, None]
        cx, by, hz = np.vecdot(c, x), np.vecdot(b, y), np.vecdot(h, z)
        rtau = kappa + cx + by + hz

        xt, yt, zt, st_ = split(v / tau[:, None])
        pcost = np.vecdot(c, xt)
        dcost = -(np.vecdot(b, yt) + np.vecdot(h, zt))
        gap = np.vecdot(st_, zt)
        relgap = gap / _larger(_larger(1.0, abs(pcost)), abs(dcost))
        pres_eq = _norm(_mv(A, xt) - b) / d["normb"] if p else 0.0
        pres = _larger(pres_eq, _norm(_mv(G, xt) + st_ - h) / d["normh"])
        dres = _norm(_mv(AT, yt) + _mv(GT, zt) + c) / d["normc"]
        del d, c, b, h, A, G, AT, GT, v, xt, yt, zt, st_
        metrics = np.stack([pcost, dcost, gap, relgap, pres, dres], axis=1)
        score = _larger(_larger(pres, dres), relgap)
        better = (score < live.best_score) | (it == 0)
        if better.any():
            live.best_score = np.where(better, score, live.best_score)
            live.best[better] = live.v[better]
            live.best_metrics[better] = metrics[better]
        for r, rows in enumerate(live.traces):
            if rows is not None:
                rows.append((it, *map(float, metrics[r, [0, 1, 2, 4, 5]]), float(tau[r]), float(kappa[r])))

        optimal = (pres <= st.feastol) & (dres <= st.feastol) & (
            (gap <= st.abstol) | (relgap <= st.reltol)
        )
        by_hz = by + hz
        maybe = ~optimal & (by_hz < -1e-300)
        cert_inf = _ratio(_norm(aty_gtz), -by_hz, maybe)
        infeasible = maybe & (cert_inf <= st.infeastol)
        maybe = ~(optimal | infeasible) & (cx < -1e-300)
        cert_unb = _ratio(_larger(_norm(ax) if p else 0.0, _norm(gx_s)), -cx, maybe)
        unbounded = maybe & (cert_unb <= st.infeastol)
        done = optimal | infeasible | unbounded
        if done.any():
            status = np.where(optimal, OPTIMAL, np.where(infeasible, INFEASIBLE, UNBOUNDED))

            def certificate(r):
                if infeasible[r]:
                    scale = -1.0 / by_hz[r]
                    return dict(cert_y=y[r] * scale, cert_z=z[r] * scale, cert_residual=float(cert_inf[r]))
                if unbounded[r]:
                    return dict(cert_residual=float(cert_unb[r]))
                return {}

            finish(done, status, metrics, it, certificate)
            if not len(live.ids):
                break
            keep = ~done
            rx, ry, rz, rtau, metrics = rx[keep], ry[keep], rz[keep], rtau[keep], metrics[keep]
        step, alpha, lost = newton_step(rx, ry, rz, rtau)
        stuck = lost | ~np.isfinite(alpha) | (alpha <= 1e-13)
        if stuck.any():
            finish(stuck, [NUMERICAL_FAILURE] * len(stuck), metrics, it)
            if not len(live.ids):
                break
            metrics, alpha, step = metrics[~stuck], alpha[~stuck], step[~stuck]
        live.v = live.v + alpha[:, None] * step
    else:
        finish(np.ones(len(live.ids), bool), [NUMERICAL_FAILURE] * len(live.ids), metrics, it)
    return results


# --- Ruiz equilibration ------------------------------------------------------


def _ruiz_equilibrate(A, G, dims, iters):
    """Row and column scales of each instance of the (k, rows, cols) stacks
    [A; G]; an SOC block's rows share one scale.

    Every element is scaled, compared and divided as in a lone
    equilibration (maxima are exact), so each instance gets its own bits.
    """
    k, p, n = A.shape
    M = np.concatenate([A, G], axis=1)
    l, qs = dims
    offsets = np.cumsum([0] + list(qs[:-1]))  # of the cone blocks, from row p + l
    r = np.ones(M.shape[:2])
    d = np.ones((k, n))
    for _ in range(iters):
        Ms = np.abs(r[:, :, None] * M * d[:, None, :])
        rn = Ms.max(axis=2)
        rn[rn == 0] = 1.0
        if len(qs):
            rn[:, p + l :] = np.repeat(np.maximum.reduceat(rn[:, p + l :], offsets, axis=1), qs, axis=1)
        cn = Ms.max(axis=1)
        cn[cn == 0] = 1.0
        r /= np.sqrt(rn)
        d /= np.sqrt(cn)
    return r[:, :p], r[:, p:], d


def _scaled_batch(reqs):
    """The equilibrated (c, A, b, G, h) stacks that the interior-point method
    solves for requests of one key, and per request its (rA, rG, d) scales."""
    c, A, b, G, h = (np.stack(arrays) for arrays in zip(*(req.arrays for req in reqs)))
    rA, rG, d = _ruiz_equilibrate(A, G, reqs[0].dims, reqs[0].st.ruiz_iter)
    As, Gs = rA[:, :, None] * A * d[:, None, :], rG[:, :, None] * G * d[:, None, :]
    return (d * c, As, rA * b, Gs, rG * h), list(zip(rA, rG, d))


# --- presolve over the standard form -------------------------------------------


class _Infeasible(Exception):
    """Presolve proved the program infeasible; the message says how."""


_FEAS_TOL = 1e-9
_FIX_CONFLICT_TOL = 1e-7


@cache
def _count_and_index(n):
    """(n, 2) weights: a 0/1 row of n columns times them is its count of ones
    and the sum of their indices, which is the index of a lone one."""
    weights = np.ones((n, 2))
    weights[:, 1] = np.arange(n)
    weights.flags.writeable = False
    return weights


class _Presolved:
    """One request: its program after fixings and presolve, rows and columns
    of ``ir.standard_form``, with its settings ``st``.

    Presolve works on the stacked rows [A; G] of the form.  ``open`` is 1.0
    where ``sf.M`` has a nonzero on a column not yet substituted, a mask it
    builds from the form and drops when done.  A fixed variable is
    substituted into the right-hand side ``rhs`` of each row where it has a
    nonzero, the pending columns in column order, so that a row takes its
    terms in column order (a fixed cone head's value so lands in its head
    row).  A fixed binary's two bound rows are dropped; an unfixed one keeps
    them, relaxed to [0, 1].  Each round substitutes the variables fixed
    since the last one, then applies the singleton and empty row rules
    (Andersen & Andersen, Math. Prog. 71, 1995) to the live equality and
    linear rows with at most one nonzero left, in row order: an equality
    with one nonzero fixes its variable, an empty row is checked and
    dropped, and an inequality that forces a cone head to zero fixes the
    head and each tail expression's one variable and drops the cone.  Model
    programs reach them through fixed binaries, whose off legs' big-M rows
    zero their cones, and through a dc-link DER's pin; a zeroed tail with
    two or more free variables, which only hand-built programs have, raises
    ValidationError.  ``free`` then selects the program's columns, and the
    ``live`` mask of the stacked rows its equality rows ``eq`` and G rows
    ``g_rows``, which ``assemble`` slices into the ``arrays`` a batch stacks.
    """

    def __init__(self, ir, fixings, st=None):
        sf = self.sf = ir.standard_form
        self.st = st
        self.names = ir.variables
        self.n_ineq = sf.n_ineq
        p = len(sf.b)
        self.rhs = sf.rhs.tolist()
        self.live = np.ones(len(self.rhs), bool)  # the stacked rows not dropped
        self.cones = list(range(len(sf.heads)))
        self.fixed = {}  # column -> value, in fixing order
        self.pending = []  # columns fixed but not yet substituted
        self.c0 = sf.c0

        fixings = dict(fixings or {})
        unknown = set(fixings) - set(ir.binaries)
        if unknown:
            raise ValidationError(f"fixings {sorted(unknown)} are not binaries of the program")
        for name, val in fixings.items():
            val = float(val)
            if val not in (0.0, 1.0):
                raise ValidationError(f"binary fixing {name}={val} is not in {{0, 1}}")
            self._fix(sf.columns[name], val)
        bounds = p + self.n_ineq
        for k, z in enumerate(ir.binaries):
            if z in fixings:
                self.live[bounds + 2 * k : bounds + 2 * k + 2] = False
        self.open = (sf.M != 0).astype(float)
        self._run()
        del self.open

        self.free = np.array([j for j in range(len(sf.c)) if j not in self.fixed], int)
        self.eq, self.g_rows = self.live[:p].nonzero()[0], self.live[p:].nonzero()[0]
        sizes = [sf.dims[1][k] for k in self.cones]
        self.dims = (len(self.g_rows) - sum(sizes), sizes)
        self.arrays = self.assemble()  # c, A, b, G, h
        # requests with equal keys can share a batch
        self.key = len(self.free), len(self.eq), self.dims[0], tuple(sizes), st

    def _fix(self, j, val):
        if j in self.fixed:
            if abs(self.fixed[j] - val) > _FIX_CONFLICT_TOL:
                raise _Infeasible(
                    f"variable {self.names[j]} forced to both {self.fixed[j]} and {val}"
                )
            return
        self.fixed[j] = val
        self.pending.append(j)

    def _substitute(self):
        """Substitute the variables fixed since the last call."""
        M, rhs, c = self.sf.M, self.rhs, self.sf.c
        # in column order, so that each row takes its terms in column order
        for j in sorted(self.pending):
            val = self.fixed[j]
            for r in self.open[:, j].nonzero()[0].tolist():
                rhs[r] -= M.item(r, j) * val
            self.open[:, j] = 0.0
            if c[j]:
                self.c0 += float(c[j]) * val
        self.pending = []

    def _run(self):
        sf = self.sf
        p, l = len(sf.b), sf.dims[0]
        weights = _count_and_index(len(sf.c))
        # the equality and linear rows, which the rules read
        open_, live = self.open[: p + l], self.live[: p + l]
        while True:
            self._substitute()
            heads = {sf.heads[k]: k for k in self.cones}
            # each row's count of nonzeros left and the column of a lone one;
            # the live rows with at most one, in row order: the equalities first
            counted = open_ @ weights
            low = ((counted[:, 0] <= 1) & live).nonzero()[0]
            for r, (n, j) in zip(low.tolist(), counted[low].tolist()):
                j, rhs = int(j), self.rhs[r]
                coef = sf.M.item(r, j)  # an empty row's is unread
                if n == 0:
                    if r < p and abs(rhs) > _FEAS_TOL:
                        raise _Infeasible(f"equality row {r} reduces to 0 = {rhs:.3e}")
                    if r >= p and rhs < -_FEAS_TOL:
                        idx = r - p if r - p < self.n_ineq else -1
                        raise _Infeasible(f"inequality row {idx} reduces to 0 <= {rhs:.3e}")
                elif r < p:
                    if abs(coef) >= 1e-12:
                        self._fix(j, rhs / coef)
                    elif abs(rhs) > _FEAS_TOL:
                        raise _Infeasible(f"degenerate equality row {r}")
                elif coef > 0 and rhs / coef <= 1e-12 and j in heads:
                    self._collapse_cone(heads.pop(j), j)
                else:
                    continue  # an inequality on one variable stays
                live[r] = False
            if not self.pending:
                return

    def _collapse_cone(self, k, head):
        """Drop cone k, whose head a row forces to zero: fix the head at 0
        and each tail expression's one free variable where it is 0."""
        name = self.names[head]
        self.cones.remove(k)
        self._fix(head, 0.0)
        start = len(self.sf.b) + self.sf.starts[k]
        stop = start + self.sf.dims[1][k]
        self.live[start:stop] = False
        for t in range(start + 1, stop):
            # the tail expression's coefficients on the columns not yet
            # substituted are minus its G row's
            coeffs = [(j, -self.sf.M.item(t, j)) for j in self.open[t].nonzero()[0].tolist()]
            live = [(j, cf) for j, cf in coeffs if j not in self.fixed]
            shift = self.rhs[t] + sum(cf * self.fixed[j] for j, cf in coeffs if j in self.fixed)
            if len(live) > 1:
                raise ValidationError(f"cone on {name} zeroes a tail of {len(live)} free variables")
            if live:
                ((j, cf),) = live
                self._fix(j, -shift / cf)
            elif abs(shift) > _FEAS_TOL:
                raise _Infeasible(f"cone on {name} forces {shift:.3e} = 0")

    def assemble(self):
        """The presolved program's (c, A, b, G, h): rows and columns of the form."""
        sf, free, eq, g_rows = self.sf, self.free, self.eq, self.g_rows
        rhs = np.array(self.rhs)
        A, G = sf.A.take(eq, 0).take(free, 1), sf.G.take(g_rows, 0).take(free, 1)
        return sf.c[free], A, rhs[eq], G, rhs[len(sf.b) + g_rows]


def _prepare(ir, fixings, st):
    """A _Presolved request, or the infeasible ConicSolution when presolve
    proves it; ValidationError for a fixing that is no binary's 0 or 1, and
    for a program that presolve leaves without a free column or a cone."""
    try:
        pre = _Presolved(ir, fixings, st)
    except _Infeasible as inf:
        info = {"presolve": str(inf), "certificate_residual": 0.0}
        return ConicSolution(INFEASIBLE, {}, iterations=0, info=info)
    if not (len(pre.free) and len(pre.g_rows)):
        raise ValidationError("program has no conic part")
    return pre


def _conic_solution(pre, raw, scales):
    """The ConicSolution of a request from its raw interior-point result and
    its (rA, rG, d) scales."""
    c, A, b, G, h = pre.arrays
    rA, rG, d = scales
    if raw["status"] == INFEASIBLE:
        cert_y = raw["cert_y"] * rA if len(b) else raw["cert_y"]
        cert_z = raw["cert_z"] * rG
        denom = -(b @ cert_y + h @ cert_z)
        resid = np.linalg.norm(A.T @ cert_y + G.T @ cert_z) / max(denom, 1e-300)
        info = {"certificate_residual": float(resid)}
        return ConicSolution(INFEASIBLE, {}, iterations=raw["iterations"], info=info)
    if raw["status"] == UNBOUNDED:
        info = {"certificate_residual": float(raw.get("cert_residual", np.nan))}
        return ConicSolution(UNBOUNDED, {}, iterations=raw["iterations"], info=info)
    if raw["status"] != OPTIMAL:
        info = {k: raw.get(k) for k in ("pres", "dres", "gap", "relgap")}
        return ConicSolution(NUMERICAL_FAILURE, {}, iterations=raw["iterations"], info=info)

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
    if max(pres, dres) > pre.st.final_tol or relgap > 10 * pre.st.final_tol:
        info = {"pres": pres, "dres": dres, "relgap": relgap, "note": "post-unscale check"}
        return ConicSolution(NUMERICAL_FAILURE, {}, iterations=raw["iterations"], info=info)

    primal = {pre.names[j]: val for j, val in pre.fixed.items()}
    primal.update(zip([pre.names[j] for j in pre.free], x.tolist()))
    objective = pcost + pre.c0
    return ConicSolution(
        status=OPTIMAL,
        primal=primal,
        objective=float(objective),
        gap=gap,
        relgap=float(relgap),
        primal_residual=float(pres),
        dual_residual=float(dres),
        iterations=raw["iterations"],
        info={"dcost": dcost + pre.c0},
    )


def _batch_size(n, p, q):
    """Instances per batch: as many as keep their KKT, LU and W arrays in
    _BATCH_BYTES.

    A batch allocates these arrays once, before its first iteration, and
    every iteration writes into them, so an instance holds exactly its KKT
    matrix, its LU factors and its W: 8 (2 dim^2 + q^2) bytes.  That gives
    7 unconstrained ieee33 programs (KKT 119) a batch, 5 ieee33 B&B
    relaxations (KKT 136), and 45 to 75 5-bus programs (KKT 50 to 39).
    """
    dim = n + p + q
    return max(1, _BATCH_BYTES // (8 * (2 * dim * dim + q * q)))


def solve_socp_many(requests, traces=None):
    """Solve continuous programs in lockstep batches, each exactly as ``solve_socp`` would.

    ``requests`` is a sequence of (ir, fixings, settings), the arguments of
    ``solve_socp``, and ``traces`` per request None or a list that gets its
    interior-point iteration rows, (iter, pcost, dcost, gap, pres, dres,
    tau, kappa) each, when the request reaches the interior-point method.
    Requests whose presolved programs have equal dimensions and settings
    share interior-point batches of at most ``_batch_size`` instances.
    Returns one ConicSolution per request, in order; a request that cannot
    go on ends ``numerical_failure``.  A malformed request raises its
    ValidationError before any batch runs.
    """
    traces = traces or [None] * len(requests)
    out = [None] * len(requests)
    groups = {}
    for i, (ir, fixings, settings) in enumerate(requests):
        req = _prepare(ir, fixings, settings or SolverSettings())
        if isinstance(req, ConicSolution):
            out[i] = req
        else:
            groups.setdefault(req.key, []).append((i, req))
    for (n, p, l, qs, st), members in groups.items():
        size = _batch_size(n, p, l + sum(qs))
        for start in range(0, len(members), size):
            batch = members[start : start + size]
            stacks, scales = _scaled_batch([req for _, req in batch])
            raws = _solve_conelp_batch(*stacks, (l, list(qs)), st, [traces[i] for i, _ in batch])
            for (i, req), raw, sc in zip(batch, raws, scales):
                out[i] = _conic_solution(req, raw, sc)
    return out


def solve_socp(ir, fixings=None, settings=None):
    """Solve the continuous program: binaries named in ``fixings`` fixed to
    their 0 or 1, the others relaxed to [0, 1].

    Returns a ConicSolution with full-variable primal values, the dual
    objective ``info["dcost"]``, residuals measured on the original
    (unscaled) data, and the duality gap.  Raises ValidationError for a
    malformed request, as ``solve_socp_many`` does, which also takes a list
    for a request's interior-point iteration rows.
    """
    (sol,) = solve_socp_many([(ir, fixings, settings)])
    return sol


def full_violation(ir, sol):
    """Primal infeasibility of ``sol`` on ``ir``'s standard form.

    The worst of |A x - b|, of the inequalities' violation and of each
    cone's ||tail|| - head, all read from s = h - G x.
    """
    sf = ir.standard_form
    x = np.array([sol.primal[v] for v in ir.variables])
    s = sf.h - sf.G @ x
    worst = [np.abs(sf.A @ x - sf.b).max(initial=0.0), (-s[: sf.n_ineq]).max(initial=0.0), 0.0]
    s = s.tolist()
    worst += [math.hypot(*s[i + 1 : i + q]) - s[i] for i, q in zip(sf.starts, sf.dims[1])]
    return float(max(worst))


def dual_objective(sol):
    """The dual objective at the final iterate, B&B's node bound: its dual
    residual may reach ``feastol``, so it is not certified (ROADMAP item 12)."""
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
