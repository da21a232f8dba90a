"""Network admittance model, no-load linearization, and loss surrogate.

The scheduling optimization never sees the nonlinear network equations.  It
consumes an affine voltage-magnitude model ``V = K x + b`` and a convex
quadratic surrogate for total network loss, both expanded about the no-load
(zero-injection) voltage solution.  A fixed-point AC power flow lives
alongside as the validation oracle for both models.

Conventions:
  * buses are ordered slack-first, remaining buses in declaration order;
  * complex power injections are positive when power flows INTO the network
    (generation positive, demand negative), per-unit on ``s_base_kva``;
  * the stacked injection vector is ``x = [P..., Q...]`` over the selected
    buses, so sensitivity matrices have ``2 * n_selected`` columns.

YLL, the load-bus block of the admittance matrix, is factored once per
network by LAPACK's zgetrf and solved by zgetrs with scipy's
``lu_factor``/``lu_solve`` semantics, called directly (see ``lapack.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lapack
from .errors import ModelError, PowerFlowDivergence, ValidationError, real_number

PF_TOL = 1e-10
PF_MAX_ITER = 100


@dataclass(frozen=True)
class Bus:
    id: str
    kind: str  # "slack" | "load"


@dataclass(frozen=True)
class Branch:
    from_bus: str
    to_bus: str
    r_pu: float
    x_pu: float
    b_shunt_pu: float = 0.0


@dataclass(frozen=True)
class BusNetwork:
    """Raw electrical model: buses, branches, slack voltage, per-unit base."""

    buses: tuple
    branches: tuple
    slack_voltage: complex = 1.0 + 0.0j
    s_base_kva: float = 1000.0

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        self._validate()

    def _validate(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise ModelError("duplicate bus ids in network")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise ModelError(f"expected exactly one slack bus, got {len(slacks)}")
        bad_kind = [b.id for b in self.buses if b.kind not in ("slack", "load")]
        if bad_kind:
            raise ModelError(f"unknown bus kind on {bad_kind}")
        if not (np.isfinite(self.s_base_kva) and self.s_base_kva > 0):
            raise ModelError(f"network base power must be finite and positive, got {self.s_base_kva!r}")
        if not 0.5 <= abs(self.slack_voltage) <= 1.5:
            raise ModelError(f"slack voltage magnitude must be within [0.5, 1.5] pu, got {self.slack_voltage!r}")
        id_set = set(ids)
        for br in self.branches:
            if br.from_bus not in id_set or br.to_bus not in id_set:
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} references unknown bus")
            if not np.all(np.isfinite([br.r_pu, br.x_pu, br.b_shunt_pu])):
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} has a non-finite parameter")
            if br.r_pu < 0:
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} has negative resistance")
            if abs(complex(br.r_pu, br.x_pu)) == 0.0:
                raise ModelError(f"branch {br.from_bus}-{br.to_bus} has zero impedance")
        # Connectivity over the branch graph.
        adj = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {ids[0]}
        stack = [ids[0]]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != id_set:
            raise ModelError(f"branch graph is disconnected: unreachable {sorted(id_set - seen)}")

    @property
    def slack_id(self):
        return next(b.id for b in self.buses if b.kind == "slack")

    @property
    def bus_order(self):
        """Bus ids, slack first, remaining buses in declaration order."""
        slack = self.slack_id
        return [slack] + [b.id for b in self.buses if b.id != slack]

    @property
    def load_order(self):
        return self.bus_order[1:]

    @property
    def n_bus(self):
        return len(self.buses)

    def bus_index(self, bus_id):
        try:
            return self.bus_order.index(bus_id)
        except ValueError:
            raise ModelError(f"bus {bus_id!r} not in network") from None

    def injection_vector(self, injections):
        """Complex injections at non-slack buses (mapping or aligned array)."""
        s = np.zeros(self.n_bus - 1, dtype=complex)
        if isinstance(injections, dict):
            for bid, val in injections.items():
                if bid == self.slack_id:
                    raise ModelError("cannot specify an injection at the slack bus")
                s[self.bus_index(bid) - 1] += complex(val)
            return s
        arr = np.asarray(injections, dtype=complex)
        if arr.shape != (self.n_bus - 1,):
            raise ValidationError(
                f"injection vector has shape {arr.shape}, expected ({self.n_bus - 1},)"
            )
        return s + arr


def network_from_json(doc):
    """Build a BusNetwork from a parsed document of the network JSON schema."""
    try:
        slack_re, slack_im = (real_number("network slack_voltage_pu", v) for v in doc["slack_voltage_pu"])
        buses = tuple(Bus(id=str(b["id"]), kind=str(b["kind"])) for b in doc["buses"])
        branches = tuple(
            Branch(
                from_bus=str(br["from"]),
                to_bus=str(br["to"]),
                r_pu=real_number("network branch r_pu", br["r_pu"]),
                x_pu=real_number("network branch x_pu", br["x_pu"]),
                b_shunt_pu=real_number("network branch b_shunt_pu", br.get("b_shunt_pu", 0.0)),
            )
            for br in doc["branches"]
        )
        return BusNetwork(
            buses=buses,
            branches=branches,
            slack_voltage=complex(slack_re, slack_im),
            s_base_kva=real_number("network s_base_kva", doc["s_base_kva"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc!r}") from exc


def network_to_json(net):
    return {
        "s_base_kva": net.s_base_kva,
        "slack_voltage_pu": [net.slack_voltage.real, net.slack_voltage.imag],
        "buses": [{"id": b.id, "kind": b.kind} for b in net.buses],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "r_pu": br.r_pu,
                "x_pu": br.x_pu,
                "b_shunt_pu": br.b_shunt_pu,
            }
            for br in net.branches
        ],
    }


def build_admittance(net):
    """Bus admittance matrix, slack-first ordering, pi-model branches.

    ``b_shunt_pu`` is the total line-charging susceptance, split equally
    between the two terminal buses.
    """
    order = {bid: i for i, bid in enumerate(net.bus_order)}
    n = net.n_bus
    Y = np.zeros((n, n), dtype=complex)
    for br in net.branches:
        y = 1.0 / complex(br.r_pu, br.x_pu)
        f, t = order[br.from_bus], order[br.to_bus]
        Y[f, f] += y + 0.5j * br.b_shunt_pu
        Y[t, t] += y + 0.5j * br.b_shunt_pu
        Y[f, t] -= y
        Y[t, f] -= y
    return Y


def _yll_factor(Y):
    """LU factors (lu, piv) of YLL, as scipy.linalg.lu_factor gives them.

    Y[1:, 1:] is a view of Y, so zgetrf factors a copy.  An exactly zero
    pivot, or a factor that overflowed, means no no-load solution.
    """
    lu, piv, info = lapack.zgetrf(np.asarray_chkfinite(Y[1:, 1:]), overwrite_a=False)
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal getrf")
    if info > 0 or not np.all(np.isfinite(lu)):
        raise ModelError("load-bus admittance block is singular")
    return lu, piv


def _getrs(lu, b):
    """scipy.linalg.lu_solve(lu, b): zgetrs on a copy of ``b``."""
    x, info = lapack.zgetrs(*lu, np.asarray_chkfinite(b), overwrite_b=False)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def _lu_solve(lu, rhs):
    """lu_solve for one vector, as the first of two equal columns: LAPACK's
    one-column solve rounds differently at one and at two BLAS threads, the
    two-column one gives the one-thread bits at both."""
    return _getrs(lu, np.column_stack([rhs, rhs]))[:, 0]


def _noload(net, Y, lu):
    """w = -YLL^-1 YL0 v_slack from the LU factors of YLL, residual-checked."""
    w = _lu_solve(lu, -Y[1:, 0] * net.slack_voltage)
    resid = np.max(np.abs(Y[1:, 0] * net.slack_voltage + Y[1:, 1:] @ w))
    if resid > 1e-8:
        raise ModelError(f"no-load solve residual {resid:.3e} exceeds tolerance")
    return w


def solve_noload(net):
    """No-load voltages at non-slack buses: w = -YLL^-1 YL0 v_slack."""
    Y = build_admittance(net)
    return _noload(net, Y, _yll_factor(Y))


def ac_power_flow(net, injections):
    """Fixed-point AC power flow; returns (all-bus voltages, total loss).

    Iterates v <- w + YLL^-1 diag(conj(v))^-1 conj(s) from the no-load
    solution.  Convergence is measured by the infinity norm of the nodal
    power mismatch.  Divergence raises with the last residual attached.
    """
    Y = build_admittance(net)
    lu = _yll_factor(Y)
    w = _noload(net, Y, lu)
    s = net.injection_vector(injections)
    v = w.copy()
    resid = np.inf
    for it in range(PF_MAX_ITER):
        v_new = w + _lu_solve(lu, np.conj(s / v))
        if not np.all(np.isfinite(v_new)) or np.any(np.abs(v_new) < 1e-6):
            raise PowerFlowDivergence(resid if np.isfinite(resid) else np.inf, it)
        v = v_new
        mismatch = v * np.conj(Y[1:, 0] * net.slack_voltage + Y[1:, 1:] @ v) - s
        resid = float(np.max(np.abs(mismatch))) if len(mismatch) else 0.0
        if resid < PF_TOL:
            v_full = np.concatenate(([net.slack_voltage], v))
            loss = float(np.real(np.conj(v_full) @ Y @ v_full))
            return v_full, loss
    raise PowerFlowDivergence(resid, PF_MAX_ITER)


@dataclass(frozen=True)
class LossQuadratic:
    Lambda: np.ndarray  # 2m x 2m, symmetric PSD
    lam: np.ndarray  # 2m
    sigma: float
    F: np.ndarray  # r x 2m with Lambda = F^T F, r its numerical rank


def _loss_factor(Lambda):
    """F with Lambda = F^T F, from the eigenpairs of Lambda's symmetric part."""
    try:
        evals, evecs = np.linalg.eigh(0.5 * (Lambda + Lambda.T))
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"loss quadratic factorization failed: {exc}") from exc
    if evals.min() < -1e-9 * max(1.0, abs(evals).max()):
        raise ModelError(f"loss quadratic is not PSD (min eigenvalue {evals.min():.3e})")
    keep = evals > abs(evals).max() * 1e-14
    return np.sqrt(evals[keep])[:, None] * evecs[:, keep].T


@dataclass(frozen=True)
class LinearizedGrid:
    """Affine voltage model and quadratic loss surrogate at the PCC terminals.

    ``K`` and ``loss_quad`` act on the converter injection vector
    x = [P_c..., Q_c...]; the ``full_*`` companions span every non-slack bus
    so that background demand can be folded in analytically per timestep.
    """

    K: np.ndarray  # (n_bus-1) x 2m
    b: np.ndarray  # (n_bus-1)
    loss_quad: LossQuadratic
    pcc_map: dict  # terminal index -> bus id
    bus_order: tuple  # non-slack bus ids, row order of K and b
    full_K: np.ndarray  # (n_bus-1) x 2(n_bus-1)
    full_Lambda: np.ndarray
    full_lam: np.ndarray
    s_base_kva: float

    @property
    def m(self):
        return len(self.pcc_map)

    @property
    def pcc_buses(self):
        return [self.pcc_map[i] for i in range(self.m)]

    def _pcc_cols(self):
        n1 = len(self.bus_order)
        pos = [self.bus_order.index(self.pcc_map[i]) for i in range(self.m)]
        return pos + [p + n1 for p in pos]

    def fold_background(self, injections):
        """Shift the model's constant terms by fixed complex injections.

        ``injections``: complex power per non-slack bus (mapping or array
        aligned with ``bus_order``), generation positive.  Returns a new
        LinearizedGrid whose b, lambda and sigma absorb the background; K,
        Lambda and its factor F are unchanged.
        """
        if isinstance(injections, dict):
            s = np.zeros(len(self.bus_order), dtype=complex)
            for bid, val in injections.items():
                if bid not in self.bus_order:
                    raise ModelError(f"background injection references unknown bus {bid!r}")
                s[self.bus_order.index(bid)] = complex(val)
        else:
            s = np.asarray(injections, dtype=complex)
            if s.shape != (len(self.bus_order),):
                raise ValidationError(
                    f"background injection shape {s.shape}, expected ({len(self.bus_order)},)"
                )
        x_bg = np.concatenate([np.real(s), np.imag(s)])
        b_t = self.b + self.full_K @ x_bg
        lam_full_t = self.full_lam + 2.0 * (self.full_Lambda @ x_bg)
        sigma_t = float(
            self.loss_quad.sigma + self.full_lam @ x_bg + x_bg @ self.full_Lambda @ x_bg
        )
        cols = self._pcc_cols()
        return replace(
            self,
            b=b_t,
            full_lam=lam_full_t,
            loss_quad=replace(self.loss_quad, lam=lam_full_t[cols], sigma=sigma_t),
        )


def linearize(net, pcc_buses):
    """Build the LinearizedGrid for converter terminals at ``pcc_buses``.

    Both models are expanded about the no-load point w and share one
    factorization of YLL and its inverse Z:

      * voltage magnitudes, V = K x + b: the complex sensitivity is
        YLL^-1 diag(conj(w))^-1 applied to conjugated power perturbations,
        and b = |w|;
      * network loss: the affine complex-voltage model substituted into
        Re(v^H Y v).  Lambda is symmetrized and projected to the PSD cone by
        clipping negative eigenvalues; sigma is the no-load loss.

    Columns follow the stacked injection layout [P..., Q...], over every
    non-slack bus for the ``full_*`` arrays and over the PCC buses otherwise.
    """
    if len(set(pcc_buses)) != len(pcc_buses):
        raise ModelError("PCC buses must be distinct")
    n = net.n_bus
    n1 = n - 1
    loads = net.load_order
    for bid in pcc_buses:
        if bid not in loads:
            raise ModelError(f"PCC bus {bid!r} is not a non-slack bus of the network")
    pos = [loads.index(bid) for bid in pcc_buses]
    cols = pos + [p + n1 for p in pos]
    Y = build_admittance(net)
    lu = _yll_factor(Y)
    w = _noload(net, Y, lu)
    Z = _getrs(lu, np.eye(n1, dtype=complex))

    M = (np.conj(w) / np.abs(w))[:, None] * Z / np.conj(w)[None, :]
    full_K = np.hstack([np.real(M), np.imag(M)])

    B = np.zeros((n, n1), dtype=complex)
    B[1:, :] = Z / np.conj(w)[None, :]
    v_bar = np.concatenate(([net.slack_voltage], w))
    sigma = float(np.real(np.conj(v_bar) @ Y @ v_bar))
    a = B.T @ (Y @ np.conj(v_bar))
    d = np.conj(B).T @ (Y @ v_bar)
    full_lam = np.concatenate([np.real(a) + np.real(d), np.imag(a) - np.imag(d)])
    H = np.conj(B).T @ Y @ B
    HR, HI = np.real(H), np.imag(H)
    raw = np.block([[HR, HI], [-HI, HR]])
    Lam = 0.5 * (raw + raw.T)
    evals, evecs = np.linalg.eigh(Lam)
    Lam = (evecs * np.clip(evals, 0.0, None)) @ evecs.T
    full_Lambda = 0.5 * (Lam + Lam.T)
    Lam_pcc = full_Lambda[np.ix_(cols, cols)]

    return LinearizedGrid(
        K=full_K[:, cols],
        b=np.abs(w),
        loss_quad=LossQuadratic(
            Lambda=Lam_pcc, lam=full_lam[cols], sigma=sigma, F=_loss_factor(Lam_pcc)
        ),
        pcc_map={i: bid for i, bid in enumerate(pcc_buses)},
        bus_order=tuple(net.load_order),
        full_K=full_K,
        full_Lambda=full_Lambda,
        full_lam=full_lam,
        s_base_kva=net.s_base_kva,
    )


def two_bus_network(z=0.01 + 0.1j, slack_voltage=1.0 + 0.0j, b_shunt=0.0):
    """Smallest usable fixture: one slack, one load bus, one branch."""
    return BusNetwork(
        buses=(Bus("bus_1", "slack"), Bus("bus_2", "load")),
        branches=(Branch("bus_1", "bus_2", z.real, z.imag, b_shunt),),
        slack_voltage=slack_voltage,
    )
