"""Continuous-time layer: flows, stationarity and stability certificates.

The mirror flow w' = -P(w) phi(w) is integrated in dual coordinates
u = log-weights: u' = -phi(softmax(u)) with w = softmax(u), which is exactly
equivalent, preserves the simplex by construction, and keeps zero weights
zero. The joint bilevel flow couples theta' = -alpha grad G with the mirror
flow driven by the plug-in hypergradient.

Stationary points are weight vectors whose field is constant over the
support; their stability is read off the Jacobian of Phi(w) = P(w) phi(w)
restricted to the tangent space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import List, Optional

import numpy as np
import scipy.linalg

from .errors import (
    ConfigError,
    NoConvergenceError,
    PreconditionError,
    _check_field_types,
)
from .hypergrad import FrozenField, frozen_field, hypergrad_at
from .losses import ModelParams
from .simplex import (
    DEFAULT_SUPPORT_TOL,
    SimplexWeights,
    TangentVector,
    preconditioner,
    support,
)
from .solvers import (
    _HALTS,
    FlowTrace,
    TraceRecord,
    _inner_solution,
    _make_record,
)


@dataclass(frozen=True)
class FlowConfig:
    alpha: float = 1.0
    beta: float = 1.0
    dt: float = 1e-3
    t_max: float = 10.0
    stationarity_tol: float = 1e-8
    oscillation_window: int = 50
    rtol: float = 1e-10  # Dormand-Prince tolerance; dt is the first trial step

    def __post_init__(self):
        _check_field_types(self)
        # each test is written so that NaN fails it
        for name in ("alpha", "beta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be nonnegative and finite")
        if not 0 < self.dt < self.t_max < math.inf:
            raise ConfigError("need 0 < dt < t_max < inf")
        if not 0 < self.stationarity_tol < math.inf:
            raise ConfigError("stationarity_tol must be positive and finite")
        if self.oscillation_window < 2:
            raise ConfigError("oscillation_window must be >= 2")
        if not 0 < self.rtol < math.inf:
            raise ConfigError("rtol must be positive and finite")


class ConstantField:
    """A field that ignores the weights."""

    def __init__(self, phi):
        self.phi = np.asarray(phi, dtype=float)

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        return self.phi

    def eval_raw(self, values) -> np.ndarray:
        return self.phi


class ExactHypergradField:
    """Oracle field psi(theta*(w), w): the true gradient of the value
    function, backed by an inner solve to |grad G| <= 1e-12 per evaluation.
    For a quadratic model the closed form's weighted Gram serves the
    hypergradient too, so each evaluation builds it once."""

    def __init__(self, model, data, test_data):
        self.model = model
        self.data = data
        self.test_data = test_data
        self._theta0 = ModelParams(np.zeros(model.n_params(data)))

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        theta, gram = _inner_solution(self.model, self.data, w, self._theta0,
                                      1e-12)
        return hypergrad_at(self.model.forward(theta, self.data),
                            self.model.forward(theta, self.test_data), w, gram)


def _softmax(u: np.ndarray) -> SimplexWeights:
    """The weights of log-weights u. Their sum is finite and at least 1
    unless exp meets a NaN (a NaN in u, or inf - inf), and then the
    checked constructor rejects them."""
    e = np.exp(u - u.max())
    s = e.sum()
    if not math.isfinite(s):
        return SimplexWeights(e / s)
    return SimplexWeights._unchecked(e / s)


def _dual_records(times, states: np.ndarray) -> List[TraceRecord]:
    """Mirror-flow records of log-weight states (one row per time), built
    in one pass and bit for bit those of _softmax, entropy and support row
    by row: a row-wise NumPy sum adds in the order a 1-d sum does. entropy
    sums only the positive terms, which regroups NumPy's pairwise sum from
    8 terms up, so a row that wide with an exact zero sums its own."""
    e = np.exp(states - states.max(axis=1, keepdims=True))
    s = e.sum(axis=1, keepdims=True)
    for i in np.flatnonzero(~np.isfinite(s[:, 0])):
        _softmax(states[i])  # a NaN state: raises
    w = e / s
    positive = w > 0
    terms = np.log(w, out=np.zeros_like(w), where=positive)
    terms *= w
    h = -terms.sum(axis=1)
    if w.shape[1] >= 8:
        for i in np.flatnonzero(~positive.all(axis=1)):
            h[i] = -terms[i][positive[i]].sum()
    sizes = (w > DEFAULT_SUPPORT_TOL).sum(axis=1)
    return [TraceRecord(k=t, theta=None, w=SimplexWeights._unchecked(row),
                        inner_loss=math.nan, outer_loss=math.nan,
                        entropy=float(hi), support_size=int(si))
            for t, row, hi, si in zip(times, w, h, sizes)]


def _theta_record(model, data, test_data, theta: np.ndarray,
                  w: SimplexWeights, t, extra=None) -> TraceRecord:
    return _make_record(model.forward(theta, data),
                        model.forward(theta, test_data), w, t, extra)


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.5):
# stage i + 1 is at y + h _DP_A[i] @ k[:i + 1]. The last row is the 5th-order
# solution, so its stage serves as the next step's first. _DP_E: 5th - 4th.
_DP_A = [np.array(row) for row in (
    [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])]
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
# Its 4th-order dense output (ibid. II.6; Shampine, Math. Comp. 46, 1986), as
# in DOPRI5's CONTD5: with d = y_new - y and a = h k0 - d, y(t + x h) =
# y + x (d + (1 - x) (a + x (d - h k6 - a + (1 - x) h _DP_D @ k))).
_DP_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])


def _dense_output(y, y_new, k, h: float, x: np.ndarray) -> np.ndarray:
    """The dense output of a step of size h from y to y_new with stages k,
    one row per step fraction in the column x."""
    d = y_new - y
    a = h * k[0] - d
    b = d - h * k[6] - a
    # a stack of one vector-matrix product per row: one matrix product over
    # the block would round differently
    hDk = np.matmul(((1 - x) * (h * _DP_D))[:, None], k)[:, 0]
    return y + x * (d + (1 - x) * (a + x * (b + hDk)))


def _path(deriv, y: np.ndarray, grid, h: float, rtol: float, dual=None):
    """Integrate y' = deriv(y), deriv fixed for the whole call, by
    Dormand-Prince steps from grid[0] to grid[-1], trying h first, and
    yield (t, y) at grid[0] and at each later grid time: the grid times
    inside a step are read off its dense output as one block, and only
    grid[-1] ends a step (stretched onto it if within 1e-9 h), so deriv is
    never evaluated past it. A step passes if the RMS of
    err / (1e-2 rtol + rtol max(|y|, |y_new|)) is at most 1 (NaN fails),
    and h is scaled by 0.9 err^(-1/5) within [0.2, 5]. With dual (an index
    into y), y[dual] holds log-weights and is shifted after each step so
    that its maximum is 0, which keeps exp well-scaled."""
    def recentre(y):  # a state, or a block of states as rows
        if dual is not None:
            y[..., dual] -= y[..., dual].max(axis=-1, keepdims=True)
        return y

    yield grid[0], y
    k = np.empty((7, y.size))
    k[0] = deriv(y)
    t, t1, j = grid[0], grid[-1], 1
    while t < t1:
        if h < 1e-12 * max(1.0, abs(t)):
            raise NoConvergenceError(
                f"adaptive step size fell to {h:.3g} at t = {float(t)}")
        last = t + h * (1 + 1e-9) >= t1
        step = t1 - t if last else h
        for i, a in enumerate(_DP_A, 1):
            y_new = y + (step * a) @ k[:i]
            k[i] = deriv(y_new)
        r = (step * _DP_E) @ k / (
            rtol * (1e-2 + np.maximum(np.abs(y), np.abs(y_new))))
        err = math.sqrt(r @ r / r.size)
        if err <= 1.0:
            t_new = t1 if last else t + step
            if grid[j] < t_new:  # grid times inside the step: dense output
                inside = j + 1
                while grid[inside] < t_new:
                    inside += 1
                x = ((grid[j:inside] - t) / step)[:, None]
                yield from zip(grid[j:inside], recentre(
                    _dense_output(y, y_new, k, step, x)))
                j = inside
            t, y, k[0] = t_new, recentre(y_new), k[6]
            if last:
                yield t, y
            h = step * (min(5.0, 0.9 * err ** -0.2) if err > 0 else 5.0)
        else:  # rejected, a NaN err included
            h = step * (max(0.2, 0.9 * err ** -0.2) if err < math.inf else 0.2)


def _record_grid(t_max: float, record_times):
    if record_times is None:
        return np.linspace(0.0, t_max, 501)
    grid = np.asarray(record_times, dtype=float)
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def _mirror_path(field, w0: SimplexWeights, grid, cfg: FlowConfig):
    """The mirror flow of field from w0 in dual coordinates, via _path."""
    deriv = lambda u: -field(_softmax(u))
    return _path(deriv, np.log(w0.values), grid, cfg.dt, cfg.rtol, slice(None))


def integrate_mirror_flow(field, w0: SimplexWeights, cfg: FlowConfig,
                          record_times=None) -> FlowTrace:
    """The mirror flow on the dual variable; hits record times exactly. A
    step that fails with one of solvers._HALTS, the step size underflowing
    included, ends the flow at the last record time reached, with the
    reason in trace.halted."""
    if np.any(w0.values <= 0):
        raise ValueError("w0 must lie in the simplex interior")
    trace = FlowTrace()
    times, states = [], []
    try:
        for t, u in _mirror_path(field, w0, _record_grid(cfg.t_max,
                                                          record_times), cfg):
            times.append(t)
            states.append(u)
    except _HALTS as exc:
        trace.halted = str(exc)
    for record in _dual_records(times, np.array(states)):
        trace.append(record)
    return trace


def constant_field_solution(w0: SimplexWeights, phi, t: float) -> SimplexWeights:
    """Closed-form mirror flow for a constant field:
    w(t) = w0 * exp(-t phi), renormalized."""
    z = t * np.asarray(phi, dtype=float)
    z = z - z.min()
    return SimplexWeights.from_unnormalized(w0.values * np.exp(-z))


def integrate_joint_flow(model, data, test_data, theta0: ModelParams,
                         w0: SimplexWeights, cfg: FlowConfig,
                         record_times=None) -> FlowTrace:
    """Joint flow theta' = -alpha grad G(theta, w), w' = -beta P(w) psi.
    A failed step halts it as it halts integrate_mirror_flow."""
    if cfg.alpha == 0 and cfg.beta == 0:
        raise ValueError("alpha and beta cannot both be zero")
    if np.any(w0.values <= 0):
        raise ValueError("w0 must lie in the simplex interior")
    p = theta0.theta.size

    def deriv(s):
        th = ModelParams(s[:p]).theta
        w = _softmax(s[p:])
        train = model.forward(th, data)
        dth = -cfg.alpha * train.gamma_T_apply(w.values)
        du = -cfg.beta * hypergrad_at(train, model.forward(th, test_data), w)
        return np.concatenate([dth, du])

    trace = FlowTrace()
    state = np.concatenate([theta0.theta, np.log(w0.values)])
    grid = _record_grid(cfg.t_max, record_times)
    try:
        for t, y in _path(deriv, state, grid, cfg.dt, cfg.rtol,
                          slice(p, None)):
            trace.append(_theta_record(model, data, test_data, y[:p],
                                       _softmax(y[p:]), t))
    except _HALTS as exc:
        trace.halted = str(exc)
    return trace


@dataclass
class StationaryReport:
    """Stationarity / stability / sparsity certificate for a weight vector."""

    w: SimplexWeights
    is_stationary: bool
    support: np.ndarray
    proportionality_residual: float
    offsupport_margin: np.ndarray
    tangent_eigenvalues: Optional[np.ndarray] = None
    is_stable: Optional[bool] = None
    in_I_lp: Optional[bool] = None
    certificate: Optional[dict] = None

    def to_json_dict(self) -> dict:
        eig = None
        if self.tangent_eigenvalues is not None:
            eig = [[float(z.real), float(z.imag)]
                   for z in self.tangent_eigenvalues]
        return {
            "w": self.w.values.tolist(),
            "is_stationary": self.is_stationary,
            "support": [int(i) for i in self.support],
            "proportionality_residual": self.proportionality_residual,
            "offsupport_margin": [float(x) for x in self.offsupport_margin],
            "tangent_eigenvalues": eig,
            "is_stable": self.is_stable,
            "in_I_lp": self.in_I_lp,
        }


def is_stationary(w: SimplexWeights, field,
                  tol: float = 1e-8) -> StationaryReport:
    """Stationary iff the field is constant over support(w)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    phi = field(w)
    supp = support(w)
    on = phi[supp]
    residual = float(on.max() - on.min()) if supp.size else math.inf
    off = np.setdiff1d(np.arange(w.n), supp)
    margins = phi[off] - float(w.values @ phi)
    stationary = bool(residual <= tol * (1.0 + np.abs(phi).max()))
    return StationaryReport(
        w=w, is_stationary=stationary, support=supp,
        proportionality_residual=residual, offsupport_margin=margins)


def jacobian_field(field, w: SimplexWeights) -> np.ndarray:
    """Jacobian D phi(w): analytic for a FrozenField, where phi = -Gamma g(w)
    and dg/dw_j = -H^{-1} H_j g give J_ij = <Gamma_i, H^{-1} H_j g>; central
    differences for any other field with eval_raw; refused otherwise."""
    if isinstance(field, FrozenField):
        H = field.weighted_hessian(w.values)
        g = scipy.linalg.solve(H, field.grad_outer, assume_a="pos")
        Hg = field.sample_hessians @ g  # (n, p)
        X = scipy.linalg.solve(H, Hg.T, assume_a="pos")  # (p, n)
        return field.gamma @ X
    if not hasattr(field, "eval_raw"):
        raise PreconditionError("the Jacobian needs a FrozenField or eval_raw")
    return _fd_jacobian(field, w)


def _fd_jacobian(field, w: SimplexWeights) -> np.ndarray:
    """Central differences of field.eval_raw at w, step 1e-6 per weight."""
    f = field.eval_raw
    return np.column_stack([f(w.values + e) - f(w.values - e)
                            for e in 1e-6 * np.eye(w.n)]) / 2e-6


def _tangent_operator_eigs(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of an l x l operator restricted to the tangent space,
    expressed in the basis {e_i - e_l}."""
    l = A.shape[0]
    if l <= 1:
        return np.array([], dtype=complex)
    B = np.vstack([np.eye(l - 1), -np.ones((1, l - 1))])
    M = np.linalg.lstsq(B, A @ B, rcond=None)[0]
    return np.linalg.eigvals(M)


def full_flow_jacobian(w: SimplexWeights, phi: np.ndarray,
                       J: np.ndarray) -> np.ndarray:
    """D Phi(w) for Phi(w) = P(w) phi(w):
    diag(phi) + diag(w) J - <w, phi> I - w (phi^T + w^T J)."""
    v = w.values
    return (np.diag(phi) + v[:, None] * J - (v @ phi) * np.eye(w.n)
            - np.outer(v, phi + J.T @ v))


def stability_check(w: SimplexWeights, field,
                    tol: float = 1e-8) -> StationaryReport:
    """Certify a stationary point: off-support margins must be positive and
    the tangent restriction of P(w~) J~ must have eigenvalues with positive
    real parts."""
    report = is_stationary(w, field, tol)
    if not report.is_stationary:
        raise PreconditionError("stability_check needs a stationary point")
    J = jacobian_field(field, w)
    supp = report.support
    w_tilde = SimplexWeights.from_unnormalized(w.values[supp])
    J_tilde = J[np.ix_(supp, supp)]
    A = preconditioner(w_tilde) @ J_tilde
    eigs = _tangent_operator_eigs(A)
    report.tangent_eigenvalues = eigs
    margins_ok = bool(np.all(report.offsupport_margin > tol))
    eigs_ok = bool(np.all(eigs.real > tol)) if eigs.size else True
    report.is_stable = margins_ok and eigs_ok
    if isinstance(field, FrozenField):
        member, cert = membership_I(field.gamma[supp], tol=1e-8)
        report.in_I_lp = member
        report.certificate = cert
    return report


def linearized_trajectory(w_star: SimplexWeights, delta: TangentVector,
                          field, t: float, tol: float = 1e-6) -> SimplexWeights:
    """First-order prediction w(t) = w* + exp(-D Phi(w*) t) delta."""
    report = is_stationary(w_star, field, tol)
    if not report.is_stationary:
        raise PreconditionError("w_star must be stationary")
    d = delta.values
    if np.any(w_star.values + d < -1e-15):
        raise PreconditionError("w_star + delta must lie in the simplex")
    DPhi = full_flow_jacobian(w_star, field(w_star),
                              jacobian_field(field, w_star))
    pred = w_star.values + scipy.linalg.expm(-DPhi * t) @ d
    pred = np.clip(pred, 0.0, None)
    return SimplexWeights.from_unnormalized(pred)


def membership_I(Z: np.ndarray, tol: float = 1e-8):
    """Is Z in the set of l x p matrices with 1_l in range(Z) or a
    nontrivial null space? Returns (bool, certificate)."""
    Z = np.asarray(Z, dtype=float)
    l = Z.shape[0]
    ones = np.ones(l)
    x, *_ = np.linalg.lstsq(Z, ones, rcond=None)
    residual = float(np.linalg.norm(Z @ x - ones))
    svals = np.linalg.svd(Z, compute_uv=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    sigma_min = float(svals[-1]) if Z.shape[1] <= l else 0.0
    if bool(residual <= tol * math.sqrt(l)):
        return True, {"kind": "ones", "x": x.tolist(), "residual": residual}
    if bool(sigma_min <= tol * max(sigma_max, 1.0)):
        return True, {"kind": "null", "sigma_min": sigma_min}
    return False, {"kind": None, "residual": residual, "sigma_min": sigma_min}


def sparsity_certificate(w: SimplexWeights, gamma: np.ndarray,
                         tol: float = 1e-8,
                         support_tol: float = DEFAULT_SUPPORT_TOL):
    """Stationary supports must make Gamma restricted to the support a
    member of I_l^p; generic supports larger than p fail."""
    supp = support(w, support_tol)
    if supp.size == 0:
        raise PreconditionError("empty support")
    return membership_I(np.asarray(gamma, float)[supp], tol)


@dataclass
class OmegaResult:
    """Limit of the frozen-parameter mirror flow, or a non-convergence flag."""

    w: SimplexWeights
    converged: bool
    oscillating: bool
    t: float
    checkpoint_changes: List[float] = dc_field(default_factory=list)


def omega_limit(field, w0: SimplexWeights, cfg: FlowConfig,
                n_checkpoints: int = 500) -> OmegaResult:
    """Integrate the mirror flow through n_checkpoints equal checkpoints to
    t_max. Stop at the first whose change is at most stationarity_tol, or
    that lies within 1e-4 of one more than oscillation_window back with no
    fall in the change over the window (oscillating). Non-convergence is an
    ordinary value, never an error. The checkpoints carry the integrator's
    error, about rtol, so a stationarity_tol far below it may never trip."""
    if np.any(w0.values <= 0):
        # already on a face; one-hot starts are stationary immediately
        rep = is_stationary(w0, field, max(cfg.stationarity_tol, 1e-12))
        if rep.is_stationary:
            return OmegaResult(w0, True, False, 0.0)
        raise ValueError("w0 must lie in the simplex interior")
    grid = np.linspace(0.0, cfg.t_max, n_checkpoints + 1)
    path = _mirror_path(field, w0, grid, cfg)
    next(path)
    return _omega_stop(w0, ((t, _softmax(u).values) for t, u in path),
                       grid.size, cfg)


def omega_from_trace(trace: FlowTrace, w0: SimplexWeights,
                     cfg: FlowConfig) -> OmegaResult:
    """omega_limit's stop rules with a mirror trace's later records from w0
    as checkpoints: equal to omega_limit(field, w0, cfg, n) when
    integrate_mirror_flow(field, w0, cfg) wrote it on n equal intervals."""
    return _omega_stop(w0, ((r.k, r.w.values) for r in trace.records[1:]),
                       len(trace.records), cfg)


def _omega_stop(w0, checkpoints, size: int, cfg: FlowConfig) -> OmegaResult:
    history = np.empty((size, w0.n))
    history[0] = w0.values
    changes: List[float] = []
    win, t, cur = cfg.oscillation_window, 0.0, w0.values
    for i, (t, cur) in enumerate(checkpoints, 1):
        change = float(np.linalg.norm(cur - history[i - 1]))
        changes.append(change)
        if change <= cfg.stationarity_tol:
            return OmegaResult(SimplexWeights(cur), True, False, float(t),
                               changes)
        if i > win and changes[-1] >= changes[-win] * (1 - 1e-3) and (
                np.linalg.norm(history[:i - win] - cur, axis=1).min() < 1e-4):
            return OmegaResult(SimplexWeights(cur), False, True, float(t),
                               changes)
        history[i] = cur
    return OmegaResult(SimplexWeights(cur), False, False, float(t), changes)


def integrate_sparse_reference(model, data, test_data, theta0: ModelParams,
                               w0: SimplexWeights, cfg: FlowConfig,
                               record_times=None, refresh_dt: float = 0.1,
                               omega_cfg: Optional[FlowConfig] = None) -> FlowTrace:
    """Reference trajectory theta' = -grad G(theta, Omega(theta, w0)) with
    the sparse limit Omega refreshed every refresh_dt of slow time and held
    piecewise-constant in between, one _path per segment. A record's extra
    holds its segment's omega_converged, omega_oscillating, omega_t and
    omega_change (the last checkpoint change, or None)."""
    if omega_cfg is None:
        omega_cfg = FlowConfig(dt=min(cfg.dt, 1e-2), t_max=1e3,
                               stationarity_tol=1e-9)
    grid = _record_grid(cfg.t_max, record_times)
    refreshes = refresh_dt * np.arange(1, math.ceil(grid[-1] / refresh_dt) + 1)
    # a refresh time that rounding put within 1e-9 dt of a record time is
    # that record time, not a second grid point a step of 1e-17 away
    near = np.abs(refreshes[:, None] - grid) <= 1e-9 * cfg.dt
    refreshes = np.where(near.any(axis=1), grid[near.argmax(axis=1)], refreshes)
    refreshes = refreshes[refreshes < grid[-1]]
    times = np.union1d(grid, refreshes)
    record = np.isin(times, grid)

    trace = FlowTrace()
    theta, start = theta0.theta.copy(), 0
    for end in [*np.flatnonzero(np.isin(times, refreshes)), times.size - 1]:
        f = frozen_field(model, data, test_data, ModelParams(theta))
        omega = omega_limit(f, w0, omega_cfg)
        extra = {"omega_converged": omega.converged,
                 "omega_oscillating": omega.oscillating, "omega_t": omega.t,
                 "omega_change": (omega.checkpoint_changes or [None])[-1]}
        deriv = lambda th, w=omega.w: -model.forward(
            ModelParams(th).theta, data).gamma_T_apply(w.values)
        path = _path(deriv, theta, times[start:end + 1], cfg.dt, cfg.rtol)
        for i, (t, theta) in enumerate(path, start):
            # a segment's first time is the last of the one before
            if record[i] and (i == 0 or i > start):
                trace.append(_theta_record(model, data, test_data, theta,
                                           omega.w, t, extra))
        start = end
    return trace
