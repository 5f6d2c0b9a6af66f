"""Training procedures for the reweighting bilevel problem.

Four solvers, each emitting a FlowTrace:
  * exact_bilevel: re-solve the inner problem to high precision each outer
    step, then mirror-descend the weights on the true hypergradient.
  * warm_started: joint updates of theta (gradient step) and w (mirror step)
    using the plug-in hypergradient at the current theta.
  * soba: warm-started scheme with an auxiliary variable tracking the inner
    linear-system solution through Hessian-vector products only.
  * softmax_reparam: weights parameterized as a normalized sigmoid of free
    scores, optimized by plain gradient descent (no mirror step).

Each solver is a step function run by one loop, _run, which records the
trace. Every solver and flow runs inside _halting, which alone decides how
a run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import (
    AssumptionViolationError,
    NoConvergenceError,
    NumericOverflowError,
    SingularDesignError,
    _check_fields,
    _check_number,
)
from .hypergrad import (
    _closed_form,
    _solve_cg,
    closed_form_inner_quadratic,
    hypergrad_at,
)
from .losses import ForwardPass, ModelParams
from .simplex import (
    DEFAULT_SUPPORT_TOL,
    SimplexWeights,
    _finite,
    entropy,
    mirror_step,
)


@dataclass(frozen=True)
class SolverConfig:
    eta: float = 1.0
    rho: float = 1e-2
    iterations: int = 100
    record_every: int = 1

    def __post_init__(self):
        _check_fields(self, eta="nonnegative", rho="nonnegative")


@dataclass
class TraceRecord:
    k: float
    theta: np.ndarray
    w: SimplexWeights
    inner_loss: Optional[float]  # None on a mirror flow, which has no theta
    outer_loss: Optional[float]
    entropy: float
    support_size: int
    extra: Optional[dict] = None


@dataclass
class FlowTrace:
    """Time-stamped record of a solver run or ODE integration."""

    records: List[TraceRecord] = field(default_factory=list)
    halted: Optional[str] = None

    def append(self, rec: TraceRecord):
        if self.records and rec.k <= self.records[-1].k:
            raise ValueError("iteration indices must be strictly increasing")
        self.records.append(rec)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_jsonl(self, path, include_weights: Optional[bool] = None,
                 theta_ref: Optional[ModelParams] = None):
        """One JSON row per record. theta_err is |theta - theta_ref|, or
        null without a reference; the weights are kept when include_weights
        says so, by default when n <= 1000."""
        with open(path, "w") as f:
            for r in self.records:
                row = {
                    "k": r.k,
                    "inner_loss": r.inner_loss,
                    "outer_loss": r.outer_loss,
                    "entropy": r.entropy,
                    "support_size": r.support_size,
                    "theta_err": None if theta_ref is None else float(
                        np.linalg.norm(r.theta - theta_ref.theta)),
                }
                keep_w = include_weights if include_weights is not None \
                    else r.w.n <= 1000
                if keep_w:
                    row["w"] = r.w.values.tolist()
                if r.extra is not None:
                    row["extra"] = r.extra
                f.write(json.dumps(row) + "\n")


def _make_record(train: ForwardPass, test: ForwardPass, w: SimplexWeights, k,
                 extra=None):
    """Trace record at the theta of the forward passes train and test."""
    return TraceRecord(
        k=k,
        theta=train.theta.copy(),
        w=w,
        inner_loss=float(w.values @ train.sample_losses()),
        outer_loss=float(test.fit_losses().mean()),
        entropy=entropy(w),
        support_size=int((w.values > DEFAULT_SUPPORT_TOL).sum()),
        extra=extra,
    )


# Failures that end a run with a partial trace; only _halting names them.
_HALTS = (NumericOverflowError, AssumptionViolationError, SingularDesignError,
          NoConvergenceError)


@contextlib.contextmanager
def _halting(kept=None):
    """The boundary every solver and flow runs inside: it yields the run's
    FlowTrace with NumPy's overflow and invalid warnings off, since a
    diverging run overflows in the model's operators before simplex._finite
    halts it. A failure in _HALTS raises if the run has kept nothing yet
    (kept, by default trace.records, is empty), else it ends the run with
    the reason in trace.halted. Functions that return a value, not a trace
    (solve_inner, hypergrad_at, closed_form_inner_quadratic, omega_limit,
    mirror_step), raise instead and keep NumPy's warnings on."""
    trace = FlowTrace()
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield trace
        except _HALTS as exc:
            if not (trace.records if kept is None else kept):
                raise
            trace.halted = str(exc)


def _run(model, data, test_data, start, w: SimplexWeights, cfg: SolverConfig,
         step) -> FlowTrace:
    """The loop every solver shares, inside _halting from theta = start()
    on. Each iterate makes one forward pass over the training set and one
    over the test set; they serve the trace record (every record_every
    iterations and at the last) and the step (train, test, w) -> (theta,
    w)."""
    with _halting() as trace:
        theta = start()
        for k in range(cfg.iterations + 1):
            train = model.forward(theta, data)
            test = model.forward(theta, test_data)
            if k % cfg.record_every == 0 or k == cfg.iterations:
                trace.append(_make_record(train, test, w, k))
            if k == cfg.iterations:
                break
            theta, w = step(train, test, w)
    return trace


def solve_inner(model, data, w: SimplexWeights, theta0: ModelParams,
                tol: float = 1e-10, max_iter: int = 100) -> ModelParams:
    """Minimize G(., w): closed form for quadratics, else inexact Newton.

    Each iterate is one forward pass. The step solves H d = -g by CG on the
    pass's Hessian-vector product to relative residual min(0.5, sqrt|g|),
    in at most 10 p iterations. Backtracking accepts a step that meets
    Armijo on G or, once G can no longer resolve the predicted decrease,
    one that lowers |g|. Returns when |g| <= tol (at once if theta0 meets
    it); raises NoConvergenceError with the final |g| after max_iter steps
    or when the line search fails."""
    _check_number("tol", tol, 1.0, "positive")
    if model.is_quadratic:
        return closed_form_inner_quadratic(data, w, model.mu)
    wv = w.values
    theta = theta0.theta.copy()
    fp = model.forward(theta, data)
    g = fp.gamma_T_apply(wv)
    G, gnorm = wv @ fp.sample_losses(), np.linalg.norm(g)
    for _ in range(max_iter):
        if gnorm <= tol:
            return ModelParams(theta)
        d = _solve_cg(lambda v: fp.hess_apply(wv, v), -g,
                      min(0.5, np.sqrt(gnorm)), 10 * g.size)
        slope, t = g @ d, 1.0
        while t > 1e-10:
            fp = model.forward(theta + t * d, data)
            g_t = fp.gamma_T_apply(wv)
            G_t, gnorm_t = wv @ fp.sample_losses(), np.linalg.norm(g_t)
            if G_t <= G + 1e-4 * t * slope or (
                    -t * slope <= 1e-12 * abs(G) and gnorm_t < gnorm):
                break
            t *= 0.5
        else:
            break
        theta, g, G, gnorm = fp.theta, g_t, G_t, gnorm_t
    if gnorm <= tol:
        return ModelParams(theta)
    raise NoConvergenceError(
        f"inner solve stopped at gradient norm {gnorm:.3e} (tol {tol:.1e})")


def _inner_solution(model, data, w: SimplexWeights, theta0: ModelParams,
                    tol: float):
    """theta*(w) as solve_inner finds it, and for a quadratic model the
    Cholesky factor its closed form was solved with (else None), which is
    the factor of the training pass's hess(w.values), bit for bit."""
    if model.is_quadratic:
        theta, chol = _closed_form(data, w.values, model.mu)
        return theta.theta, chol
    return solve_inner(model, data, w, theta0, tol=tol).theta, None


def exact_bilevel(model, data, test_data, w0: SimplexWeights,
                  cfg: SolverConfig) -> FlowTrace:
    """Exact bilevel: inner solve to |grad G| <= 1e-10, hypergradient,
    mirror step, repeated. The solve at w0 runs inside _halting too, where
    a failure raises, since nothing is kept yet. For a quadratic model the
    Cholesky factor of H(w) that the closed-form solve made is kept and
    serves the next step's hypergradient, which is at the same w, so each
    step factors H(w) once."""
    theta0 = ModelParams(np.zeros(model.n_params(data)))
    chol = None

    def solve(w):
        nonlocal chol
        theta, chol = _inner_solution(model, data, w, theta0, 1e-10)
        return theta

    def step(train, test, w):
        psi = hypergrad_at(train, test, w, chol)
        if cfg.eta > 0:
            w = mirror_step(w, psi, cfg.eta)
        return solve(w), w

    return _run(model, data, test_data, lambda: solve(w0), w0, cfg, step)


def warm_started(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
                 cfg: SolverConfig) -> FlowTrace:
    """Warm-started bilevel: Psi at (theta^k, w^k), then the theta gradient
    step, then the mirror step, in that order."""
    def step(train, test, w):
        psi = hypergrad_at(train, test, w)
        _finite("hypergradient", psi)
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        _finite("model parameters", theta)
        if cfg.eta > 0:
            w = mirror_step(w, psi, cfg.eta)
        return theta, w

    return _run(model, data, test_data, theta0.theta.copy, w0, cfg, step)


def soba(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
         v0: np.ndarray, cfg: SolverConfig) -> FlowTrace:
    """Deterministic full-batch SOBA: an auxiliary v tracks H^{-1} grad F via
    Hessian-vector products, stepped by rho as theta is (Dagreou et al.,
    NeurIPS 2022). Neither the Hessian nor Gamma is formed, and one forward
    pass per data set serves the whole step, whose Gamma v and H(w) v share
    one product of v with X^T."""
    v = np.asarray(v0, dtype=float).copy()

    def step(train, test, w):
        nonlocal v
        gv, hv = train.gamma_hess_apply(w.values, v)
        psi_hat = -gv
        _finite("hypergradient estimate", psi_hat)
        v = v - cfg.rho * (hv - test.mean_fit_grad())
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        _finite("iterates", theta, v)
        if cfg.eta > 0:
            w = mirror_step(w, psi_hat, cfg.eta)
        return theta, w

    return _run(model, data, test_data, theta0.theta.copy, w0, cfg, step)


def _sigmoid_into(lam: np.ndarray, e: np.ndarray, s: np.ndarray):
    """s = sigmoid(lam) = 1 / (1 + e) with e = exp(-lam), both written into
    the given buffers; e is kept for the derivative. Where lam < -709, e
    overflows to inf and s is an exact 0: NumPy's overflow warning there
    says nothing of the result, and callers outside _halting silence it."""
    np.exp(np.negative(lam, out=e), out=e)
    np.divide(1.0, np.add(e, 1.0, out=s), out=s)


def _sigmoid(lam):
    """(exp(-lam), sigmoid(lam)) as _sigmoid_into computes them, in new
    arrays and without the overflow warning."""
    lam = np.asarray(lam, dtype=float)
    e, s = np.empty_like(lam), np.empty_like(lam)
    with np.errstate(over="ignore"):
        _sigmoid_into(lam, e, s)
    return e, s


def softmax_weights(lam: np.ndarray) -> SimplexWeights:
    """w_i = sigmoid(lam_i) / sum_j sigmoid(lam_j)."""
    return SimplexWeights.from_unnormalized(_sigmoid(lam)[1])


def _lambda_gradient(e: np.ndarray, s: np.ndarray, w: SimplexWeights,
                     psi: np.ndarray) -> np.ndarray:
    """lambda_gradient from e = exp(-lam), s = sigmoid(lam) and
    w = s / sum(s), in e's buffer; psi's buffer is overwritten too.
    sigmoid'(lam)/S = s (1 - s)/S is formed as e s w, which never rounds
    1 - s to 0, so it stays nonzero for lam >= 37. Where s underflowed to 0,
    e is inf and the factor is set to exactly 0; only weights that are not
    interior can hold such an entry."""
    v = w.values
    if not w.interior:
        e[s == 0] = 0.0
    psi -= v @ psi
    e *= s
    e *= v
    e *= psi
    return e


def lambda_gradient(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Chain rule through the normalized-sigmoid reparameterization:
    dh/dlam_j = sigmoid'(lam_j)/S * (Psi_j - <w, Psi>)."""
    e, s = _sigmoid(lam)
    return _lambda_gradient(e, s, SimplexWeights.from_unnormalized(s),
                            np.array(psi, dtype=float))


def softmax_reparam(model, data, test_data, theta0: ModelParams,
                    lambda0: np.ndarray, cfg: SolverConfig) -> FlowTrace:
    """Joint descent on (theta, lambda) with weights w(lambda); the lambda
    update is unconstrained so no mirror step is needed. sigmoid(lambda)
    and exp(-lambda) are kept from the step that made w, so each step
    evaluates them once, into the same two buffers."""
    lam = np.array(lambda0, dtype=float)
    e, s = _sigmoid(lam)

    def step(train, test, w):
        psi = hypergrad_at(train, test, w)
        _finite("hypergradient", psi)
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        g = _lambda_gradient(e, s, w, psi)
        g *= cfg.eta
        np.subtract(lam, g, out=lam)
        _finite("iterates", theta, lam)
        _sigmoid_into(lam, e, s)
        total = s.sum()
        if not 0 < total < math.inf:  # every sigmoid underflowed: raise
            return theta, SimplexWeights.from_unnormalized(s)
        return theta, SimplexWeights._unchecked(s / total)

    return _run(model, data, test_data, theta0.theta.copy,
                SimplexWeights.from_unnormalized(s), cfg, step)
