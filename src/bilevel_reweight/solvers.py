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
trace and turns a failed step into a halt with a reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import (
    AssumptionViolationError,
    NoConvergenceError,
    NumericOverflowError,
    SingularDesignError,
)
from .hypergrad import (
    DEFAULT_CONFIG,
    HypergradConfig,
    closed_form_inner_quadratic,
    hypergrad_at,
)
from .losses import ForwardPass, ModelParams, inner_grad
from .simplex import SimplexWeights, entropy, mirror_step, support


@dataclass(frozen=True)
class SolverConfig:
    eta: float = 1.0
    rho: float = 1e-2
    iterations: int = 100
    inner_tol: float = 1e-10
    record_every: int = 1
    rho_v: Optional[float] = None  # soba only; defaults to rho

    def __post_init__(self):
        if self.eta < 0 or self.rho < 0:
            raise ValueError("step sizes must be nonnegative")
        if not np.isfinite(self.eta) or not np.isfinite(self.rho):
            raise ValueError("step sizes must be finite")
        if self.iterations < 1 or self.record_every < 1:
            raise ValueError("iterations and record_every must be >= 1")
        if self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")


@dataclass
class TraceRecord:
    k: float
    theta: np.ndarray
    w: SimplexWeights
    inner_loss: float
    outer_loss: float
    entropy: float
    support_size: int
    theta_err: Optional[float] = None
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

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_jsonl(self, path, include_weights: Optional[bool] = None):
        with open(path, "w") as f:
            for r in self.records:
                row = {
                    "k": r.k,
                    "inner_loss": r.inner_loss,
                    "outer_loss": r.outer_loss,
                    "entropy": r.entropy,
                    "support_size": r.support_size,
                    "theta_err": r.theta_err,
                }
                keep_w = include_weights if include_weights is not None \
                    else r.w.n <= 1000
                if keep_w:
                    row["w"] = r.w.values.tolist()
                f.write(json.dumps(row) + "\n")


def _make_record(train: ForwardPass, test: ForwardPass, w: SimplexWeights, k,
                 theta_ref=None, extra=None):
    """Trace record at the theta of the forward passes train and test."""
    theta = train.theta
    err = None
    if theta_ref is not None:
        err = float(np.linalg.norm(theta - theta_ref.theta))
    return TraceRecord(
        k=k,
        theta=theta.copy(),
        w=w,
        inner_loss=float(w.values @ train.sample_losses()),
        outer_loss=float(test.fit_losses().mean()),
        entropy=entropy(w),
        support_size=int(support(w).size),
        theta_err=err,
        extra=extra,
    )


def _finite(what: str, *arrays):
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericOverflowError(f"{what} overflowed to a non-finite value")


# Failures of a step that end a run with a partial trace instead of raising.
_HALTS = (NumericOverflowError, AssumptionViolationError, SingularDesignError,
          NoConvergenceError)


def _run(model, data, test_data, theta: np.ndarray, w: SimplexWeights,
         cfg: SolverConfig, step, theta_ref: Optional[ModelParams] = None,
         extra=None) -> FlowTrace:
    """The loop every solver shares. Each iterate makes one forward pass
    over the training set and one over the test set; they serve the trace
    record (every record_every iterations and at the last) and the step
    (train, test, w) -> (theta, w). A step that fails with one of _HALTS
    ends the run, with the reason in trace.halted. NumPy's overflow
    warnings are off: a diverging iterate overflows inside the model's
    operators, and the steps' finiteness checks then halt it."""
    trace = FlowTrace()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.iterations + 1):
            train = model.forward(theta, data)
            test = model.forward(theta, test_data)
            if k % cfg.record_every == 0 or k == cfg.iterations:
                trace.append(_make_record(train, test, w, k, theta_ref,
                                          extra(theta, w) if extra else None))
            if k == cfg.iterations:
                break
            try:
                theta, w = step(train, test, w)
            except _HALTS as exc:
                trace.halted = str(exc)
                break
    return trace


def estimate_lipschitz(model, data, w: SimplexWeights, theta: ModelParams,
                       iters: int = 60, seed: int = 0) -> float:
    """Largest Hessian eigenvalue by power iteration on the HVP."""
    rng = np.random.default_rng(seed)
    p = model.n_params(data)
    v = rng.standard_normal(p)
    v /= np.linalg.norm(v)
    lam = model.mu
    train = model.forward(theta.theta, data)
    for _ in range(iters):
        hv = train.hess_apply(w.values, v)
        lam = float(np.linalg.norm(hv))
        if lam == 0.0:
            return max(model.mu, 1.0)
        v = hv / lam
    return lam


def solve_inner(model, data, w: SimplexWeights, theta0: ModelParams,
                tol: float = 1e-10, max_iter: int = 10**6) -> ModelParams:
    """Minimize G(., w): closed form for quadratics, else gradient descent
    with step 1/L until the gradient norm drops below tol."""
    if model.is_quadratic:
        return closed_form_inner_quadratic(data, w, model.mu)
    theta = ModelParams(theta0.theta.copy())
    g = inner_grad(model, data, theta, w)
    if np.linalg.norm(g) <= tol:
        return theta
    L = estimate_lipschitz(model, data, w, theta)
    step = 1.0 / L
    t = theta.theta.copy()
    for _ in range(max_iter):
        t -= step * g
        theta = ModelParams(t)
        g = inner_grad(model, data, theta, w)
        if np.linalg.norm(g) <= tol:
            return theta
    raise NoConvergenceError("inner solve exceeded the iteration cap")


def exact_bilevel(model, data, test_data, w0: SimplexWeights, cfg: SolverConfig,
                  theta_ref: Optional[ModelParams] = None,
                  hcfg: HypergradConfig = DEFAULT_CONFIG) -> FlowTrace:
    """Exact bilevel: inner solve, hypergradient, mirror step, repeated.
    A failed inner solve at w0 raises; a later one halts the run."""
    theta0 = ModelParams(np.zeros(model.n_params(data)))

    def solve(w):
        return solve_inner(model, data, w, theta0, tol=cfg.inner_tol).theta

    def step(train, test, w):
        psi = hypergrad_at(train, test, w, hcfg)
        if cfg.eta > 0:
            w = mirror_step(w, psi, cfg.eta)
        return solve(w), w

    return _run(model, data, test_data, solve(w0), w0, cfg, step, theta_ref)


def warm_started(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
                 cfg: SolverConfig, theta_ref: Optional[ModelParams] = None,
                 hcfg: HypergradConfig = DEFAULT_CONFIG) -> FlowTrace:
    """Warm-started bilevel: Psi at (theta^k, w^k), then the theta gradient
    step, then the mirror step, in that order."""
    def step(train, test, w):
        psi = hypergrad_at(train, test, w, hcfg)
        _finite("hypergradient", psi)
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        _finite("model parameters", theta)
        if cfg.eta > 0:
            w = mirror_step(w, psi, cfg.eta)
        return theta, w

    return _run(model, data, test_data, theta0.theta.copy(), w0, cfg, step,
                theta_ref)


def soba(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
         v0: np.ndarray, cfg: SolverConfig,
         theta_ref: Optional[ModelParams] = None) -> FlowTrace:
    """Deterministic full-batch SOBA: an auxiliary v tracks H^{-1} grad F via
    Hessian-vector products; neither the Hessian nor Gamma is formed, and
    one forward pass per data set serves the whole step."""
    v = np.asarray(v0, dtype=float).copy()
    rho_v = cfg.rho_v if cfg.rho_v is not None else cfg.rho

    def step(train, test, w):
        nonlocal v
        psi_hat = -train.gamma_apply(v)
        _finite("hypergradient estimate", psi_hat)
        hv = train.hess_apply(w.values, v)
        v = v - rho_v * (hv - test.mean_fit_grad())
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        _finite("iterates", theta, v)
        if cfg.eta > 0:
            w = mirror_step(w, psi_hat, cfg.eta)
        return theta, w

    return _run(model, data, test_data, theta0.theta.copy(), w0, cfg, step,
                theta_ref)


def softmax_weights(lam: np.ndarray) -> SimplexWeights:
    """w_i = sigmoid(lam_i) / sum_j sigmoid(lam_j)."""
    s = 1.0 / (1.0 + np.exp(-np.asarray(lam, dtype=float)))
    return SimplexWeights.from_unnormalized(s)


def lambda_gradient(lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Chain rule through the normalized-sigmoid reparameterization:
    dh/dlam_j = sigmoid'(lam_j)/S * (Psi_j - <w, Psi>)."""
    s = 1.0 / (1.0 + np.exp(-lam))
    S = s.sum()
    w = s / S
    return (s * (1.0 - s) / S) * (psi - w @ psi)


def softmax_reparam(model, data, test_data, theta0: ModelParams,
                    lambda0: np.ndarray, cfg: SolverConfig,
                    theta_ref: Optional[ModelParams] = None,
                    hcfg: HypergradConfig = DEFAULT_CONFIG,
                    record_resolve_err: bool = False) -> FlowTrace:
    """Joint descent on (theta, lambda) with weights w(lambda); the lambda
    update is unconstrained so no mirror step is needed."""
    lam = np.asarray(lambda0, dtype=float).copy()

    def step(train, test, w):
        nonlocal lam
        psi = hypergrad_at(train, test, w, hcfg)
        _finite("hypergradient", psi)
        theta = train.theta - cfg.rho * train.gamma_T_apply(w.values)
        lam = lam - cfg.eta * lambda_gradient(lam, psi)
        _finite("iterates", theta, lam)
        return theta, softmax_weights(lam)

    def resolve_err(theta, w):
        # cold-start re-solve with the current weights
        resolved = solve_inner(model, data, w, ModelParams(np.zeros_like(theta)),
                               tol=1e-8)
        return {"resolve_err": float(
            np.linalg.norm(resolved.theta - theta_ref.theta))}

    extra = resolve_err if record_resolve_err and theta_ref is not None else None
    return _run(model, data, test_data, theta0.theta.copy(),
                softmax_weights(lam), cfg, step, theta_ref, extra)
