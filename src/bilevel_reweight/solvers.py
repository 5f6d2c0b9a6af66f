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
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import NoConvergenceError, NumericOverflowError
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


def _halts_on_overflow(solver):
    """Run a solver with NumPy's overflow warnings off. A diverging iterate
    overflows inside the model's operators; the solver's own finiteness
    checks then stop it with a reason in trace.halted."""
    @functools.wraps(solver)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return solver(*args, **kwargs)
    return run


def _passes(model, data, test_data, theta: np.ndarray):
    return model.forward(theta, data), model.forward(theta, test_data)


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
    """Exact bilevel: inner solve, hypergradient, mirror step, repeated."""
    trace = FlowTrace()
    w = w0
    theta0 = ModelParams(np.zeros(model.n_params(data)))
    for k in range(cfg.iterations + 1):
        theta = solve_inner(model, data, w, theta0, tol=cfg.inner_tol)
        train, test = _passes(model, data, test_data, theta.theta)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            trace.append(_make_record(train, test, w, k, theta_ref))
        if k == cfg.iterations:
            break
        psi = hypergrad_at(train, test, w, hcfg)
        if cfg.eta > 0:
            w = mirror_step(w, psi, cfg.eta)
    return trace


@_halts_on_overflow
def warm_started(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
                 cfg: SolverConfig, theta_ref: Optional[ModelParams] = None,
                 hcfg: HypergradConfig = DEFAULT_CONFIG) -> FlowTrace:
    """Warm-started bilevel: Psi at (theta^k, w^k), then the theta gradient
    step, then the mirror step, in that order."""
    trace = FlowTrace()
    theta, w = theta0.theta.copy(), w0
    for k in range(cfg.iterations + 1):
        train, test = _passes(model, data, test_data, theta)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            trace.append(_make_record(train, test, w, k, theta_ref))
        if k == cfg.iterations:
            break
        psi = hypergrad_at(train, test, w, hcfg)
        if not np.all(np.isfinite(psi)):
            trace.halted = "hypergradient overflowed to a non-finite value"
            return trace
        theta = theta - cfg.rho * train.gamma_T_apply(w.values)
        if not np.all(np.isfinite(theta)):
            trace.halted = "model parameters overflowed to a non-finite value"
            return trace
        if cfg.eta > 0:
            try:
                w = mirror_step(w, psi, cfg.eta)
            except NumericOverflowError as exc:
                trace.halted = str(exc)
                return trace
    return trace


@_halts_on_overflow
def soba(model, data, test_data, theta0: ModelParams, w0: SimplexWeights,
         v0: np.ndarray, cfg: SolverConfig,
         theta_ref: Optional[ModelParams] = None) -> FlowTrace:
    """Deterministic full-batch SOBA: an auxiliary v tracks H^{-1} grad F via
    Hessian-vector products; neither the Hessian nor Gamma is formed, and
    one forward pass per data set serves the whole step."""
    trace = FlowTrace()
    theta, w = theta0.theta.copy(), w0
    v = np.asarray(v0, dtype=float).copy()
    rho_v = cfg.rho_v if cfg.rho_v is not None else cfg.rho
    for k in range(cfg.iterations + 1):
        train, test = _passes(model, data, test_data, theta)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            trace.append(_make_record(train, test, w, k, theta_ref))
        if k == cfg.iterations:
            break
        psi_hat = -train.gamma_apply(v)
        if not np.all(np.isfinite(psi_hat)):
            trace.halted = "hypergradient estimate overflowed to a non-finite value"
            return trace
        hv = train.hess_apply(w.values, v)
        v = v - rho_v * (hv - test.mean_fit_grad())
        theta = theta - cfg.rho * train.gamma_T_apply(w.values)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(v))):
            trace.halted = "iterates overflowed to a non-finite value"
            return trace
        if cfg.eta > 0:
            try:
                w = mirror_step(w, psi_hat, cfg.eta)
            except NumericOverflowError as exc:
                trace.halted = str(exc)
                return trace
    return trace


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


@_halts_on_overflow
def softmax_reparam(model, data, test_data, theta0: ModelParams,
                    lambda0: np.ndarray, cfg: SolverConfig,
                    theta_ref: Optional[ModelParams] = None,
                    hcfg: HypergradConfig = DEFAULT_CONFIG,
                    record_resolve_err: bool = False) -> FlowTrace:
    """Joint descent on (theta, lambda) with weights w(lambda); the lambda
    update is unconstrained so no mirror step is needed."""
    trace = FlowTrace()
    theta = theta0.theta.copy()
    lam = np.asarray(lambda0, dtype=float).copy()
    w = softmax_weights(lam)
    for k in range(cfg.iterations + 1):
        train, test = _passes(model, data, test_data, theta)
        if k % cfg.record_every == 0 or k == cfg.iterations:
            extra = None
            if record_resolve_err and theta_ref is not None:
                # cold-start re-solve with the current weights
                resolved = solve_inner(
                    model, data, w, ModelParams(np.zeros_like(theta)),
                    tol=1e-8)
                extra = {"resolve_err": float(
                    np.linalg.norm(resolved.theta - theta_ref.theta))}
            trace.append(_make_record(train, test, w, k, theta_ref, extra))
        if k == cfg.iterations:
            break
        psi = hypergrad_at(train, test, w, hcfg)
        if not np.all(np.isfinite(psi)):
            trace.halted = "hypergradient overflowed to a non-finite value"
            return trace
        theta = theta - cfg.rho * train.gamma_T_apply(w.values)
        lam = lam - cfg.eta * lambda_gradient(lam, psi)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(lam))):
            trace.halted = "iterates overflowed to a non-finite value"
            return trace
        w = softmax_weights(lam)
    return trace
