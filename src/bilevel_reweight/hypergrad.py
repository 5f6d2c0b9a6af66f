"""Hypergradients via implicit differentiation.

The gradient of the value function h(w) = F(theta*(w)) is
Psi(theta*(w), w) with Psi_i = -<grad l_i(theta), H(theta,w)^{-1} grad F(theta)>.
The frozen-parameter field phi(w) = -Gamma g(w) keeps theta fixed and only
lets w act through the weighted Hessian. Finite-difference oracles for h
live here too.

Every p x p positive definite system is factored by _factor_spd, Cholesky
with one refusal rule on LAPACK's condition estimate pocon: H(w) v = grad F
for p <= 64, the frozen field and its Jacobian, and the ridge closed form,
whose factor of H(w) the exact solvers reuse for the hypergradient. Above
p = 64, H(w) v = grad F is solved by conjugate gradients on the
Hessian-vector product to relative residual 1e-10 in at most 10 p
iterations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    AssumptionViolationError,
    NoConvergenceError,
    NumericOverflowError,
    SingularDesignError,
    StepTooLargeError,
)
from .losses import (
    Dataset,
    ForwardPass,
    ModelParams,
    _check_mu,
    _weighted_gram,
    outer_loss,
)
from .simplex import SimplexWeights, TangentVector, _all_finite


# LAPACK's Cholesky factor, solve and condition estimate, called directly
# and with their default arguments (upper triangle, inputs kept): the p x p
# systems are tiny, SciPy's cho_factor/cho_solve wrappers cost ten times the
# solve, and keyword arguments alone cost half a call.
_potrf, _potrs, _pocon = get_lapack_funcs(("potrf", "potrs", "pocon"),
                                          dtype=np.float64)


def _factor_spd(A: np.ndarray):
    """The upper Cholesky factor of a finite symmetric A, or None where A is
    not positive definite to working precision: where potrf fails, or where
    pocon's estimate of 1/cond_1(A), given p max A_ii >= ||A||_1 as the
    norm, is at most 1e-12 / p^1.5. That estimate is never below
    (lambda_min / lambda_max) / p^1.5, so only A with lambda_min <= 1e-12
    lambda_max are refused; the rounding residue that Cholesky can leave a
    singular A as a positive pivot is caught whatever A's rank. Where
    p max A_ii overflows, the estimate is made on A / max A_ii, whose factor
    is c / sqrt(max A_ii) and whose norm bound is p."""
    c, info = _potrf(A)
    if info:
        return None
    p = A.shape[0]
    # Python's max over a list costs a third of NumPy's here
    top = max(A.diagonal().tolist())
    rcond = (_pocon(c, p * top) if p * top < math.inf
             else _pocon(c / math.sqrt(top), p))[0]
    return c if rcond > 1e-12 / p ** 1.5 else None


def _cho_solve(c: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^{-1} rhs from the upper Cholesky factor c of A, as
    scipy.linalg.cho_solve computes it, bit for bit."""
    if not _all_finite(rhs):
        raise ValueError("array must not contain infs or NaNs")
    return _potrs(c, rhs)[0]


def _hessian_factor(H: np.ndarray) -> np.ndarray:
    """_factor_spd(H), raising AssumptionViolationError where it refuses H."""
    if not _all_finite(H):
        raise ValueError("array must not contain infs or NaNs")
    c = _factor_spd(H)
    if c is None:
        raise AssumptionViolationError("inner Hessian is not positive definite")
    return c


def _solve_direct(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """H^{-1} rhs by Cholesky, as scipy.linalg.cho_factor and cho_solve
    compute it, bit for bit, where _factor_spd accepts H."""
    return _cho_solve(_hessian_factor(H), rhs)


def _solve_cg(apply_H, rhs: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Plain conjugate gradient on a positive definite operator. Raises
    NoConvergenceError if the relative residual is still above tol after
    max_iter iterations."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = r @ r
    norm_rhs = np.sqrt(rs)
    if norm_rhs == 0.0:
        return x
    for _ in range(max_iter):
        Hp = apply_H(p)
        pHp = p @ Hp
        if pHp <= 0:
            raise AssumptionViolationError("negative curvature in CG")
        alpha = rs / pHp
        x += alpha * p
        r -= alpha * Hp
        rs_new = r @ r
        if np.sqrt(rs_new) <= tol * norm_rhs:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise NoConvergenceError(
        f"CG did not reach relative residual {tol:.1e} in {max_iter} "
        f"iterations; final relative residual {np.sqrt(rs) / norm_rhs:.3e}")


# Cholesky up to p = 64, CG on the HVP above: each is faster on its side.
_DIRECT_MAX_P = 64
_CG_TOL = 1e-10


def _solve_hessian(train: ForwardPass, w_values: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    p = rhs.size
    if p <= _DIRECT_MAX_P:
        return _solve_direct(train.hess(w_values), rhs)
    return _solve_cg(lambda v: train.hess_apply(w_values, v), rhs, _CG_TOL,
                     10 * p)


def hypergrad(model, data, test_data, theta: ModelParams,
              w: SimplexWeights) -> np.ndarray:
    """Psi(theta, w): minus the Hessian-metric alignment of each per-sample
    gradient with the outer gradient."""
    return hypergrad_at(model.forward(theta.theta, data),
                        model.forward(theta.theta, test_data), w)


def hypergrad_at(train: ForwardPass, test: ForwardPass, w: SimplexWeights,
                 factor=None) -> np.ndarray:
    """Psi from forward passes at the same theta over the training and test
    sets: -Gamma H(w)^{-1} grad F(theta), with neither Gamma nor a per-sample
    Hessian formed. factor, if given, is the upper Cholesky factor of
    train.hess(w.values) that the caller already holds (see _closed_form),
    and H(w) is neither formed nor factored again."""
    rhs = test.mean_fit_grad()
    v = (_solve_hessian(train, w.values, rhs) if factor is None
         else _cho_solve(factor, rhs))
    psi = train.gamma_apply(v)
    return np.negative(psi, out=psi)


class FrozenField:
    """The hypergradient field with parameters frozen at theta_0.

    phi(w) = -Gamma g(w) with Gamma the n x p per-sample gradient matrix and
    g(w) = H(w)^{-1} grad F(theta_0), H(w) = sum_i w_i H_i. It carries the
    per-sample Hessians, so it states its own Jacobian for stability_check.
    """

    def __init__(self, gamma: np.ndarray, sample_hessians: np.ndarray,
                 grad_outer: np.ndarray):
        self.gamma = np.asarray(gamma, dtype=float)
        self.sample_hessians = np.asarray(sample_hessians, dtype=float)
        self.grad_outer = np.asarray(grad_outer, dtype=float)
        n, p = self.gamma.shape
        if self.sample_hessians.shape != (n, p, p):
            raise ValueError("sample Hessians must have shape (n, p, p)")
        if self.grad_outer.shape != (p,):
            raise ValueError("outer gradient dimension mismatch")
        if not _all_finite(self.grad_outer):  # once: every solve reuses it
            raise ValueError("array must not contain infs or NaNs")
        self.n = n
        self.p = p

    def weighted_hessian(self, values: np.ndarray) -> np.ndarray:
        """H(w) = sum_i w_i H_i on raw coordinates."""
        return np.einsum("i,ijk->jk", values, self.sample_hessians)

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        c = _hessian_factor(self.weighted_hessian(w.values))
        return -(self.gamma @ _potrs(c, self.grad_outer)[0])

    def jacobian(self, w: SimplexWeights) -> np.ndarray:
        """D phi(w)_ij = <Gamma_i, H^{-1} H_j g>, as dg/dw_j = -H^{-1} H_j g."""
        c = _hessian_factor(self.weighted_hessian(w.values))
        g = _potrs(c, self.grad_outer)[0]
        return self.gamma @ _cho_solve(c, (self.sample_hessians @ g).T)

    @classmethod
    def ridge_like(cls, rng, n: int, p: int, ridge: float) -> "FrozenField":
        """A random field with H_i = u_i u_i^T + ridge I: Gamma, the u_i and
        grad F drawn in that order from rng, a seed or a Generator."""
        rng = np.random.default_rng(rng)
        gamma = rng.standard_normal((n, p))
        us = rng.standard_normal((n, p))
        hess = np.einsum("ij,ik->ijk", us, us) + ridge * np.eye(p)[None]
        return cls(gamma, hess, rng.standard_normal(p))


def frozen_field(model, data, test_data, theta0: ModelParams) -> FrozenField:
    """Snapshot the hypergradient field at theta0 from one training pass
    and one test pass."""
    train = model.forward(theta0.theta, data)
    return FrozenField(train.sample_grads(), train.sample_hessians(),
                       model.forward(theta0.theta, test_data).mean_fit_grad())


def closed_form_inner_quadratic(data: Dataset, w: SimplexWeights,
                                mu: float = 0.0) -> ModelParams:
    """Exact inner minimizer for the ridge model: theta*(w) =
    (sum_i w_i d_i d_i^T + mu sum_i w_i I)^{-1} sum_i w_i y_i d_i."""
    return _closed_form(data, w.values, _check_mu(mu))[0]


def _closed_form(data: Dataset, w_values: np.ndarray, mu: float):
    """theta*(w) and the upper Cholesky factor of the system it solved,
    A = X^T diag(w) X + mu sum(w) I, which is the ridge pass's hess(w) bit
    for bit. A non-finite A or right-hand side raises NumericOverflowError,
    and an A that _factor_spd refuses raises SingularDesignError."""
    A = _weighted_gram(data, w_values)
    if mu:
        A.flat[::data.d + 1] += mu * w_values.sum()
    # X.T, not features_T: this product keeps the rounding theta*(w) had
    b = data.features.T @ (w_values * data.targets)
    if not (_all_finite(A) and _all_finite(b)):
        raise NumericOverflowError("weighted Gram or right-hand side "
                                   "overflowed to a non-finite value")
    c = _factor_spd(A)
    if c is None:
        raise SingularDesignError(
            "weighted design is singular; enlarge the support or set mu > 0"
        )
    return ModelParams(_potrs(c, b)[0]), c


def _value_function(model, data, test_data, w: SimplexWeights) -> float:
    """h(w) = F(theta*(w)) with a high-precision inner solve."""
    from .solvers import solve_inner  # local import to avoid a cycle

    theta = solve_inner(model, data, w, ModelParams(
        np.zeros(model.n_params(data))), tol=1e-12)
    return outer_loss(model, test_data, theta)


def value_function_fd(model, data, test_data, w: SimplexWeights,
                      direction: TangentVector, eps: float = None) -> float:
    """Central-difference directional derivative of h along a tangent
    direction; the independent oracle for the hypergradient."""
    d = direction.values
    if eps is None:
        eps = 1e-5 * (1.0 + np.abs(w.values).max())
    plus = w.values + eps * d
    minus = w.values - eps * d
    if np.any(plus < 0) or np.any(minus < 0):
        raise StepTooLargeError("central-difference probe leaves the simplex")
    hp = _value_function(model, data, test_data, SimplexWeights.from_unnormalized(plus))
    hm = _value_function(model, data, test_data, SimplexWeights.from_unnormalized(minus))
    return (hp - hm) / (2.0 * eps)
