"""Hypergradients via implicit differentiation.

The gradient of the value function h(w) = F(theta*(w)) is
Psi(theta*(w), w) with Psi_i = -<grad l_i(theta), H(theta,w)^{-1} grad F(theta)>.
The frozen-parameter field phi(w) = -Gamma g(w) keeps theta fixed and only
lets w act through the weighted Hessian. Finite-difference oracles for h
live here too.

The system H(w) v = grad F is solved by Cholesky on the formed Hessian when
p <= 64, and above that by conjugate gradients on the Hessian-vector product
to relative residual 1e-10 in at most 10 p iterations. The frozen field and
its Jacobian solve with the same Cholesky routine, _solve_direct, and so
refuse the same Hessians.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg
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


# LAPACK's Cholesky factor and solve, called directly: the p x p systems are
# tiny and SciPy's cho_factor/cho_solve wrappers cost ten times the solve.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)

# The gufuncs behind np.linalg.eigvalsh and np.linalg.solve for a vector
# right-hand side, called directly on the d x d closed-form system for the
# same reason. They run under the error state that eigvalsh and solve set
# and fail with the same LinAlgError messages.
_eigvalsh_lo = _umath_linalg.eigvalsh_lo
_solve1 = _umath_linalg.solve1


def _eig_failed(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _solve_direct(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """H^{-1} rhs by Cholesky, as scipy.linalg.cho_factor and cho_solve
    compute it, bit for bit, where H is positive definite to working
    precision. Rounding can leave a singular H a factor with positive
    pivots, so H is also refused where the smallest squared pivot is at most
    1e-12 times the largest diagonal entry of H. Each squared pivot is at
    least lambda_min and each diagonal entry at most lambda_max, so no H
    that _closed_form accepts is refused. It refuses a rank-1 H (a Gram of
    one sample), whose later pivots are rounding residues, but a singular H
    of rank 2 or more whose null vector is nearly orthogonal to the last
    coordinate can keep its pivots and pass."""
    if not (_all_finite(H) and _all_finite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    c, info = _potrf(H, lower=False, clean=False, overwrite_a=False)
    if info == 0:
        # Python's min and max over lists cost a third of NumPy's here
        lo = min(c.diagonal().tolist())
        if lo * lo <= 1e-12 * max(H.diagonal().tolist()):
            info = 1
    if info > 0:
        raise AssumptionViolationError("inner Hessian is not positive definite")
    if info == 0:
        x, info = _potrs(c, rhs, lower=False, overwrite_b=False)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
    return x


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


def _solve_hessian(train: ForwardPass, w_values: np.ndarray, rhs: np.ndarray,
                   fit_hess=None) -> np.ndarray:
    p = rhs.size
    if p <= _DIRECT_MAX_P:
        return _solve_direct(train.hess(w_values, fit_hess), rhs)
    return _solve_cg(lambda v: train.hess_apply(w_values, v), rhs, _CG_TOL,
                     10 * p)


def hypergrad(model, data, test_data, theta: ModelParams,
              w: SimplexWeights) -> np.ndarray:
    """Psi(theta, w): minus the Hessian-metric alignment of each per-sample
    gradient with the outer gradient."""
    return hypergrad_at(model.forward(theta.theta, data),
                        model.forward(theta.theta, test_data), w)


def hypergrad_at(train: ForwardPass, test: ForwardPass, w: SimplexWeights,
                 fit_hess=None) -> np.ndarray:
    """Psi from forward passes at the same theta over the training and test
    sets: -Gamma H(w)^{-1} grad F(theta), with neither Gamma nor a per-sample
    Hessian formed. fit_hess, if given, is train.fit_hess(w.values) as the
    caller already built it (see ForwardPass.hess)."""
    v = _solve_hessian(train, w.values, test.mean_fit_grad(), fit_hess)
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
        self.n = n
        self.p = p

    def weighted_hessian(self, values: np.ndarray) -> np.ndarray:
        """H(w) = sum_i w_i H_i on raw coordinates."""
        return np.einsum("i,ijk->jk", values, self.sample_hessians)

    def __call__(self, w: SimplexWeights) -> np.ndarray:
        return -(self.gamma @ _solve_direct(self.weighted_hessian(w.values),
                                            self.grad_outer))

    def jacobian(self, w: SimplexWeights) -> np.ndarray:
        """D phi(w)_ij = <Gamma_i, H^{-1} H_j g>, as dg/dw_j = -H^{-1} H_j g."""
        H = self.weighted_hessian(w.values)
        g = _solve_direct(H, self.grad_outer)
        return self.gamma @ _solve_direct(H, (self.sample_hessians @ g).T)

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
    """Exact inner minimizer for the ridge model:
    theta*(w) = (sum_i w_i d_i d_i^T + mu I)^{-1} sum_i w_i y_i d_i."""
    return _closed_form(data, w.values, _check_mu(mu))[0]


def _closed_form(data: Dataset, w_values: np.ndarray, mu: float):
    """theta*(w) and the weighted Gram X^T diag(w) X it was solved with,
    which is the ridge pass's fit_hess(w) bit for bit."""
    G = _weighted_gram(data, w_values)
    A = G.copy()
    A.flat[::data.d + 1] += mu
    # X.T, not features_T: this product keeps the rounding theta*(w) had
    b = data.features.T @ (w_values * data.targets)
    with np.errstate(call=_eig_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        eigvals = _eigvalsh_lo(A)
    lo, hi = eigvals[0], eigvals[-1]
    if not (lo > 1e-12 * hi and lo > 1e-12):  # NaN fails
        if not math.isfinite(lo + hi):
            raise NumericOverflowError("weighted Gram overflowed to a "
                                       "non-finite value")
        raise SingularDesignError(
            "weighted design is singular; enlarge the support or set mu > 0"
        )
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        theta = _solve1(A, b)
    return ModelParams(theta), G


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
