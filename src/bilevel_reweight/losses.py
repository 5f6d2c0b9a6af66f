"""Datasets and strongly convex loss models.

The inner objective is the weighted empirical risk
G(theta, w) = sum_i w_i l(theta; x_i), the outer objective the unweighted
mean test loss F(theta). Per-sample regularization (mu/2)||theta||^2 is part
of the training loss l so each per-sample Hessian has lambda_min >= mu; the
outer loss uses the bare fit term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import _check_number
from .simplex import SimplexWeights, _all_finite

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d) plus targets (reals or class indices).

    The dataset owns read-only copies of the features and targets, and the
    features' transpose as a C-contiguous d x n array, features_T, so that
    products with X^T run on a contiguous operand. A classification dataset
    also holds its targets one-hot and class-major, C x n, as one_hot_T
    (None for regression), so the softmax residual is one subtraction, and
    mean_weights, the read-only uniform weights 1/n of a mean."""

    features: np.ndarray
    targets: np.ndarray
    kind: str = REGRESSION
    n_classes: Optional[int] = None
    features_T: np.ndarray = field(init=False, repr=False, compare=False)
    one_hot_T: Optional[np.ndarray] = field(init=False, repr=False,
                                            compare=False)
    mean_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        X = np.array(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if not _all_finite(X):
            raise ValueError("features must be finite")
        XT = np.ascontiguousarray(X.T)
        X.flags.writeable = XT.flags.writeable = False
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "features_T", XT)
        if self.kind not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind == CLASSIFICATION:
            y = np.array(self.targets, dtype=int)
            if self.n_classes is None or self.n_classes < 2:
                raise ValueError("classification needs n_classes >= 2")
            if y.min() < 0 or y.max() >= self.n_classes:
                raise ValueError("class targets out of range")
        else:
            y = np.array(self.targets, dtype=float)
            if not _all_finite(y):
                raise ValueError("regression targets must be finite")
        y.flags.writeable = False
        object.__setattr__(self, "targets", y)
        if y.shape != (X.shape[0],):
            raise ValueError("targets must be a length-n vector")
        Y = None
        if self.kind == CLASSIFICATION:
            Y = np.zeros((self.n_classes, y.size))
            Y[y, np.arange(y.size)] = 1.0
            Y.flags.writeable = False
        object.__setattr__(self, "one_hot_T", Y)
        u = np.full(y.size, 1.0 / y.size)
        u.flags.writeable = False
        object.__setattr__(self, "mean_weights", u)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ModelParams:
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", t)
        if not _all_finite(t):
            raise ValueError("parameters must be finite")


class ForwardPass:
    """One forward pass of a loss model at theta over a dataset, and the
    per-sample operators it determines.

    Gamma is the n x p matrix whose row i is the gradient of the per-sample
    training loss l(theta; x_i). The operators act with Gamma and with the
    weighted Hessian H(w) = sum_i w_i hess l(theta; x_i) without forming
    either per sample:

    * gamma_apply(v) = Gamma v,
    * gamma_T_apply(w) = Gamma^T w, the inner gradient,
    * hess_apply(w, v) = H(w) v and hess(w) = H(w), p x p,
    * gamma_hess_apply(w, v) = (Gamma v, H(w) v) from one product of v
      with X^T, the pair a SOBA step needs.

    sample_grads (Gamma itself, n x p) and sample_hessians (the n x p x p
    per-sample Hessian stack) are the only operators that build either;
    they, and fit_grads for the bare fit term, are meant for small frozen
    snapshots and for reference checks. The pass holds theta by reference:
    theta must not change while the pass is in use.

    Subclasses compute the fit term in fit_losses, fit_gamma_T_apply,
    fit_hess, fit_grads and fit_sample_hessians, and Gamma v and H(w) v in
    two steps: the product A of v with X^T (fit_product), then
    fit_gamma_from(A) and fit_hess_from(w, A). The (mu/2)||theta||^2
    regularizer of each per-sample loss is added here.
    """

    def __init__(self, model: "LossModel", theta: np.ndarray, data: Dataset):
        self.mu = model.mu
        self.theta = theta
        self.data = data

    def mean_fit_grad(self) -> np.ndarray:
        """Gradient of the mean fit loss, Gamma_fit^T (1/n)."""
        return self.fit_gamma_T_apply(self.data.mean_weights)

    # --- regularized per-sample training loss ---
    # At mu = 0 the regularizer's terms are exact zeros and are skipped.
    def sample_losses(self) -> np.ndarray:
        if not self.mu:
            return self.fit_losses()
        return self.fit_losses() + 0.5 * self.mu * float(self.theta @ self.theta)

    def _gamma(self, v, A) -> np.ndarray:
        if not self.mu:
            return self.fit_gamma_from(A)
        return self.fit_gamma_from(A) + self.mu * float(self.theta @ v)

    def _hess(self, w, v, A) -> np.ndarray:
        if not self.mu:
            return self.fit_hess_from(w, A)
        return self.fit_hess_from(w, A) + (self.mu * w.sum()) * v

    def gamma_apply(self, v) -> np.ndarray:
        return self._gamma(v, self.fit_product(v))

    def hess_apply(self, w, v) -> np.ndarray:
        return self._hess(w, v, self.fit_product(v))

    def gamma_hess_apply(self, w, v):
        """(gamma_apply(v), hess_apply(w, v)), bit for bit, from one
        product of v with X^T. Nothing is kept between calls."""
        A = self.fit_product(v)
        return self._gamma(v, A), self._hess(w, v, A)

    def gamma_T_apply(self, w) -> np.ndarray:
        if not self.mu:
            return self.fit_gamma_T_apply(w)
        return self.fit_gamma_T_apply(w) + (self.mu * w.sum()) * self.theta

    def hess(self, w) -> np.ndarray:
        """H(w), p x p, a new array. The ridge closed form builds the same
        matrix bit for bit and keeps its Cholesky factor instead."""
        H = self.fit_hess(w)
        if self.mu:
            H.flat[::H.shape[0] + 1] += self.mu * w.sum()
        return H

    def sample_grads(self) -> np.ndarray:
        return self.fit_grads() + self.mu * self.theta[None, :]

    def sample_hessians(self) -> np.ndarray:
        p = self.theta.size
        return self.fit_sample_hessians() + self.mu * np.eye(p)[None]


class LossModel:
    """Per-sample loss: its mu, whether it is quadratic in theta, the
    parameter count, and forward.

    forward(theta, data) makes the one pass over the data that every oracle
    at theta needs, and its ForwardPass operators are the model's only
    oracles; a caller that wants several at the same theta makes the pass
    once.
    """

    mu: float
    is_quadratic = False

    def n_params(self, data: Dataset) -> int:
        raise NotImplementedError

    def forward(self, theta: np.ndarray, data: Dataset) -> ForwardPass:
        raise NotImplementedError


def _check_mu(mu) -> float:
    """mu as a float, or ConfigError if it is not a nonnegative finite real."""
    _check_number("mu", mu, 0.0, "nonnegative")
    return float(mu)


def _weighted_gram(data: Dataset, w: np.ndarray) -> np.ndarray:
    """X^T diag(w) X, d x d, equal bit for bit to X.T @ (w[:, None] * X)
    without the n x d broadcast of w."""
    return data.features.T @ (data.features_T * w).T


class _RidgePass(ForwardPass):
    """Forward pass of the ridge model: the residual r = X theta - y. Its
    products with X^T use the dataset's contiguous features_T."""

    def __init__(self, model, theta, data):
        super().__init__(model, theta, data)
        self.r = theta @ data.features_T - data.targets

    def fit_losses(self):
        return 0.5 * self.r * self.r

    def fit_product(self, v):
        return v @ self.data.features_T

    def fit_gamma_from(self, A):
        return self.r * A

    def fit_hess_from(self, w, A):
        return self.data.features_T @ (w * A)

    def fit_gamma_T_apply(self, w):
        return self.data.features_T @ (w * self.r)

    def fit_hess(self, w):
        return _weighted_gram(self.data, w)

    def fit_grads(self):
        return self.r[:, None] * self.data.features

    def fit_sample_hessians(self):
        X = self.data.features
        return np.einsum("ij,ik->ijk", X, X)


class RidgeLeastSquares(LossModel):
    """l(theta; x) = 0.5 (<d, theta> - y)^2 + (mu/2)||theta||^2.

    mu = 0 is allowed when the weighted design is full rank.
    """

    is_quadratic = True

    def __init__(self, mu: float = 0.0):
        self.mu = _check_mu(mu)

    def n_params(self, data: Dataset) -> int:
        return data.d

    def forward(self, theta, data):
        return _RidgePass(self, theta, data)


class _LogisticPass(ForwardPass):
    """Forward pass of the multinomial logistic model: the class
    probabilities and the softmax residual R = P - Y, stored class-major
    (C x n) as Pc and Rc with the shifted logits and the softmax
    denominator sum_e, so the softmax reductions run over the short
    leading axis and each operator is one product with X or X^T. Rc is
    Pc minus the dataset's one_hot_T.

    Parameters are flattened row-major from W (C x d), so row i of Gamma_fit
    is R_i (x) x_i and sample i's fit Hessian is kron(S_i, x_i x_i^T) with
    S_i = diag(P_i) - P_i P_i^T. P and R are the n x C views of Pc and Rc.
    """

    def __init__(self, model, theta, data):
        super().__init__(model, theta, data)
        self.W = theta.reshape(data.n_classes, data.d)
        self.logits = self.W @ data.features_T
        self.logits -= self.logits.max(axis=0)
        self.Pc = np.exp(self.logits)
        self.sum_e = self.Pc.sum(axis=0)
        self.Pc /= self.sum_e
        self.Rc = self.Pc - data.one_hot_T
        self.P, self.R = self.Pc.T, self.Rc.T

    def fit_losses(self):
        # -log P_y from the shifted logits: exact where P_y underflows
        own = self.logits[self.data.targets, np.arange(self.data.n)]
        return np.log(self.sum_e) - own

    def fit_product(self, v):
        return v.reshape(self.W.shape) @ self.data.features_T  # C x n

    def fit_gamma_from(self, A):
        return np.sum(self.Rc * A, axis=0)

    def fit_hess_from(self, w, A):
        Pc = self.Pc
        B = Pc * A
        B -= Pc * B.sum(axis=0)
        B *= w
        return (B @ self.data.features).reshape(-1)

    def fit_gamma_T_apply(self, w):
        return ((self.Rc * w) @ self.data.features).reshape(-1)

    def _softmax_hessians(self):
        P = self.P
        return P[:, :, None] * (np.eye(P.shape[1]) - P[:, None, :])  # n x C x C

    def _feature_outer(self):
        X = self.data.features
        return X[:, :, None] * X[:, None, :]  # n x d x d

    def fit_hess(self, w):
        S = self._softmax_hessians()
        H = np.tensordot(w[:, None, None] * S, self._feature_outer(), axes=(0, 0))
        p = self.theta.size
        return H.transpose(0, 2, 1, 3).reshape(p, p)  # C x d x C x d

    def fit_grads(self):
        n = self.data.n
        return np.einsum("ic,id->icd", self.R, self.data.features).reshape(n, -1)

    def fit_sample_hessians(self):
        H = np.einsum("ick,ijl->icjkl", self._softmax_hessians(),
                      self._feature_outer())
        p = self.theta.size
        return H.reshape(self.data.n, p, p)


class RegularizedMultinomialLogistic(LossModel):
    """Cross-entropy for a linear model plus (mu/2)||theta||^2.

    Logits are theta reshaped to C x d; regularization covers all
    coordinates. Default mu = 1e-2.
    """

    def __init__(self, mu: float = 1e-2):
        self.mu = _check_mu(mu)

    def n_params(self, data: Dataset) -> int:
        if data.kind != CLASSIFICATION:
            raise ValueError("logistic model needs a classification dataset")
        return data.n_classes * data.d

    def forward(self, theta, data):
        return _LogisticPass(self, theta, data)


def inner_loss(model, data, theta: ModelParams, w: SimplexWeights) -> float:
    """Weighted training objective G(theta, w) = sum_i w_i l(theta; x_i)."""
    return float(w.values @ model.forward(theta.theta, data).sample_losses())


def outer_loss(model, test_data, theta: ModelParams) -> float:
    """Mean test loss F(theta), unregularized."""
    return float(model.forward(theta.theta, test_data).fit_losses().mean())


def accuracy(model, data: Dataset, theta: ModelParams) -> float:
    """Classification accuracy of the linear model on a dataset."""
    if data.kind != CLASSIFICATION:
        raise ValueError("accuracy needs a classification dataset")
    W = theta.theta.reshape(data.n_classes, data.d)
    pred = (data.features @ W.T).argmax(axis=1)
    return float((pred == data.targets).mean())
