"""Geometry of the probability simplex.

Entropic mirror-descent updates, the Riemannian preconditioner
P(w) = diag(w) - w w^T, entropy, and support bookkeeping. Everything here
is a pure function; weights are validated on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError

SUM_TOL = 1e-12
DEFAULT_SUPPORT_TOL = 1e-8


@dataclass(frozen=True)
class SimplexWeights:
    """A point of the n-simplex: nonnegative entries summing to one."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("weights must be a nonempty 1-d vector")
        # the common case in two reductions: a NaN fails the min test, +inf
        # the sum test and -inf both, so this accepts only what the checks
        # below accept
        if v.min() >= 0 and abs(v.sum() - 1.0) <= SUM_TOL:
            return
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        if np.any(v < 0):
            raise ValueError("weights must be nonnegative")
        if abs(v.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {v.sum()!r}")

    @property
    def n(self) -> int:
        return self.values.size

    @staticmethod
    def uniform(n: int) -> "SimplexWeights":
        return SimplexWeights(np.full(n, 1.0 / n))

    @staticmethod
    def from_unnormalized(v) -> "SimplexWeights":
        v = np.asarray(v, dtype=float)
        s = v.sum()
        if not np.isfinite(s) or s <= 0:
            raise ValueError("cannot normalize: nonpositive or nonfinite mass")
        return SimplexWeights(v / s)

    @staticmethod
    def one_hot(n: int, i: int) -> "SimplexWeights":
        v = np.zeros(n)
        v[i] = 1.0
        return SimplexWeights(v)


@dataclass(frozen=True)
class TangentVector:
    """A direction in the simplex tangent space: entries sum to zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("tangent vector must be finite")
        if abs(v.sum()) > SUM_TOL * max(1.0, np.abs(v).max(initial=0.0)):
            raise ValueError("tangent vector entries must sum to 0")


def mirror_step(w: SimplexWeights, phi, eta: float) -> SimplexWeights:
    """One entropic mirror-descent update: w * exp(-eta*phi), renormalized.

    The exponent is shifted by its minimum over the support (w > 0) before
    exponentiating; shift invariance of the normalized update makes this
    exact while preventing overflow at large eta, and the supported entry
    with the smallest exponent keeps factor 1, so the update cannot
    underflow once w has collapsed onto a face. Exact zeros of w never
    revive (multiplicative update), matching the flow's invariant-face
    behavior. A non-finite phi raises NumericOverflowError (a solver halt).
    """
    phi = np.asarray(phi, dtype=float)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if phi.shape != w.values.shape:
        raise ValueError("phi dimension mismatch")
    if not np.all(np.isfinite(phi)):
        raise NumericOverflowError("phi must be finite")
    on = w.values > 0
    tilde = np.zeros_like(w.values)
    with np.errstate(over="ignore", invalid="ignore"):
        z = eta * phi[on]
        tilde[on] = w.values[on] * np.exp(-(z - z.min()))
    s = tilde.sum()
    if not np.isfinite(s) or s <= 0:
        raise NumericOverflowError(
            "mirror step produced a degenerate update; rescale eta"
        )
    return SimplexWeights(tilde / s)


def preconditioner(w: SimplexWeights) -> np.ndarray:
    """P(w) = diag(w) - w w^T, the entropic-metric preconditioner."""
    v = w.values
    return np.diag(v) - np.outer(v, v)


def entropy(w: SimplexWeights) -> float:
    """Shannon entropy -sum w_i log w_i, with 0 log 0 = 0."""
    v = w.values[w.values > 0]
    return float(-(v * np.log(v)).sum())


def support(w: SimplexWeights, tol: float = DEFAULT_SUPPORT_TOL) -> np.ndarray:
    """Indices with weight above tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return np.flatnonzero(w.values > tol)


def project_tangent(v) -> TangentVector:
    """Center v onto the tangent space by subtracting its mean."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("input must be finite")
    return TangentVector(v - v.mean())
