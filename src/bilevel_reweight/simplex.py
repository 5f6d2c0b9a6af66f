"""Geometry of the probability simplex.

Entropic mirror-descent updates, the Riemannian preconditioner
P(w) = diag(w) - w w^T, entropy, and support bookkeeping. Everything here
is a pure function; weights are validated on construction, except where
they are on the simplex by construction (SimplexWeights._unchecked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericOverflowError, _check_number

SUM_TOL = 1e-12
DEFAULT_SUPPORT_TOL = 1e-8


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() for a real array, mostly in one BLAS product: a
    NaN or an infinity makes the sum of squares non-finite, and only a
    finite array whose squares overflow needs the exact test. Unlike
    a.sum(), np.vdot raises no floating-point warning on overflow or on
    inf - inf."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _finite(what: str, *arrays):
    """The one guard on a number a run computed, which halts the run:
    NumericOverflowError naming what unless every array is finite."""
    for a in arrays:
        if not _all_finite(a):
            raise NumericOverflowError(f"{what} overflowed to a non-finite value")


@dataclass(frozen=True)
class SimplexWeights:
    """A point of the n-simplex: nonnegative entries summing to one.
    interior is True when every entry is positive."""

    values: np.ndarray
    interior: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("weights must be a nonempty 1-d vector")
        # the common case in two reductions: a NaN fails the min test, +inf
        # the sum test and -inf both, so this accepts only what the checks
        # below accept
        least = v.min()
        if least >= 0 and abs(v.sum() - 1.0) <= SUM_TOL:
            object.__setattr__(self, "interior", bool(least > 0))
            return
        if not _all_finite(v):
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
        if not math.isfinite(s) or s <= 0:
            raise ValueError("cannot normalize: nonpositive or nonfinite mass")
        return SimplexWeights(v / s)

    @staticmethod
    def one_hot(n: int, i: int) -> "SimplexWeights":
        v = np.zeros(n)
        v[i] = 1.0
        return SimplexWeights(v)

    @staticmethod
    def _unchecked(v: np.ndarray) -> "SimplexWeights":
        """v without the checks, for a float vector on the simplex by
        construction: nonnegative entries divided by their finite, positive
        sum. interior is read off the minimum, as __post_init__ reads it."""
        w = object.__new__(SimplexWeights)
        object.__setattr__(w, "values", v)
        object.__setattr__(w, "interior", bool(v.min() > 0))
        return w


@dataclass(frozen=True)
class TangentVector:
    """A direction in the simplex tangent space: entries sum to zero."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if not _all_finite(v):
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
    _finite("phi", phi)
    v = w.values
    with np.errstate(over="ignore", invalid="ignore"):
        # one buffer: z becomes exp(min(zmin - z, 0)), then the new weights;
        # zmin - z <= 0 on the support, so the clamp only acts off it,
        # where it keeps 0 * exp(...) an exact 0 however large eta * phi is.
        # Interior weights have no such entry, and the clamp is skipped.
        z = eta * phi
        if w.interior:
            np.subtract(z.min(), z, out=z)
        else:
            np.subtract(z.min(where=v > 0, initial=np.inf), z, out=z)
            np.minimum(z, 0.0, out=z)
        np.exp(z, out=z)
        z *= v
    s = z.sum()
    if not math.isfinite(s) or s <= 0:
        raise NumericOverflowError(
            "mirror step produced a degenerate update; rescale eta"
        )
    z /= s
    return SimplexWeights._unchecked(z)


def preconditioner(w: SimplexWeights) -> np.ndarray:
    """P(w) = diag(w) - w w^T, the entropic-metric preconditioner."""
    v = w.values
    return np.diag(v) - np.outer(v, v)


def _entropies(w: np.ndarray) -> np.ndarray:
    """entropy of each weight vector along the last axis of w."""
    terms = np.log(w, out=np.zeros_like(w), where=w > 0)
    terms *= w
    return -terms.sum(axis=-1)


def entropy(w: SimplexWeights) -> float:
    """Shannon entropy -sum w_i log w_i, with 0 log 0 = 0."""
    return float(_entropies(w.values))


def support(w: SimplexWeights, tol: float = DEFAULT_SUPPORT_TOL) -> np.ndarray:
    """Indices with weight above tol."""
    _check_number("tol", tol, 1.0, "positive")
    return np.flatnonzero(w.values > tol)


def project_tangent(v) -> TangentVector:
    """Center v onto the tangent space by subtracting its mean."""
    v = np.asarray(v, dtype=float)
    if not _all_finite(v):
        raise ValueError("input must be finite")
    return TangentVector(v - v.mean())
