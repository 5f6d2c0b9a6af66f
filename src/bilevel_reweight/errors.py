"""Exception types shared across the package."""

import dataclasses
import math
import numbers

import numpy as np


class BilevelError(Exception):
    """Base class for all package errors."""


class NumericOverflowError(BilevelError):
    """Multiplicative update overflowed; the caller should rescale the step."""


class AssumptionViolationError(BilevelError):
    """The inner Hessian is not positive definite."""


class SingularDesignError(BilevelError):
    """Weighted design matrix is singular (support too small for the rank)."""


class StepTooLargeError(BilevelError):
    """A central-difference probe left the simplex."""


class NoConvergenceError(BilevelError):
    """An iterative solve exceeded its iteration cap."""


class AbsoluteContinuityError(BilevelError):
    """A test atom does not appear in the training set."""


class PreconditionError(BilevelError):
    """An operation was called on an input violating its stated precondition."""


class DatasetFormatError(BilevelError):
    """A dataset file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class ConfigError(BilevelError, ValueError):
    """A config or dataset spec holds a value it rejects; the message names
    the field or the kind."""


def _check_number(name, value, default, sign):
    """ConfigError unless value is a number of default's kind: an integer
    where default is an int, a real number where it is a float, and where it
    is a list or tuple a non-empty list, tuple or 1-d array of those. A bool
    is never a number. Each number must be finite and, as sign says,
    "positive", "nonnegative" or of "any" sign."""
    if isinstance(default, (list, tuple)):
        if not (isinstance(value, (list, tuple)) or np.ndim(value) == 1):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if not len(value):
            raise ConfigError(f"{name} must be a non-empty list")
        for item in value:
            _check_number(name, item, default[0], sign)
        return
    kind, what = ((numbers.Integral, "an integer") if isinstance(default, int)
                  else (numbers.Real, "a real number"))
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    # each test is written so that NaN fails it
    if not {"positive": 0 < value < math.inf,
            "nonnegative": 0 <= value < math.inf,
            "any": -math.inf < value < math.inf}[sign]:
        what = "finite" if sign == "any" else f"{sign} and finite"
        raise ConfigError(f"{name} must be {what}")


def _check_fields(config, **signs):
    """_check_number on each field of the dataclass instance config, against
    its default, with the sign signs names for it ("positive" if none)."""
    for f in dataclasses.fields(config):
        _check_number(f.name, getattr(config, f.name), f.default,
                      signs.get(f.name, "positive"))
