"""Exception types shared across the package."""

import dataclasses
import numbers


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


# annotation -> (accepted types, description); the modules that declare
# configs use `from __future__ import annotations`, so annotations are strings
_FIELD_TYPES = {"int": (numbers.Integral, "an integer"),
                "float": (numbers.Real, "a real number")}


def _check_field_types(config):
    """Raise ConfigError unless each int or float field of the dataclass
    instance config holds a value of that type."""
    for f in dataclasses.fields(config):
        types, what = _FIELD_TYPES.get(f.type, (object, None))
        value = getattr(config, f.name)
        if not isinstance(value, types):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
