"""Exception types shared across the package, and the setting checks that raise them."""

import math
import numbers


class MopschedError(Exception):
    """Base class for all package errors."""


class ModelError(MopschedError):
    """Electrical model cannot be built (bad topology, singular matrices, ...)."""


class ValidationError(MopschedError):
    """Caller-supplied data violates a documented invariant."""


class PowerFlowDivergence(ModelError):
    """The fixed-point power flow failed to converge.

    Carries the last nodal mismatch so callers can distinguish "slightly out
    of tolerance" from "far outside the solvable regime".
    """

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"power flow did not converge: residual {residual:.3e} after "
            f"{iterations} iterations"
        )


def _as_float(value):
    """``value`` as a float if it is a real number (not a bool), else NaN."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int too large for a float
        return math.inf


def real_number(name, value):
    """``value`` as a float, if it is a real number (not a bool or a string).

    Range and finiteness are left to the code the value is for.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return _as_float(value)


def real_setting(name, value, high=math.inf):
    """``value`` as a float, if it is a finite number in (0, ``high``]."""
    x = _as_float(value)
    if not (math.isfinite(x) and 0 < x <= high):
        bound = "" if high == math.inf else f" and at most {high:g}"
        raise ValidationError(f"{name} must be a finite number above 0{bound}, got {value!r}")
    return x


def count_setting(name, value, least):
    """``value`` as an int, if it is a whole number no smaller than ``least``."""
    if not (_as_float(value).is_integer() and value >= least):
        raise ValidationError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)
