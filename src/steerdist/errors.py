"""Exception types shared across the toolkit, and the argument gate (check_*)."""
import math
import numbers
import os

import numpy as np


class SteerdistError(Exception):
    """Base class for all toolkit errors."""


class NotHermitianError(SteerdistError, ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotPSDError(SteerdistError, ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class NoConvergenceError(SteerdistError, RuntimeError):
    """Eigensolver failed to converge."""


class DimOverflowError(SteerdistError, ValueError):
    """Operation would produce a matrix larger than the supported 8x8."""


class DimMismatchError(SteerdistError, ValueError):
    """Operands have incompatible shapes or dimensions."""


class BadMaskError(SteerdistError, ValueError):
    """Subsystem or party mask is empty, out of range, or invalid."""


class BadArgumentError(SteerdistError, ValueError):
    """Argument of the wrong kind or out of range: a count, seed, weight or assemblage."""


class ThetaOutOfRangeError(SteerdistError, ValueError):
    """State angle outside [0, pi/4]."""


class KappaOutOfRangeError(SteerdistError, ValueError):
    """Filter strength outside [0, 1]."""


class ZeroSuccessProbabilityError(SteerdistError, ValueError):
    """Filter success probability is numerically zero."""


class ScenarioMismatchError(SteerdistError, ValueError):
    """Assemblages from different scenarios were combined."""


class InvariantViolationError(SteerdistError, ValueError):
    """An assemblage failed validation."""


class NonFiniteObjectiveError(SteerdistError, ArithmeticError):
    """Optimization objective evaluated to NaN or infinity."""


class NoSignChangeError(SteerdistError, ValueError):
    """Root bracketing failed: witness has the same sign at both interval ends."""


class SchemaError(SteerdistError, ValueError):
    """An assemblage JSON document does not follow the interchange format."""


def _as_float(value) -> float:
    """float(value) for a real number within the float range, else NaN."""
    if isinstance(value, float):   # float and np.float64, before the slower ABC check
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:   # 10**400
        return math.nan


def check_real(value, name: str, lo: float = -math.inf, hi: float = math.inf,
               error: type[SteerdistError] = BadArgumentError) -> float:
    """``value`` as a finite float in [lo, hi]; anything else raises ``error``.

    Booleans, text, complex numbers, None, NaN, +-inf and integers past the
    float range are refused.
    """
    x = _as_float(value)
    if not (math.isfinite(x) and lo <= x <= hi):
        raise error(f"{name} must be a real number in [{lo:.6g}, {hi:.6g}], got {value!r}")
    return x


def check_integer(value, name: str, low: int, high: int | None = None,
                  error: type[SteerdistError] = BadArgumentError) -> int:
    """``value`` as an int when it is integral, within the float range and in [low, high)."""
    n = int(value) if math.isfinite(_as_float(value)) else None
    if n is None or n != value or n < low or (high is not None and n >= high):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return n


def check_sequence(values, name: str, error: type[SteerdistError] = BadArgumentError) -> tuple:
    """``values`` as a tuple; text and anything not iterable raise ``error``."""
    try:
        items = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:   # not iterable
        items = None
    if items is None:
        raise error(f"{name} must be a sequence, got {values!r}")
    return items


def check_path(path):
    """``path`` when it is a str, bytes or os.PathLike; open() would take an int as a descriptor."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise BadArgumentError(f"path must be str, bytes or os.PathLike, got {type(path).__name__}")
    return path


def check_array(value, name: str, error: type[SteerdistError] = BadArgumentError) -> np.ndarray:
    """``value`` as a complex array; booleans, text, objects and ragged nesting raise ``error``."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):   # ragged nesting
        a = None
    if a is None or a.dtype.kind not in "iufc":
        raise error(f"{name} must be a rectangular array of real or complex numbers")
    return np.asarray(a, dtype=complex)
