"""Exception types shared across the toolkit."""


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
