"""Exception types raised across the toolkit.

Input-validation problems derive from ``ValueError`` so callers can catch
bad data with one handler; numerical breakdowns that occur on valid input
derive from ``RuntimeError``.
"""

__all__ = [
    "ConvergenceError",
    "DataFormatError",
    "DegenerateDataError",
    "IllConditionedInversionError",
    "SaturationCapError",
    "TargetUnreachableError",
    "TruncationError",
    "UndefinedFidelityError",
]


class TruncationError(ValueError):
    """Photon-number truncation too small for the requested intensities."""


class DataFormatError(ValueError):
    """Malformed click-data file or serialized document."""


class UndefinedFidelityError(ValueError):
    """Fidelity requested against an identically zero click vector."""


class TargetUnreachableError(ValueError):
    """Measured click probabilities never bracket the requested target."""


class DegenerateDataError(ValueError):
    """Every probe row was excluded, leaving nothing to fit."""


class ConvergenceError(RuntimeError):
    """Iterative solver exhausted its iteration budget.

    Carries the best iterate found so the caller can inspect how far the
    solve progressed.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class IllConditionedInversionError(RuntimeError):
    """Loss-channel inversion produced out-of-range elements beyond the bound.

    ``violation`` is the largest pre-clamp excursion outside [0, 1].
    """

    def __init__(self, message, violation):
        super().__init__(message)
        self.violation = float(violation)


class SaturationCapError(RuntimeError):
    """Probe sweep hit the intensity cap before the detector saturated."""
