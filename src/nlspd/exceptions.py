"""The two exception types of the toolkit that carry data.

Every other refusal raises a builtin: ``ValueError`` for input the
package does not take (a malformed file or document, a truncation too
small for a probe, a target the data never reach, a fit with no probe
left), ``RuntimeError`` for a probe sweep that reaches its intensity cap
unsaturated. The two here are numerical breakdowns on valid input, so
they derive from ``RuntimeError``, and each keeps what the caller needs
to judge it: the best iterate of a solver that ran out of iterations, or
the size of a loss inversion's excursion out of [0, 1].
"""

__all__ = [
    "ConvergenceError",
    "IllConditionedInversionError",
]


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
