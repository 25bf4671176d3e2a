"""Binomial loss channels acting on diagonal POVMs.

A beamsplitter of transmissivity eta placed in front of a detector thins
the incident photon number binomially, so the effective click vector is a
binomial average of the bare one::

    click_scaled[n] = sum_{m <= n} C(n, m) eta^m (1 - eta)^{n-m} click[m]

``scale_povm`` applies this forward map; ``unscale_povm`` inverts it.
The inverse amplifies high-photon-number noise roughly as
``((2 - eta)/eta)^m``, so for strongly attenuating channels only the
response encoded well inside the observed range is recoverable. The
forward-prediction route (``lossy_click_probability``) avoids the
inversion entirely: a coherent probe of mean mu seen through loss eta is
again coherent with mean ``eta * mu``, so predictions never require the
inverse map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lstsq, solve_triangular

# The binomial pmf that scipy.stats.binom.pmf wraps, without importing
# scipy.stats; tests pin it against binom.pmf.
from scipy.special._ufuncs import _binom_pmf

from .exceptions import IllConditionedInversionError
from .povm import DiagonalPovm, povm_click_probability

__all__ = [
    "LossChannel",
    "lossy_click_probability",
    "scale_povm",
    "unscale_povm",
]

# Accuracy below which the plain triangular solve is trusted; beyond it the
# inversion switches to the curvature-regularized least-squares form.
_DIRECT_SOLVE_TARGET = 1e-9

# Weight of the second-difference penalty in the regularized inversion.
_STABILIZER = 1e-12

# Largest tolerated pre-clamp excursion of the solution outside [0, 1].
_MAX_VIOLATION = 0.1


def _validated_eta(eta: float) -> float:
    if not 0 < eta <= 1:
        raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")
    return float(eta)


@dataclass(frozen=True)
class LossChannel:
    """Binomial thinning matrix of a transmissivity-eta beamsplitter."""

    eta: float
    truncation: int

    def __post_init__(self):
        object.__setattr__(self, "eta", _validated_eta(self.eta))
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Lower-triangular matrix L with ``L[n, m] = C(n, m) eta^m (1-eta)^{n-m}``."""
        n = np.arange(self.truncation)[:, None]
        m = np.arange(self.truncation)[None, :]
        # The ufunc gives nan above the diagonal (m > n), where binom.pmf gives 0.
        out = np.where(m <= n, _binom_pmf(m, n, self.eta), 0.0)
        out.setflags(write=False)
        return out


def scale_povm(povm: DiagonalPovm, eta: float) -> DiagonalPovm:
    """Click vector of the detector preceded by a transmissivity-eta loss.

    The forward binomial average is a convex combination per row, so the
    output stays in [0, 1] and monotonicity of the input is preserved.
    """
    channel = LossChannel(eta=_validated_eta(eta), truncation=povm.truncation)
    return DiagonalPovm(
        click=np.clip(channel.matrix @ povm.click, 0.0, 1.0),
        truncation=povm.truncation,
    )


def _second_difference(n: int) -> np.ndarray:
    rows = n - 2
    out = np.zeros((rows, n))
    idx = np.arange(rows)
    out[idx, idx] = 1.0
    out[idx, idx + 1] = -2.0
    out[idx, idx + 2] = 1.0
    return out


def unscale_povm(
    povm: DiagonalPovm,
    eta: float,
    target_truncation: int | None = None,
    *,
    return_violation: bool = False,
):
    """Remove a transmissivity-eta loss from a click vector.

    Solves the lower-triangular system ``L x = click`` for the bare click
    vector x. When the worst-case rounding amplification of forward
    substitution, ``~eps * ((2 - eta)/eta)^(N-1)``, stays below 1e-9 the
    system is solved directly; otherwise a least-squares solve with a small
    second-difference penalty (weight 1e-12) suppresses the
    exponentially amplified high-frequency noise while leaving smooth,
    well-determined structure intact.

    The exact solution of a noisy input need not stay in [0, 1]; elements
    are clamped after solving and the largest pre-clamp excursion is the
    conditioning diagnostic. If it exceeds 0.1 the inversion
    is reported as ill-conditioned instead of returning a silently wrong
    result.

    Parameters
    ----------
    povm:
        Click vector of the detector seen through the loss.
    eta:
        Transmissivity of the loss to remove.
    target_truncation:
        Truncation of the recovered vector; must be at least
        ``povm.truncation``. The input is extended with its trailing value
        before solving.
    return_violation:
        When true, return ``(povm, violation)`` instead of the POVM alone.

    Raises
    ------
    IllConditionedInversionError
        If the pre-clamp violation exceeds 0.1.
    """
    eta = _validated_eta(eta)
    n_out = povm.truncation if target_truncation is None else int(target_truncation)
    if n_out < povm.truncation:
        raise ValueError(
            f"target truncation {n_out} is smaller than the input truncation "
            f"{povm.truncation}"
        )
    scaled = povm.padded(n_out)

    channel = LossChannel(eta=eta, truncation=n_out)
    amplification = 3 * np.finfo(float).eps * ((2.0 - eta) / eta) ** (n_out - 1)
    if amplification <= _DIRECT_SOLVE_TARGET or n_out < 3:
        solution = solve_triangular(channel.matrix, scaled, lower=True)
    else:
        penalty = np.sqrt(_STABILIZER) * _second_difference(n_out)
        stacked = np.vstack([channel.matrix, penalty])
        rhs = np.concatenate([scaled, np.zeros(n_out - 2)])
        solution, *_ = lstsq(stacked, rhs)

    violation = float(max(0.0, -solution.min(), solution.max() - 1.0))
    if violation > _MAX_VIOLATION:
        raise IllConditionedInversionError(
            f"loss inversion at eta={eta} left elements outside [0, 1] by "
            f"{violation:.3g} (bound {_MAX_VIOLATION:.3g}); the attenuation is "
            f"too strong for the recorded range",
            violation=violation,
        )
    recovered = DiagonalPovm(click=np.clip(solution, 0.0, 1.0), truncation=n_out)
    if return_violation:
        return recovered, violation
    return recovered


def lossy_click_probability(
    povm: DiagonalPovm,
    eta: float,
    mean_photons: float,
) -> float:
    """Coherent response of the detector behind a transmissivity-eta loss.

    Uses the exact equivalence between detector-side and probe-side loss:
    the prediction is the bare detector's response at mean ``eta * mu``,
    with no matrix inversion involved.
    """
    return povm_click_probability(povm, _validated_eta(eta) * mean_photons)
