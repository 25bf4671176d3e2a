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

import numpy as np
from scipy.linalg import lstsq, solve_triangular

# The binomial pmf that scipy.stats.binom.pmf wraps, without importing
# scipy.stats; tests pin it against binom.pmf.
from scipy.special._ufuncs import _binom_pmf

from .exceptions import IllConditionedInversionError
from .povm import DiagonalPovm, _check_dense_size, povm_click_probability

__all__ = [
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


def _loss_matrix(eta: float, truncation: int) -> np.ndarray:
    """Binomial thinning matrix ``L[n, m] = C(n, m) eta^m (1-eta)^{n-m}``, lower triangular."""
    n = np.arange(truncation)[:, None]
    m = np.arange(truncation)[None, :]
    # The ufunc gives nan above the diagonal (m > n), where binom.pmf gives 0.
    return np.where(m <= n, _binom_pmf(m, n, eta), 0.0)


def scale_povm(povm: DiagonalPovm, eta: float) -> DiagonalPovm:
    """Click vector of the detector preceded by a transmissivity-eta loss.

    The forward binomial average is a convex combination per row, so the
    output stays in [0, 1] and monotonicity of the input is preserved.
    Raises ``ValueError`` if the N x N loss matrix would exceed
    ``povm.MAX_DENSE_BYTES``.
    """
    eta, n = _validated_eta(eta), povm.truncation
    _check_dense_size(8 * n * n, f"the {n} x {n} loss matrix")
    matrix = _loss_matrix(eta, n)
    return DiagonalPovm(click=np.clip(matrix @ povm.click, 0.0, 1.0))


def unscale_povm(
    povm: DiagonalPovm,
    eta: float,
    *,
    return_violation: bool = False,
):
    """Remove a transmissivity-eta loss from a click vector.

    Solves the lower-triangular system ``L x = click`` for the bare click
    vector x. When the worst-case rounding amplification of forward
    substitution, ``~eps * ((2 - eta)/eta)^(N-1)``, stays below 1e-9 the
    system is solved directly and exactly. Otherwise a least-squares solve
    with a small second-difference penalty (weight 1e-12) suppresses the
    exponentially amplified high-frequency noise. That weight is at the
    scale of the small singular values of L, so the result is a
    smoothness-regularized estimate, biased even on noise-free curved
    input: the round trip of ``nonlinear_povm([0.01, 0.1], 14)`` through
    eta = 0.5, just past the bound, comes back 7.0e-4 off.

    The solution need not stay in [0, 1]; elements are clamped after
    solving and the largest pre-clamp excursion is the conditioning
    diagnostic. If it exceeds 0.1 the inversion is reported as
    ill-conditioned instead of returning a silently wrong result. A small
    violation does not certify the penalized estimate: it is 0 in the
    round trip above.

    Parameters
    ----------
    povm:
        Click vector of the detector seen through the loss.
    eta:
        Transmissivity of the loss to remove.
    return_violation:
        When true, return ``(povm, violation)`` instead of the POVM alone.

    Raises
    ------
    ValueError
        If the (2N - 2) x N stacked system would exceed
        ``povm.MAX_DENSE_BYTES``, whichever solve the amplification picks.
    IllConditionedInversionError
        If the pre-clamp violation exceeds 0.1.
    """
    eta = _validated_eta(eta)
    n = povm.truncation
    _check_dense_size(8 * (2 * n - 2) * n, f"the {2 * n - 2} x {n} stacked loss inversion")
    matrix = _loss_matrix(eta, n)
    amplification = 3 * np.finfo(float).eps * ((2.0 - eta) / eta) ** (n - 1)
    if amplification <= _DIRECT_SOLVE_TARGET or n < 3:
        solution = solve_triangular(matrix, povm.click, lower=True)
    else:
        # Second-difference rows (1, -2, 1): the identity differenced twice.
        penalty = np.sqrt(_STABILIZER) * np.diff(np.eye(n), 2, axis=0)
        stacked = np.vstack([matrix, penalty])
        rhs = np.concatenate([povm.click, np.zeros(n - 2)])
        solution, *_ = lstsq(stacked, rhs)

    violation = float(max(0.0, -solution.min(), solution.max() - 1.0))
    if violation > _MAX_VIOLATION:
        raise IllConditionedInversionError(
            f"loss inversion at eta={eta} left elements outside [0, 1] by "
            f"{violation:.3g} (bound {_MAX_VIOLATION:.3g}); the attenuation is "
            f"too strong for the recorded range",
            violation=violation,
        )
    recovered = DiagonalPovm(click=np.clip(solution, 0.0, 1.0))
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
