"""Binomial loss channels acting on diagonal POVMs.

A beamsplitter of transmissivity eta placed in front of a detector thins
the incident photon number binomially, so the effective click vector is a
binomial average of the bare one::

    click_scaled[n] = sum_{m <= n} C(n, m) eta^m (1 - eta)^{n-m} click[m]

Row n of this map is the binomial law Bin(n, eta), and one private
operator, ``_binomial_rows``, holds the rows: each over the O(sqrt(n))
window of photon numbers outside which Bernstein's inequality leaves at
most 2^-64 of its mass on either side, normalized once. Bernstein's reach
sets every window of the package, and ``povm._WindowRows.over`` builds
these rows as it builds a probe's Poisson row (``povm._poisson_rows``).
Its kernels live in ``nlspd.numerics``: the window's reach is
``_bernstein_reach``, and each weight is Loader's saddle-point form on
``_stirling_gap`` and ``_deviance``; this module defines none of its own.
``scale_povm`` applies the forward map as a sum through those rows;
``unscale_povm`` inverts it on the same rows scattered into the dense
lower triangle, by forward substitution where that is well conditioned
and otherwise by a penalized least-squares solve with a column-pivoted QR
(LAPACK ``gelsy``). The inverse amplifies high-photon-number noise
roughly as ``((2 - eta)/eta)^m``, so for strongly attenuating channels
only the response encoded well inside the observed range is recoverable.
The forward-prediction route (``lossy_click_probability``) avoids the
inversion entirely: a coherent probe of mean mu seen through loss eta is
again coherent with mean ``eta * mu``, so predictions never require the
inverse map.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lstsq, solve_triangular

from .exceptions import IllConditionedInversionError
from .numerics import _bernstein_reach, _deviance, _stirling_gap, _transmissivity
from .povm import (
    DiagonalPovm,
    _check_dense_size,
    _window_starts,
    _WindowRows,
    povm_click_probability,
)

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

# ln(2^64): a binomial row's window leaves at most 2^-64 of its mass on
# either side, under the resolution of a double near one.
_WINDOW_LOG_MASS = 64 * math.log(2)


def _binomial_rows(truncation: int, eta: float) -> _WindowRows:
    """Rows n = 0..truncation-1 of the thinning map, row n holding Bin(n, eta).

    Row n's window, clipped to [0, n], reaches
    ``t = numerics._bernstein_reach(sigma^2, L)`` to either side of
    ``n eta``, sigma^2 = n eta (1 - eta) and L = 64 ln 2: beyond it
    Bernstein's inequality leaves at most 2^-64 of Bin(n, eta) on either
    side. The reach is about 9.4 sigma + 15 photon numbers.
    ``povm._WindowRows.over`` builds the rows, as it does the probes'
    Poisson rows, and divides each by its own sum once.

    A weight is Loader's saddle-point form (Loader 2000, "Fast and
    accurate computation of binomial probabilities")::

        ln Bin(n, eta)[m] = g(n) - g(m) - g(n - m)
                            - D(m, n eta) - D(n - m, n (1 - eta))

    with ``g = numerics._stirling_gap`` and ``D = numerics._deviance``; g(n) is common to
    the row, so the normalization stands in for it. In the window D is
    formed to within about ``eps |m - n eta|`` and g to a few ulps, so a
    weight is within ``4 eps (|m - n eta| + 1)`` of its 40-digit value:
    6e-14 across the window at n = 3000, eta = 0.5, where the differences
    of ln-factorials ``ln n! - ln m! - ln (n - m)!``, each rounded at its
    own magnitude, lose 3e-12 (5e-11 at n = 38,696). At eta = 1 the lost
    count n - m has mean 0, so its deviance is +inf wherever it is above 0:
    row n weighs m = n by exp(-g(n)) / exp(-g(n)) = 1 and every other
    photon number of its window by exp(-inf) = 0, and the map is exactly
    the identity. Windows whose terms would take more than ``MAX_DENSE_BYTES``
    as doubles raise ``ValueError`` before anything is allocated.
    """
    n = np.arange(truncation)
    mean = n * eta
    reach = _bernstein_reach((1.0 - eta) * mean, _WINDOW_LOG_MASS)

    def log_weights(m, sizes):
        out = np.zeros(m.size)
        for count, count_mean in ((m, mean), (n.repeat(sizes) - m, n * (1.0 - eta))):
            out -= _stirling_gap(count)
            out -= _deviance(count, count_mean.repeat(sizes))
        return out

    return _WindowRows.over(
        mean,
        reach,
        _window_starts(mean, reach),
        n,
        log_weights,
        f"the binomial windows of the {truncation}-element loss map",
    )


def _loss_matrix(eta: float, truncation: int) -> np.ndarray:
    """Binomial thinning matrix ``L[n, m] = C(n, m) eta^m (1-eta)^{n-m}``, lower triangular.

    The rows of ``_binomial_rows`` scattered into the dense N x N map; an
    entry outside its row's window, under 2^-64 of the row's mass, is 0.
    """
    rows = _binomial_rows(truncation, eta)
    matrix = np.zeros((truncation, truncation))
    matrix[np.arange(truncation).repeat(np.diff(rows.starts)), rows.m] = rows.weights
    return matrix


def scale_povm(povm: DiagonalPovm, eta: float) -> DiagonalPovm:
    """Click vector of the detector preceded by a transmissivity-eta loss.

    Element n is the click vector summed through row n of
    ``_binomial_rows``, Bin(n, eta) over its window. The forward binomial
    average is a convex combination per row, so the output stays in [0, 1]
    up to rounding, which ``DiagonalPovm`` clips, and monotonicity of the
    input is preserved. Raises ``ValueError`` if the terms of the windows
    would exceed ``povm.MAX_DENSE_BYTES`` (at eta = 0.5, truncations above
    about 30,000).
    """
    rows = _binomial_rows(povm.truncation, _transmissivity(eta))
    return DiagonalPovm(click=rows @ povm.click[rows.m])


def unscale_povm(
    povm: DiagonalPovm,
    eta: float,
    *,
    return_violation: bool = False,
):
    """Remove a transmissivity-eta loss from a click vector.

    Solves the lower-triangular system ``L x = click`` for the bare click
    vector x, L being the rows of ``_binomial_rows`` scattered into the
    dense triangle. When the worst-case rounding amplification of forward
    substitution, ``~eps * ((2 - eta)/eta)^(N-1)``, stays below 1e-9 the
    system is solved directly and exactly. Otherwise a least-squares solve
    with a small second-difference penalty (weight 1e-12), by a
    column-pivoted QR (LAPACK ``gelsy``), suppresses the exponentially
    amplified high-frequency noise. That weight is at the
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
    eta = _transmissivity(eta)
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
        # The stacked matrix's condition number is 3.6e7 at N = 40 and 1.1e9
        # at N = 146 (eta = 0.5), far under 1 / eps: no driver truncates its
        # rank, so the pivoted QR solves the same problem as the SVD-based
        # default, at under half its cost, and they differ by rounding.
        solution, *_ = lstsq(stacked, rhs, lapack_driver="gelsy")

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
    return povm_click_probability(povm, _transmissivity(eta) * mean_photons)
