"""The numerical kernels of ``click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)``.

One kernel per job: the binomial coefficients C(m, n) as falling
factorials, each order one step past the one before (exact for m < 1142
at n <= 6 and within a few ulps beyond), as a table over orders
(``binomial_table``) or one order (``binomial_exponents``);
``poisson_log_pmf`` (log Poisson weights, ``-inf`` for impossible photon
numbers, photon numbers and means broadcast); and ``log_survival_sum``
(G @ h with h[n] = ln(1 - p[n]), where a saturated mechanism, h = -inf,
contributes ``-inf`` wherever C(m, n) > 0).

The kernels take arbitrary photon numbers, so a caller can evaluate a
window [m_lo, m_hi) only. ``design_matrix`` and ``poisson_log_weights``
are their forms over the full range m = 0..truncation-1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "binomial_exponents",
    "binomial_table",
    "design_matrix",
    "log_survival_sum",
    "poisson_log_pmf",
    "poisson_log_weights",
]


def poisson_log_pmf(m_values: np.ndarray, mean_photons) -> np.ndarray:
    """Log Poisson weights ``m ln(mu) - mu - ln(m!)``, photon numbers and means broadcast."""
    from scipy.special import gammaln, xlogy

    mu = np.asarray(mean_photons, dtype=float)
    if (mu < 0).any():
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    m = np.asarray(m_values)
    return xlogy(m, mu) - mu - gammaln(m + 1)


def poisson_log_weights(mean_photons, truncation: int) -> np.ndarray:
    """``poisson_log_pmf`` over m = 0..truncation-1.

    A scalar mean gives one vector; an array of means gives one such
    vector per mean along a new last axis.
    """
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    mu = np.asarray(mean_photons, dtype=float)
    return poisson_log_pmf(np.arange(truncation), mu[..., None])


def binomial_exponents(m_values: np.ndarray, n: int) -> np.ndarray:
    """Binomial coefficients C(m, n) as floats, with C(m, n) = 0 for m < n.

    The n = 0 column is identically 1, so the zeroth mechanism order acts
    on every photon number including vacuum.
    """
    if n < 0:
        raise ValueError(f"binomial_exponents requires n >= 0, got n={n}")
    for column in _binomial_columns(m_values, n + 1):
        pass  # keep only the last column
    return column


def binomial_table(m_values: np.ndarray, order: int) -> np.ndarray:
    """Table T[k, n] = C(m_values[k], n) for mechanism orders n = 0..order-1.

    Column 0 is all ones (the dark-count mechanism sees every Fock state
    once).
    """
    if order < 1:
        raise ValueError(f"order count must be >= 1, got {order}")
    m_values = np.asarray(m_values)
    table = np.empty(m_values.shape + (order,))
    for n, column in enumerate(_binomial_columns(m_values, order)):
        table[..., n] = column
    return table


def _binomial_columns(m_values: np.ndarray, order: int):
    """C(m, n) for n = 0..order-1, each the falling factorial
    ``m (m - 1) ... (m - n + 1) / n!`` one step past the one before."""
    m_values = np.asarray(m_values, dtype=np.int64)
    if m_values.size and m_values.min() < 0:
        raise ValueError("binomial_exponents requires m >= 0")
    m = m_values.astype(float)
    falling = np.ones(m.shape)
    yield falling
    for n in range(1, order):
        # A factor clipped at 0 makes C(m, n) exactly +0.0 for m < n.
        factor = m - (n - 1)
        falling = falling * np.maximum(factor, 0.0, out=factor)
        falling /= n
        yield falling


def design_matrix(truncation: int, order: int) -> np.ndarray:
    """``binomial_table`` over m = 0..truncation-1: G[m, n] = C(m, n)."""
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    return binomial_table(np.arange(truncation), order)


def log_survival_sum(design: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``design @ h`` with every ``0 * (-inf)`` product taken as 0.

    Row m is the log probability that no mechanism fires on m photons;
    it is ``-inf`` where a saturated mechanism (h[n] = -inf) has
    C(m, n) > 0.
    """
    h = np.asarray(h, dtype=float)
    saturated = np.isneginf(h)
    if not saturated.any():
        return design @ h
    out = design[:, ~saturated] @ h[~saturated]
    out[np.any(design[:, saturated] > 0, axis=1)] = -np.inf
    return out
