"""The numerical kernels of ``click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)``
and of the Poisson and binomial laws that weigh it.

One kernel per job, shared by ``povm``, ``modelfit``, ``tomography`` and
``loss``: the binomial coefficients C(m, n) as falling factorials, each
order one step past the one before (exact for m < 1142 at n <= 6 and
within a few ulps beyond), as a table over orders (the private
``_binomial_table``) or one order, its last column
(``binomial_exponents``); ``poisson_log_pmf`` (log Poisson weights,
``-inf`` for impossible photon numbers, photon numbers and means
broadcast or each mean repeated over a run of photon numbers, with ln m!
read from a table below m = 1024 and from the Stirling series above).
The recurrence is written once, in ``_binomial_table``, which checks
nothing and builds every table in Fortran order: ``binomial_exponents``
checks its photon numbers and order and calls it, and ``povm`` and the
fit data of ``modelfit`` call it directly on photon numbers they built
themselves, so a one-probe click pays no check. The product of the
binomial table with log survivals is left to its callers, each of which
knows where a saturated mechanism lies: ``povm`` sets it apart, and the
fit's box keeps its h finite.

Three private kernels serve the window operators of ``povm`` and
``loss``: ``_bernstein_reach``, the distance from a mean beyond which
Bernstein's inequality leaves a given mass, which sets every window (the
Poisson rows of ``povm._poisson_rows``, the binomial rows of
``loss._binomial_rows``, ``povm.truncation_for`` and
``povm._check_carries``; a probe's window is ``2 reach + 1``, about
17.2 sigma + 25 photon numbers); and Loader's
saddle-point pieces of a binomial weight, the Stirling gap
``_stirling_gap`` (ln k! - (k ln k - k)) and the deviance ``_deviance``.
One table-or-series dispatcher, ``_tabled``, serves ``_stirling_gap``
and the ln m! of ``poisson_log_pmf``.

The kernels take arbitrary photon numbers, so a caller can evaluate a
window [m_lo, m_hi) only. ``poisson_log_weights`` is the Poisson form
over the full range m = 0..truncation-1; the binomial one is
``_binomial_table(np.arange(truncation), order)``.

Two private checks hold rules for outside input that several modules
read: ``_whole_number``, every count of the package as a whole number in
a range, at most 2**53 unless a caller sets another bound (seeds take
2**64 - 1), and ``_transmissivity``, a loss channel's eta in (0, 1]. The
module needs numpy alone, so ``modelfit`` checks a transmissivity
without loading scipy. ``_values_equal`` is the one ``==`` of the
package's frozen value classes that hold arrays, and ``_freeze`` the one
way each of them stores the fields it checked: a value owns a read-only
copy of its arrays, never the caller's array, so nothing downstream
checks a value's fields again.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

__all__ = [
    "binomial_exponents",
    "poisson_log_pmf",
    "poisson_log_weights",
]


_HALF_LOG_2PI = 0.91893853320467274178


# 2**53: the largest whole number up to which a double holds every whole
# number exactly. Counts and mean photon numbers above it are refused: the
# package handles both as doubles, and its windows' photon numbers as int64.
_WHOLE_LIMIT = 2**53


def _whole_number(value, what: str, low: int = 1, high: int = _WHOLE_LIMIT) -> int:
    """``value`` as an int in [low, high], refusing bools, strings and values that are not whole.

    Whole floats pass, since JSON reads a count written as 1e5 as 100000.0.
    Every count argument of the package, a truncation, a mechanism order,
    a number of trials or a seed, goes through it. The range is compared
    first, so NaN, infinities and ints too large for a float are refused
    before ``float(value)``.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not (number and low <= value <= high and float(value).is_integer()):
        raise ValueError(f"{what} must be a whole number in [{low}, {high}], got {value!r}")
    return int(value)


def _transmissivity(eta) -> float:
    """``eta`` as a float in (0, 1], the range of a loss channel's transmissivity."""
    if not 0 < eta <= 1:
        raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")
    return float(eta)


def _values_equal(self, other):
    """``self == other`` of two frozen dataclass values, field by field.

    The generated ``__eq__`` compares tuples of the fields, which raises
    for an array of more than one element. Here an array field compares
    by ``np.array_equal``, so arrays of unequal lengths are unequal, and
    any other field by ``==``. Fields with ``compare=False`` take no part,
    and a value of another class gives ``NotImplemented``. A class sets
    ``__eq__ = _values_equal`` in its body: the dataclass then keeps it
    and generates its ``__hash__`` as before.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    for item in dataclasses.fields(self):
        if item.compare:
            mine, theirs = getattr(self, item.name), getattr(other, item.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
    return True


def _freeze(value, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``value``, each array among them read-only.

    The one way a value class of the package stores what its
    ``__post_init__`` checked. Each array handed here is the value's own:
    the class built it, or copied the caller's, so marking it read-only
    neither freezes nor aliases an array the caller still holds.
    """
    for name, item in fields.items():
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
        object.__setattr__(value, name, item)


def _stirling_log_factorial(x: np.ndarray) -> np.ndarray:
    """ln Gamma(x) = ln (x - 1)! by the Stirling series to the x^-5 term.

    The first omitted term, 1 / (1680 x^7), is under 1e-16 of the value for
    x >= 65. The terms are summed in the order of the Cephes ``lgam`` that
    ``scipy.special.gammaln`` runs, so the two differ only where numpy's
    logarithm of x rounds differently from the C library's, by an ulp or two.
    """
    # In place, as ((x - 0.5) ln x - x + ln(2 pi) / 2) + ((x^-2 / 1260 -
    # 1 / 360) x^-2 + 1 / 12) / x: large windows are memory-bound.
    scratch = x * x
    np.divide(1.0, scratch, out=scratch)
    series = scratch / 1260
    series -= 1 / 360
    series *= scratch
    series += 1 / 12
    series /= x
    out = np.log(x)
    out *= np.subtract(x, 0.5, out=scratch)
    out -= x
    out += _HALF_LOG_2PI
    out += series
    return out


# ln m! for m < 1024: from the exact integer m! below m = 64, where the
# Stirling series above would drop more than rounding, and from that
# series at and above it.
_EXACT_FACTORIALS = 64
_LOG_FACTORIAL = np.concatenate(
    [
        [math.log(math.factorial(m)) for m in range(_EXACT_FACTORIALS)],
        _stirling_log_factorial(np.arange(_EXACT_FACTORIALS + 1, 1025.0)),
    ]
)


def _tabled(table: np.ndarray, series, k: np.ndarray) -> np.ndarray:
    """``table[k]`` of whole k >= 0 below the table's size, ``series(k)`` at and above it.

    The series runs on every element, and the tabled ones overwrite it only
    where some k is below the table: gathering and scattering the two parts
    costs more than the series on the tabled few.
    """
    if k.max(initial=0) < table.size:
        return table[k]
    out = series(k)
    if k.min() < table.size:
        tabled = k < table.size
        out[tabled] = table[k[tabled]]
    return out


def _log_factorial(m: np.ndarray) -> np.ndarray:
    """ln m! of whole photon numbers m >= 0: the table below 1024, Stirling above."""
    return _tabled(_LOG_FACTORIAL, lambda m: _stirling_log_factorial(m + 1.0), m)


def _stirling_series(k: np.ndarray) -> np.ndarray:
    """``ln k! - (k ln k - k)`` of k >= 16 by Stirling's series to the k^-9 term.

    The first omitted term, 691 / (360360 k^11), is under 1.2e-16 there.
    A k below 1 is taken as 1, so that k = 0, which the table holds, does
    not divide by zero.
    """
    k = np.maximum(k, 1.0)
    r = 1.0 / (k * k)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / k
    return _HALF_LOG_2PI + 0.5 * np.log(k) + series


# ln k! - (k ln k - k) for k = 1..15, rounded from 40-digit values: below
# k = 16 the series above drops more than rounding.
_SMALL_STIRLING_GAPS = [
    1.0, 1.3068528194400546, 1.4959226032237258, 1.6328763858683832,
    1.7403021806115442, 1.828694396641771, 1.9037903176782212,
    1.9690705693065629, 2.0268062840554952, 2.0785616431350586,
    2.12545984509181, 2.168334698205882, 2.207822206123445,
    2.244418568125061, 2.2785183673077407,
]
_STIRLING_GAP = np.concatenate(
    [[0.0], _SMALL_STIRLING_GAPS, _stirling_series(np.arange(16, 1024))]
)


def _stirling_gap(k: np.ndarray) -> np.ndarray:
    """``ln k! - (k ln k - k)`` of whole k >= 0: the table below 1024, the series above."""
    return _tabled(_STIRLING_GAP, _stirling_series, k)


def _deviance(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x ln(x / mean) + mean - x`` of whole x >= 0 about means >= 0; ``mean`` at x = 0.

    Formed as ``x log1p((x - mean) / mean) - (x - mean)``: near the mean
    both terms are about ``x - mean``, so the difference keeps its digits
    where ``x ln x`` and ``x ln mean`` would cancel. An x > 0 about a mean
    of 0 is +inf, a weight of exactly 0: the counts lost through a loss
    of transmissivity one.
    """
    distance = x - mean
    out = np.zeros(distance.shape)
    # A mean under about 1e-308 (eta that small) overflows the ratio, and
    # the deviance, to inf: its weight is then 0 where it would be
    # subnormal. A mean of 0 divides x > 0 by zero, to the same inf.
    with np.errstate(over="ignore", divide="ignore"):
        np.divide(distance, mean, out=out, where=x > 0)
    np.log1p(out, out=out)
    out *= x
    out -= distance
    return out


def _bernstein_reach(variance, log_mass):
    """Distance t from the mean beyond which Bernstein's inequality leaves
    at most ``exp(-log_mass)`` of a law's mass on either side.

    The bound ``exp(-t^2 / (2 (variance + t / 3)))`` holds each tail of a
    sum of independent variables bounded by 1 about their mean, a Poisson
    or a binomial law among them (Boucheron, Lugosi & Massart 2013,
    section 2.8). It equals ``exp(-log_mass)`` at the root
    ``t = L / 3 + sqrt(L (L / 9 + 2 variance))``, L = ``log_mass``, which
    is at least 2 L / 3 even at variance 0. At a probe row's L = ln 1e16
    the window ``[mean - t, mean + t]`` holds ``2 t + 1``, about
    17.2 sigma + 25, photon numbers.
    """
    return log_mass / 3 + np.sqrt(log_mass * (log_mass / 9 + 2 * variance))


def poisson_log_pmf(m_values: np.ndarray, mean_photons, repeats=None) -> np.ndarray:
    """Log Poisson weights ``m ln(mu) - mu - ln(m!)``, photon numbers and means broadcast.

    The photon numbers are whole numbers >= 0 of an integer dtype.
    ``m ln(mu)`` is 0 at m = 0 for every mean, so a mean of 0 weighs m = 0
    by 1 and every other m by 0 (log weight ``-inf``). With ``repeats``,
    mean i weighs the next ``repeats[i]`` photon numbers, as
    ``mean_photons.repeat(repeats)`` would, and its logarithm is taken once.
    Only a mean of 0 enters a floating-point error state: where every mean
    is positive, neither ``log`` nor the product sets one up.
    """
    mu = np.asarray(mean_photons, dtype=float)
    lowest = mu.min(initial=np.inf)
    if lowest < 0:
        raise ValueError(f"mean photon numbers must not be negative, got {mean_photons}")
    m = np.asarray(m_values)
    if lowest > 0:
        log_mu = np.log(mu)
    else:
        with np.errstate(divide="ignore"):
            log_mu = np.log(mu)
    if repeats is not None:
        mu, log_mu = mu.repeat(repeats), log_mu.repeat(repeats)
    if lowest > 0:
        out = m * log_mu
    else:
        with np.errstate(invalid="ignore"):
            out = np.where(m == 0, 0.0, m * log_mu)
    out -= mu
    out -= _log_factorial(m)
    return out


def poisson_log_weights(mean_photons, truncation: int) -> np.ndarray:
    """``poisson_log_pmf`` over m = 0..truncation-1.

    A scalar mean gives one vector; an array of means gives one such
    vector per mean along a new last axis. The truncation is a whole
    number >= 1.
    """
    mu = np.asarray(mean_photons, dtype=float)
    return poisson_log_pmf(np.arange(_whole_number(truncation, "truncation")), mu[..., None])


def binomial_exponents(m_values: np.ndarray, n: int) -> np.ndarray:
    """Binomial coefficients C(m, n) as floats, with C(m, n) = 0 for m < n.

    The n = 0 column is identically 1, so the zeroth mechanism order acts
    on every photon number including vacuum. The photon numbers are whole
    numbers >= 0, and the order n a whole number in [0, 2**53 - 1]. The
    last column of ``_binomial_table(m_values, n + 1)``.
    """
    n = _whole_number(n, "mechanism order", 0, _WHOLE_LIMIT - 1)
    m_values = np.asarray(m_values, dtype=np.int64)
    if m_values.size and m_values.min() < 0:
        raise ValueError("binomial_exponents requires m >= 0")
    return _binomial_table(m_values, n + 1)[..., -1]


def _binomial_table(m_values: np.ndarray, order: int) -> np.ndarray:
    """Table T[k, n] = C(m_values[k], n) for mechanism orders n = 0..order-1,
    of int64 photon numbers >= 0 and an int order count >= 1, neither
    checked: the kernel of every binomial table.

    Column 0 is all ones (the dark-count mechanism sees every Fock state
    once). Column n is the falling factorial ``m (m - 1) ... (m - n + 1) /
    n!``, one step past column n - 1.

    The table is in Fortran order, each order's column contiguous: the
    layout ``povm``'s column gather gives, and its transpose is the
    C-ordered (order x photon numbers) design of the fit. Column 1 is m
    itself, the recurrence's ``1 * m / 1`` to the bit, and each later
    column is formed in place: its factor, then the product, then the
    division.
    """
    m = m_values.astype(float)
    table = np.empty(m.shape + (order,), order="F")
    table[..., 0] = 1.0
    if order > 1:
        table[..., 1] = m
    for n in range(2, order):
        column = table[..., n]
        # A factor clipped at 0 makes C(m, n) exactly +0.0 for m < n.
        np.maximum(np.subtract(m, n - 1, out=column), 0.0, out=column)
        column *= table[..., n - 1]
        column /= n
    return table
