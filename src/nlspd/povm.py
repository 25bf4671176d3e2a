"""Diagonal POVM models for click/no-click photon detectors.

A two-outcome detector whose response is insensitive to optical phase is
described, in the photon-number basis, by a single diagonal click element:
``click[m]`` is the probability of a click given exactly m incident photons,
and the no-click element is its complement.

The detector model used throughout composes independent n-photon breakdown
mechanisms: mechanism order n fires with probability ``p[n]`` on each of the
C(m, n) photon n-tuples, and the detector clicks when any mechanism fires::

    click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)

Order n = 0 is the dark-count floor (fires independently of the input),
n = 1 is the familiar linear detector, and n >= 2 are multiphoton
mechanisms. All powers are evaluated in the log domain; a unit-efficiency
mechanism (``p[n] = 1``) propagates as ``-inf`` and forces ``click[m] = 1``
for every m >= n.

A coherent probe of mean mu weighs photon number m by the Poisson law. One
private operator, ``_poisson_rows``, holds those weights for any set of
probes, each over the O(sqrt(mu)) window of photon numbers outside which
a closed-form Chernoff bound leaves at most 1e-16 of the mass on either
side, and each row divided by its own sum once. The coherent click
probability, the simulator, the mechanism fit and the reconstruction all
read their rows from it as they are: none divides by a row sum again, and
none chooses a truncation. A click is summed as ``F (-expm1(log
survival))``, so a click probability near the dark-count floor keeps full
relative precision. A truncation belongs to an explicit click vector
(``DiagonalPovm``), whose length it is: ``truncation_for`` picks the
default one, the smallest that carries all but ``DEFAULT_TAIL_MASS`` of
a probe's Poisson mass, and every truncation check compares with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DataFormatError, TruncationError
from .numerics import (
    _bernstein_reach,
    _whole_number,
    binomial_table,
    log_survival_sum,
    poisson_log_pmf,
)

__all__ = [
    "DEFAULT_TAIL_MASS",
    "DiagonalPovm",
    "NonlinearSpdParams",
    "coherent_click_probability",
    "nonlinear_povm",
    "npd_povm",
    "povm_click_probability",
    "spd_povm",
    "truncation_for",
]

# Poisson probability mass allowed beyond the truncation point.
DEFAULT_TAIL_MASS = 1e-12

# Poisson probability mass a probe row may drop on either side of its
# window: under the resolution of a double near one, so a click
# probability cannot see it.
_WINDOW_MASS = 1e-16

# Poisson probability mass a tail sum may leave out: 1e-16 of
# DEFAULT_TAIL_MASS, so the sum decides a truncation to rounding. Leaving
# out the window's 1e-16 would move truncation_for by one at some means
# above 1e6.
_TAIL_RESOLUTION = 1e-28

_BOUND_FUZZ = 1e-12

# Largest array, in bytes, that one step of the package may allocate: the
# terms of the Poisson windows, a reconstruction's N-length click vector,
# its P x |U| probe matrix on the union U of the windows and the
# (P + |U| - 1) x |U| stacked matrix of its bounded-variable fallback, the
# terms of the loss map's binomial windows and the (2N - 2) x N stacked
# loss inversion. Each costs several copies of its size in temporaries, so
# 256 MiB keeps a step within a few GB.
MAX_DENSE_BYTES = 2**28


def _check_dense_size(size: int, what: str) -> None:
    """Raise ``ValueError`` if ``what``, of ``size`` bytes, exceeds ``MAX_DENSE_BYTES``."""
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"{what} would take {size / 2**20:.4g} MiB, "
            f"above the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )


def _validated_unit_interval(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    if values.size and (values.min() < -_BOUND_FUZZ or values.max() > 1 + _BOUND_FUZZ):
        raise ValueError(f"{what} must lie in [0, 1]")
    # Adding 0 turns the -0.0 that -expm1(0) gives, and np.clip keeps, into +0.0.
    return np.clip(values, 0.0, 1.0) + 0.0


@dataclass(frozen=True)
class DiagonalPovm:
    """Click-probability vector of a phase-insensitive two-outcome detector.

    Attributes
    ----------
    click:
        ``click[m]`` is the click probability for an m-photon input,
        m = 0..N-1, N >= 1. Each element lies in [0, 1]; the no-click
        element is ``1 - click[m]``.
    truncation:
        N, the number of photon-number components retained: the click
        vector's length, read-only.
    """

    click: np.ndarray

    def __post_init__(self):
        click = _validated_unit_interval(self.click, "click probabilities")
        if click.size < 1:
            raise ValueError("a click vector needs at least one element")
        click.setflags(write=False)
        object.__setattr__(self, "click", click)

    @property
    def truncation(self) -> int:
        return self.click.size

    def to_dict(self) -> dict:
        """JSON-ready document: ``{"truncation": N, "click": [...]}``."""
        return {"truncation": int(self.truncation), "click": [float(c) for c in self.click]}

    @classmethod
    def from_dict(cls, document: dict) -> "DiagonalPovm":
        """POVM of a ``to_dict`` document, whose truncation must be the click length."""
        try:
            truncation = document["truncation"]
            click = np.asarray(document["click"], dtype=float)
        except (KeyError, TypeError) as err:
            raise DataFormatError(f"malformed POVM document: {err}") from err
        truncation = _whole_number(truncation, "truncation")
        if click.size != truncation:
            raise ValueError(f"click vector has length {click.size}, expected {truncation}")
        return cls(click=click)

    def padded(self, length: int) -> np.ndarray:
        """Click vector extended to ``length``, a whole number no shorter than
        the truncation, by repeating its trailing value."""
        length = _whole_number(length, "length")
        if length < self.truncation:
            raise ValueError(
                f"cannot pad a click vector of truncation {self.truncation} to length {length}"
            )
        out = np.empty(length)
        out[: self.truncation] = self.click
        out[self.truncation :] = self.click[-1]
        return out


@dataclass(frozen=True)
class NonlinearSpdParams:
    """Mechanism efficiencies ``p[n]`` of a composite click detector.

    ``p[n]`` is the firing probability of the order-n breakdown mechanism;
    ``order`` is the number of mechanisms, covering n = 0..order-1.
    """

    p: np.ndarray

    def __post_init__(self):
        p = _validated_unit_interval(self.p, "mechanism efficiencies")
        if p.size < 1:
            raise ValueError("at least one mechanism efficiency is required")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @property
    def order(self) -> int:
        return int(self.p.size)

    def to_dict(self) -> dict:
        """JSON-ready document: ``{"p": [...]}``."""
        return {"p": [float(v) for v in self.p]}

    @classmethod
    def from_dict(cls, document: dict) -> "NonlinearSpdParams":
        try:
            p = np.asarray(document["p"], dtype=float)
        except (KeyError, TypeError) as err:
            raise DataFormatError(f"malformed parameter document: {err}") from err
        return cls(p=p)


def log_survival(p: np.ndarray, truncation: int) -> np.ndarray:
    """Log no-click probability per photon number for mechanism efficiencies p.

    Returns ``sum_n C(m, n) * log(1 - p[n])`` for m = 0..truncation-1, with
    ``-inf`` wherever a unit-efficiency mechanism applies. The truncation
    is a whole number >= 1; a whole float counts, a bool does not.
    """
    truncation = _whole_number(truncation, "truncation")
    if truncation < 1:
        raise ValueError(f"truncation must be >= 1, got {truncation}")
    return _log_survival_at(p, np.arange(truncation))


def _log_survival_at(p: np.ndarray, m_values: np.ndarray) -> np.ndarray:
    """``log_survival`` at the photon numbers ``m_values``."""
    p = np.asarray(p, dtype=float)
    h = np.log1p(-p, out=np.full(p.shape, -np.inf), where=p < 1)
    # Orders with p[n] = 0 contribute nothing; dropping their columns keeps
    # a C(m, n) that overflows to inf (n of about 70 and up) from giving nan.
    used = p != 0
    return log_survival_sum(binomial_table(m_values, p.size)[:, used], h[used])


def spd_povm(p1: float, truncation: int) -> DiagonalPovm:
    """Standard linear detector: ``click[m] = 1 - (1 - p1)^m``.

    Each photon independently triggers a click with efficiency ``p1``;
    there are no dark counts, so ``click[0] = 0``.
    """
    return npd_povm(p1, 1, truncation)


def npd_povm(pn: float, n: int, truncation: int) -> DiagonalPovm:
    """Pure n-photon detector: ``click[m] = 1 - (1 - pn)^C(m, n)``.

    Every n-photon subset of the input fires independently with
    probability ``pn``. For m < n no subset exists and the element is 0;
    n = 0 yields the constant dark-count response ``click[m] = pn``.
    """
    if not 0 <= pn <= 1:
        raise ValueError(f"efficiency must lie in [0, 1], got {pn}")
    n = _whole_number(n, "mechanism order")
    if n < 0:
        raise ValueError(f"mechanism order must be >= 0, got {n}")
    p = np.zeros(n + 1)
    p[n] = pn
    return DiagonalPovm(click=-np.expm1(log_survival(p, truncation)))


def nonlinear_povm(params: NonlinearSpdParams, truncation: int) -> DiagonalPovm:
    """Composite detector: logical OR of one mechanism per order.

    ``click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)``, the complement of the
    joint no-fire probability of all mechanisms.
    """
    return DiagonalPovm(click=-np.expm1(log_survival(params.p, truncation)))


def _chernoff_window(mean_photons, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers ``[m_lo, m_hi)``, as floats, outside which a Poisson
    law keeps at most ``mass`` on either side.

    The Chernoff bound ``e^-mu (e mu / k)^k`` holds P(M >= k) for k > mu and
    P(M <= k) for k < mu. At ``k = t mu`` it equals ``mass`` where
    ``h(t) = t ln t - t + 1 = c``, ``c = ln(1/mass) / mu``: once above t = 1,
    the upper end, and once below, the lower end, which exists only where
    c < 1, i.e. e^-mu < mass (otherwise m_lo = 0). h is convex with
    ``h'(t) = ln t``, so Newton steps on ``t ln t - (t - 1) = c`` fall
    monotonically onto the upper root from Bennett's bound above it
    (``1 + _bernstein_reach(1.0, c)``) and rise onto the lower root from
    below it, from the larger of ``1 - sqrt(2c)`` (h'' >= 1 there) and
    ``(1 - c) / (2 - 2 ln(1 - c))``. Five steps, both ends stacked in one
    array, reach the roots to rounding at every mean. Where
    ``p = sqrt(2 ln(1/mass) / mu) < 1e-3`` (means above about 7e7), both
    ends are the branch-point series ``t = exp(+-p - p^2/3 +- 11 p^3/72)``
    (Corless et al. 1996), exact to rounding there. A window is at most a
    few percent wider than the exact one. Means under ``mass`` take the
    window at ``mass``, which covers theirs.
    """
    log_mass = np.log(mass)
    mu = np.maximum(mean_photons, mass)
    c = -log_mass / mu
    p = np.sqrt(-2.0 * log_mass / mu)
    # The steps run on c >= 5e-7 (p >= 1e-3), where t stays clear of 1; the
    # series replaces the rest. A c of 1 or more has no lower root, so the
    # lower steps run on a c just under 1 and are discarded.
    target = np.empty((2,) + c.shape)
    target[0] = np.maximum(c, 5e-7)
    target[1] = np.minimum(target[0], 1.0 - 2.0**-53)
    rest = 1.0 - target[1]
    t = np.empty_like(target)
    t[0] = 1.0 + _bernstein_reach(1.0, target[0])
    t[1] = np.maximum(1.0 - np.sqrt(2.0 * target[1]), rest / (2.0 - 2.0 * np.log(rest)))
    # The Newton step t - (t ln t - t + 1 - c) / ln t, simplified.
    shift = target - 1.0
    for _ in range(5):
        t = (t + shift) / np.log(t)
    upper, lower = t
    series = p < 1e-3
    if series.any():
        p = np.minimum(p, 1e-3)
        square, cube = p**2 / 3, 11 / 72 * p**3
        upper = np.where(series, np.exp(p - square + cube), upper)
        lower = np.where(series, np.exp(-p - square - cube), lower)
    m_lo = np.where(c < 1, np.floor(mu * lower) + 1.0, 0.0)
    return m_lo, np.ceil(mu * upper)


def truncation_for(max_mean_photons: float) -> int:
    """Smallest truncation N whose Poisson tail mass beyond N-1 is < DEFAULT_TAIL_MASS.

    Guarantees ``sum_{m >= N} e^-mu mu^m / m! < DEFAULT_TAIL_MASS`` at
    ``mu = max_mean_photons``, so a photon-number expansion truncated at N
    carries at most that much unaccounted probability. N is above
    floor(mu), below which about half the mass or more lies beyond. The
    tails at every N from floor(mu) + 1 up are one cumulative sum of the
    Poisson weights, highest photon number first, from a top that leaves
    at most ``_TAIL_RESOLUTION`` beyond it: ``mu + t`` for
    ``t = _bernstein_reach(mu, ln(1 / _TAIL_RESOLUTION))``, where
    Bernstein's bound reaches that mass, about 11.4 standard deviations
    above a large mean and more than 42 photon numbers above any mean, so
    above floor(mu) + 1. The sum has under ``t + 1`` terms; if they would
    take more than ``MAX_DENSE_BYTES`` (means above about 8.7e12),
    ``ValueError`` says so before anything is allocated.
    """
    mu = float(max_mean_photons)
    if not 0 <= mu < np.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {max_mean_photons}")
    reach = _bernstein_reach(mu, -math.log(_TAIL_RESOLUTION))
    _check_dense_size(
        8 * (reach + 1.0),
        f"mean photon number {mu:g} is too large to truncate: its Poisson tail",
    )
    start, top = math.floor(mu) + 1, math.ceil(mu + reach)
    tails = np.exp(poisson_log_pmf(np.arange(top - 1, start - 1, -1), mu)).cumsum()
    return start + int(np.count_nonzero(tails >= DEFAULT_TAIL_MASS))


def _check_carries(truncation: int, mean_photons: float, what: str = "truncation") -> None:
    """Raise ``TruncationError`` if ``truncation`` is below ``truncation_for(mean_photons)``.

    A sum truncated short of the probe's Poisson mass would silently miss
    response and bias any fit against that probe. A truncation of at
    least ``mu + t + 1``, ``t = _bernstein_reach(mu, ln(1 /
    DEFAULT_TAIL_MASS))``, passes at once: Bernstein's bound already holds
    the tail beyond ``mu + t`` under ``DEFAULT_TAIL_MASS``, so
    ``truncation_for`` is no larger. Only a truncation nearer the bound
    pays for the tail sum.
    """
    if mean_photons >= 0:
        reach = _bernstein_reach(mean_photons, -math.log(DEFAULT_TAIL_MASS))
        if truncation >= mean_photons + reach + 1.0:
            return
    needed = truncation_for(mean_photons)
    if truncation < needed:
        raise TruncationError(
            f"{what} {truncation} is too small for mean photon number "
            f"{mean_photons:g} (needs >= {needed})"
        )


@dataclass(frozen=True)
class _WindowRows:
    """Normalized rows of photon-number weights in compressed sparse row form.

    Row i holds ``weights[starts[i]:starts[i + 1]]`` at the consecutive
    photon numbers ``m[starts[i]:starts[i + 1]]``, its window, outside
    which its law keeps a negligible mass; each row sums to one within
    rounding. ``rows @ values``, one value per term at ``m``, gives each
    row's weighted sum without a sparse matrix, which costs more than a
    one-probe click probability. ``np.unique(rows.m, return_inverse=True)``
    gives the windows' union and the column of every term in it. The
    probes' Poisson rows (``_poisson_rows``) and the loss map's binomial
    rows (``loss._binomial_rows``) are its two kinds.
    """

    m: np.ndarray
    weights: np.ndarray
    starts: np.ndarray

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.weights * values, self.starts[:-1])


def _poisson_rows(intensities) -> _WindowRows:
    """Normalized Poisson rows of coherent probes over the photon numbers they weigh.

    Row i holds the weights ``e^-mu mu^m / m!`` of mean ``mu = intensities[i]``
    over its window ``[m_lo, m_hi)`` from ``_chernoff_window``: at most
    1e-16 of the Poisson mass lies below ``m_lo`` and at most 1e-16 at or
    above ``m_hi``. No truncation enters: a row ends where its own Poisson
    mass does. A window is about 17 standard deviations, O(sqrt(mu))
    photon numbers, wide. Each weight is ``exp(log pmf)`` divided by its
    row's sum, here and nowhere else: at large m the log weight
    ``m ln(mu) - mu - ln(m!)`` loses digits to cancellation (the full
    weights sum to 1 - 5.5e-10 at mu = 1e6), and the error is nearly
    common to the window, so the normalization removes it.

    Every window comes from one closed-form evaluation over all rows, and
    every weight from one ``poisson_log_pmf`` call, which takes the
    logarithm of each row's mean once. Windows whose terms would take more
    than ``MAX_DENSE_BYTES`` as doubles (a probe of 1e15 photons has
    5.4e8) raise ``ValueError`` before anything is allocated.
    """
    mu = np.asarray(intensities, dtype=float)
    if not np.isfinite(mu).all():
        raise ValueError("mean photon numbers must be finite")
    m_lo, m_hi = (end.astype(np.int64) for end in _chernoff_window(mu, _WINDOW_MASS))
    sizes = m_hi - m_lo
    _check_dense_size(8 * int(sizes.sum()), f"the Poisson windows of means up to {mu.max():g}")
    starts = np.zeros(mu.size + 1, dtype=np.int64)
    sizes.cumsum(out=starts[1:])
    m = np.arange(starts[-1]) + (m_lo - starts[:-1]).repeat(sizes)
    weights = np.exp(poisson_log_pmf(m, mu, repeats=sizes))
    weights /= np.add.reduceat(weights, starts[:-1]).repeat(sizes)
    return _WindowRows(m=m, weights=weights, starts=starts)


def _coherent_clicks(params: NonlinearSpdParams, intensities) -> np.ndarray:
    """Click probabilities of the composite detector on coherent probes.

    One ``_poisson_rows`` call: each row drops at most 1e-16 of its
    Poisson mass on either side. The click ``-expm1(log survival)`` is
    evaluated at every term of every row, as each probe's own sum would,
    and summed through the rows, so a click probability near the
    dark-count floor keeps its relative precision. The rows sum to one
    only within rounding, so a saturated probe can come out an ulp above
    one; it is clipped to 1.
    """
    rows = _poisson_rows(intensities)
    return np.minimum(rows @ -np.expm1(_log_survival_at(params.p, rows.m)), 1.0)


def coherent_click_probability(params: NonlinearSpdParams, mean_photons: float) -> float:
    """Click probability of the composite detector on a coherent probe.

    Poisson-averages the photon-number response::

        sum_m e^-mu mu^m / m! * (1 - prod_n (1 - p[n]) ** C(m, n))

    over the one row ``_poisson_rows`` builds for the probe: the window of
    photon numbers that carries all but at most 1e-16 of the Poisson mass
    on either side, with its weights normalized to sum to one. Each term's
    click is formed by ``expm1``, so the sum keeps full relative precision
    however small the click probability. The window
    is O(sqrt(mu)) wide, so a probe at mu = 1e6 sums about 17,000 terms
    instead of a million.

    Parameters
    ----------
    params:
        Mechanism efficiencies of the detector.
    mean_photons:
        Mean photon number ``mu = |alpha|^2`` of the probe.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    return float(_coherent_clicks(params, [mean_photons])[0])


def povm_click_probability(povm: DiagonalPovm, mean_photons: float) -> float:
    """Coherent-probe click probability of an explicit click vector.

    Computes ``sum_m e^-mu mu^m / m! * click[m]`` over the POVM's stored
    range, divided by the sum of the same weights: their log form loses
    digits to cancellation at large means (they sum to 1 + 7.7e-12 at
    mu = 37,330), and the error is nearly common to the terms. Both sums
    take the same reduction, so a click vector in [0, 1] gives a result in
    [0, 1]. The truncation must dominate the probe: if the Poisson tail
    beyond it exceeds ``DEFAULT_TAIL_MASS`` the result would silently miss
    response, so a ``TruncationError`` is raised instead.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    _check_carries(povm.truncation, mean_photons, "POVM truncation")
    weights = np.exp(poisson_log_pmf(np.arange(povm.truncation), mean_photons))
    return float((weights * povm.click).sum() / weights.sum())
