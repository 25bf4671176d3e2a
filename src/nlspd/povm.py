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
probes, each over the O(sqrt(mu)) window of photon numbers that carries
its mass; the coherent click probability, the simulator and the mechanism
fit all sum through it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.special import gammainc, gammaincc, ndtri

from .exceptions import DataFormatError, TruncationError
from .numerics import binomial_table, log_survival_sum, poisson_log_pmf, poisson_log_weights

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

# First guesses of the bound searches. ``_quantile_guess`` is a Cornish-
# Fisher expansion at the normal deviate z of the cut, plus a term
# a sqrt(mu) / (mu + b) fitted so that the exact bound is floor(guess),
# floor(guess) + 1 or floor(guess) + 2 for every mu in [1e-4, 1e6] (checked
# against bisection at 2,700 means); mu = 0 and mu beyond 1e6, where
# gammainc itself drifts, cost a few bisection steps instead.
def _guess_terms(z, a, b) -> tuple:
    z, a, b = (np.asarray(v, dtype=float) for v in (z, a, b))
    return z, (z * z - 1.0) / 6.0 + 0.5, (z**3 - z) / 72.0, a, b


_LOWER_WINDOW = (ndtri(_WINDOW_MASS), 1.5, 0.5)
_UPPER_WINDOW = (-ndtri(_WINDOW_MASS), 5.5, 0.5)
_UPPER_TRUNCATION = (-ndtri(DEFAULT_TAIL_MASS), 3.25, 1.0)
# Lower window cut over an upper window cut or truncation cut, one row each.
_GUESS_WINDOW = _guess_terms(*np.array([_LOWER_WINDOW, _UPPER_WINDOW]).T[..., None])
_GUESS_WINDOW_TRUNCATION = _guess_terms(
    *np.array([_LOWER_WINDOW, _UPPER_TRUNCATION]).T[..., None]
)
_GUESS_TRUNCATION = _guess_terms(*_UPPER_TRUNCATION)
_GUESS_OFFSETS = np.arange(-1, 3)[:, None]

_BOUND_FUZZ = 1e-12

# Below this argument exp rounds to exactly 0.
_EXP_UNDERFLOW = -746.0


def _whole_number(value, what: str) -> int:
    """``value`` as an int, refusing bools, strings and values that are not whole.

    Whole floats pass, since JSON reads a count written as 1e5 as 100000.0.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not (number and float(value).is_integer()):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _validated_unit_interval(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    if values.size and (values.min() < -_BOUND_FUZZ or values.max() > 1 + _BOUND_FUZZ):
        raise ValueError(f"{what} must lie in [0, 1]")
    return np.clip(values, 0.0, 1.0)


@dataclass(frozen=True)
class DiagonalPovm:
    """Click-probability vector of a phase-insensitive two-outcome detector.

    Attributes
    ----------
    click:
        ``click[m]`` is the click probability for an m-photon input,
        m = 0..truncation-1. Each element lies in [0, 1]; the no-click
        element is ``1 - click[m]``.
    truncation:
        Number of photon-number components retained.
    """

    click: np.ndarray
    truncation: int

    def __post_init__(self):
        truncation = _whole_number(self.truncation, "truncation")
        if truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {truncation}")
        click = _validated_unit_interval(self.click, "click probabilities")
        if click.shape != (truncation,):
            raise ValueError(
                f"click vector has length {click.shape[0]}, expected {truncation}"
            )
        click.setflags(write=False)
        object.__setattr__(self, "click", click)
        object.__setattr__(self, "truncation", truncation)

    def to_dict(self) -> dict:
        """JSON-ready document: ``{"truncation": N, "click": [...]}``."""
        return {"truncation": int(self.truncation), "click": [float(c) for c in self.click]}

    @classmethod
    def from_dict(cls, document: dict) -> "DiagonalPovm":
        try:
            truncation = document["truncation"]
            click = np.asarray(document["click"], dtype=float)
        except (KeyError, TypeError) as err:
            raise DataFormatError(f"malformed POVM document: {err}") from err
        return cls(click=click, truncation=truncation)

    def padded(self, length: int) -> np.ndarray:
        """Click vector extended to ``length`` by repeating its trailing value."""
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
    ``-inf`` wherever a unit-efficiency mechanism applies.
    """
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
    if n < 0:
        raise ValueError(f"mechanism order must be >= 0, got {n}")
    p = np.zeros(n + 1)
    p[n] = pn
    return DiagonalPovm(click=-np.expm1(log_survival(p, truncation)), truncation=truncation)


def nonlinear_povm(params: NonlinearSpdParams, truncation: int) -> DiagonalPovm:
    """Composite detector: logical OR of one mechanism per order.

    ``click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)``, the complement of the
    joint no-fire probability of all mechanisms.
    """
    return DiagonalPovm(
        click=-np.expm1(log_survival(params.p, truncation)), truncation=truncation
    )


def truncation_for(max_mean_photons: float) -> int:
    """Smallest truncation N whose Poisson tail mass beyond N-1 is < DEFAULT_TAIL_MASS.

    Guarantees ``sum_{m >= N} e^-mu mu^m / m! < DEFAULT_TAIL_MASS`` at
    ``mu = max_mean_photons``, so a photon-number expansion truncated at N
    carries at most that much unaccounted probability.
    """
    if max_mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {max_mean_photons}")
    mu = np.array([float(max_mean_photons)])
    return int(
        _first_true(
            lambda m, index: _carries(m, mu),
            np.floor(mu),
            np.ceil(mu + _search_span(mu)),
            _quantile_guess(mu, _GUESS_TRUNCATION),
        )[0]
    )


def _carries(truncation, mu):
    """Whether a truncation leaves under ``DEFAULT_TAIL_MASS`` of the Poisson mass beyond it.

    gammainc(N, mu) is the Poisson probability of N or more events; it
    falls with N, so ``truncation_for(mu)`` is the smallest N passing.
    """
    return gammainc(truncation, mu) < DEFAULT_TAIL_MASS


def _check_carries(truncation: int, mean_photons: float, what: str = "truncation") -> None:
    """Raise ``TruncationError`` unless ``truncation`` carries a probe of ``mean_photons``.

    A sum truncated short of the probe's Poisson mass would silently miss
    response and bias any fit against that probe.
    """
    if not _carries(truncation, mean_photons):
        raise TruncationError(
            f"{what} {truncation} is too small for mean photon number "
            f"{mean_photons:g} (needs >= {truncation_for(mean_photons)})"
        )


def _search_span(mu: np.ndarray) -> np.ndarray:
    """Distance from mu beyond which a Poisson law keeps under e^-72 of its mass.

    About 12 standard deviations plus 40, on either side (Chernoff bound),
    so every tail cut this module makes lies within it.
    """
    return 12.0 * np.sqrt(mu + 1.0) + 40.0


def _quantile_guess(mu: np.ndarray, terms: tuple) -> np.ndarray:
    """First guess of the first photon number past a Poisson cut, from the
    ``_guess_terms`` of the cut."""
    z, shift, skew, a, b = terms
    root = np.sqrt(mu)
    return mu + z * root + shift - skew / np.sqrt(np.maximum(mu, 1.0)) + a * root / (mu + b)


def _first_true(predicate, lo, hi, guess) -> np.ndarray:
    """Smallest m in (lo, hi] with ``predicate(m)``, elementwise over vectors.

    ``predicate(m, index)`` tells, for the elements ``index`` (ascending),
    whether their photon numbers ``m`` (one row per point tried) have
    passed the bound; it must be monotone in m and false at lo. Where it
    is false on all of (lo, hi], the result is hi. One evaluation at the
    four photon numbers from one below the guess up settles every element
    whose bound lies next to its guess; bisection settles the rest, evaluating
    only the elements still open. A wrong guess costs steps, never
    correctness.
    """
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    index = np.flatnonzero(hi - lo > 1)
    points = guess[index].astype(np.int64) + _GUESS_OFFSETS
    while index.size:
        low, high = lo[index], hi[index]
        points = np.minimum(np.maximum(points, low + 1), high)
        true = predicate(points, index)
        low = np.where(true, low, points).max(axis=0)
        high = np.where(true, points, high).min(axis=0)
        lo[index], hi[index] = low, high
        still_open = high - low > 1
        index, points = index[still_open], ((low + high + 1) // 2)[None, still_open]
    return hi


@dataclass(frozen=True)
class _PoissonRows:
    """Poisson rows of coherent probes in compressed sparse row form.

    Row i holds ``weights[starts[i]:starts[i + 1]]`` at the consecutive
    photon numbers ``m[starts[i]:starts[i + 1]]`` and is normalized by its
    sum ``totals[i]``. ``rows @ values``, with one value per term at ``m``,
    gives each row's normalized sum without building a sparse matrix,
    which costs more than a one-probe click probability; ``union()``
    builds the scipy CSR matrix over the union of the windows for
    repeated products.
    """

    m: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    totals: np.ndarray

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.weights * values, self.starts[:-1]) / self.totals

    def union(self) -> tuple[np.ndarray, csr_array]:
        """Ascending union of the windows and the CSR matrix of the rows over it."""
        sizes = np.diff(self.starts)
        m_lo, m_hi = self.m[self.starts[:-1]], self.m[self.starts[1:] - 1] + 1
        # Column of photon number m in the union: m less the photon numbers
        # below it that no window covers. In order of m_lo, window k adds
        # the gap between its start and the reach of the windows before it.
        order = m_lo.argsort(kind="stable")
        reach = np.maximum.accumulate(m_hi[order])
        skipped = np.empty_like(m_lo)
        skipped[order] = np.maximum(m_lo[order] - np.concatenate(([0], reach[:-1])), 0).cumsum()
        columns = self.m - skipped.repeat(sizes)
        m_values = np.empty(reach[-1] - skipped[order[-1]], dtype=np.int64)
        m_values[columns] = self.m
        normalized = self.weights / self.totals.repeat(sizes)
        return m_values, csr_array(
            (normalized, columns, self.starts), shape=(self.totals.size, m_values.size)
        )


def _poisson_rows(intensities, truncation=None) -> _PoissonRows:
    """Normalized Poisson rows of coherent probes over the photon numbers they weigh.

    Row i holds the weights ``e^-mu mu^m / m!`` of mean ``mu = intensities[i]``
    over its window ``[m_lo, m_hi)``: ``m_lo`` is the largest m with
    P(M < m) < 1e-16 (0 when already e^-mu >= 1e-16), and ``m_hi`` the
    smallest m with P(M >= m) < 1e-16, capped at ``truncation`` (a scalar
    or one per row). Without a truncation, row i ends at
    ``truncation_for(intensities[i])``. A window is about 15 standard
    deviations, O(sqrt(mu)) photon numbers, wide. Each row is divided by
    its sum: at large m the log weight ``m ln(mu) - mu - ln(m!)`` loses
    digits to cancellation (the full weights sum to 1 - 5.5e-10 at
    mu = 1e6), and the error is nearly common to the window, so the
    normalization removes it.

    Every bound comes from one search over all rows, and every weight
    from one ``poisson_log_pmf`` call.
    """
    mu = np.asarray(intensities, dtype=float)
    rows = mu.size
    top = np.ceil(mu + _search_span(mu))
    if truncation is None:
        tail_mass, guess = DEFAULT_TAIL_MASS, _GUESS_WINDOW_TRUNCATION
    else:
        tail_mass, guess = _WINDOW_MASS, _GUESS_WINDOW
        np.minimum(top, truncation, out=top)
    floor = np.floor(mu)
    both = np.concatenate((mu, mu))

    # Elements below ``rows`` find m_lo + 1 from gammaincc(m, mu) = P(M < m),
    # the others m_hi from gammainc(m, mu) = P(M >= m).
    def passed(m, index):
        lower = index.searchsorted(rows)
        return np.concatenate(
            (
                gammaincc(m[:, :lower], both[index[:lower]]) >= _WINDOW_MASS,
                gammainc(m[:, lower:], both[index[lower:]]) < tail_mass,
            ),
            axis=-1,
        )

    first = _first_true(
        passed,
        np.concatenate((np.zeros(rows), np.minimum(floor, top - 1.0))),
        # Closed at m_lo + 1 = 1 while already P(M < 1) = e^-mu >= 1e-16.
        np.concatenate((np.where(gammaincc(1.0, mu) >= _WINDOW_MASS, 1.0, floor), top)),
        _quantile_guess(mu, guess).ravel(),
    )
    m_lo, m_hi = first[:rows] - 1, first[rows:]
    sizes = m_hi - m_lo
    if sizes.min() < 1:
        raise TruncationError(f"truncation {truncation} ends below a probe's photon numbers")
    starts = np.zeros(rows + 1, dtype=np.int64)
    sizes.cumsum(out=starts[1:])
    m = np.arange(starts[-1]) + (m_lo - starts[:-1]).repeat(sizes)
    weights = np.exp(poisson_log_pmf(m, mu.repeat(sizes)))
    return _PoissonRows(
        m=m, weights=weights, starts=starts, totals=np.add.reduceat(weights, starts[:-1])
    )


def _coherent_clicks(params: NonlinearSpdParams, intensities) -> np.ndarray:
    """Click probabilities of the composite detector on coherent probes.

    One ``_poisson_rows`` call without a truncation: row i ends at
    ``truncation_for(intensities[i])``. The survival is evaluated at every
    term of every row, as each probe's own sum would.
    """
    rows = _poisson_rows(intensities)
    log_survival = _log_survival_at(params.p, rows.m)
    # exp takes a slow path on arguments whose result underflows to 0
    # (16 times slower), so those are left at 0 without calling it.
    survival = np.zeros_like(log_survival)
    np.exp(log_survival, out=survival, where=log_survival > _EXP_UNDERFLOW)
    return 1.0 - rows @ survival


def coherent_click_probability(params: NonlinearSpdParams, mean_photons: float) -> float:
    """Click probability of the composite detector on a coherent probe.

    Poisson-averages the photon-number response::

        1 - sum_m e^-mu mu^m / m! * prod_n (1 - p[n]) ** C(m, n)

    over the one row ``_poisson_rows`` builds for the probe: the window of
    photon numbers that carries all but ``DEFAULT_TAIL_MASS`` above
    (``m_hi = truncation_for(mean_photons)``) and 1e-16 below, with its
    weights normalized to sum to one. The window is O(sqrt(mu)) wide, so
    a probe at mu = 1e6 sums about 16,000 terms instead of a million.

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
    range. The truncation must dominate the probe: if the Poisson tail
    beyond it exceeds ``DEFAULT_TAIL_MASS`` the result would silently miss
    response, so a ``TruncationError`` is raised instead.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    _check_carries(povm.truncation, mean_photons, "POVM truncation")
    weights = np.exp(poisson_log_weights(mean_photons, povm.truncation))
    return float(weights @ povm.click)
