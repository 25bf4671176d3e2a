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
side; the coherent click probability, the simulator and the mechanism fit
all sum through it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.special import gammainc, lambertw

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

_BOUND_FUZZ = 1e-12

# Largest array, in bytes, that one step of the package may allocate: a
# reconstruction's P x N probe matrix and the (P + N - 1) x N stacked
# matrix of its bounded-variable fallback, the N x N loss map and the
# (2N - 2) x N stacked loss inversion, and the terms of the Poisson
# windows. Each costs several copies of its size in temporaries, so
# 256 MiB keeps a step within a few GB.
MAX_DENSE_BYTES = 2**28

# Below this argument exp rounds to exactly 0.
_EXP_UNDERFLOW = -746.0


def _check_dense_size(size: int, what: str) -> None:
    """Raise ``ValueError`` if ``what``, of ``size`` bytes, exceeds ``MAX_DENSE_BYTES``."""
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"{what} would take {size / 2**20:.0f} MiB, "
            f"above the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )


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


def _chernoff_window(mean_photons, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers ``[m_lo, m_hi)``, as floats, outside which a Poisson
    law keeps at most ``mass`` on either side.

    The Chernoff bound ``e^-mu (e mu / k)^k`` holds P(M >= k) for k > mu and
    P(M <= k) for k < mu. It equals ``mass`` at ``k = mu exp(1 + W(x))``,
    ``x = (ln(1/mass) - mu) / (e mu)``: Lambert's W on its principal branch
    gives the upper end and on its -1 branch the lower end, which exists
    only where e^-mu < mass (x < 0; otherwise m_lo = 0). Near the branch
    point x = -1/e, where x has lost the digits of ln(1/mass) / mu and
    scipy's -1 branch stalls at -1 (mu above about 7e9), ``1 + W`` is the
    branch-point series ``+-p - p^2/3 +- 11 p^3/72`` in
    ``p = sqrt(2 ln(1/mass) / mu)`` (Corless et al. 1996), exact to rounding
    for p < 1e-3. A window is at most a few percent wider than the exact
    one. Means under ``mass`` take the window at ``mass``, which covers theirs.
    """
    log_mass = np.log(mass)
    mu = np.maximum(mean_photons, mass)
    x = (-log_mass - mu) / (np.e * mu)
    p = np.sqrt(-2.0 * log_mass / mu)
    lower = np.where(p < 1e-3, -p - p**2 / 3 - 11 / 72 * p**3, 1.0 + lambertw(x, -1).real)
    upper = np.where(p < 1e-3, p - p**2 / 3 + 11 / 72 * p**3, 1.0 + lambertw(x).real)
    m_lo = np.where(x < 0, np.floor(mu * np.exp(lower)) + 1.0, 0.0)
    return m_lo, np.ceil(mu * np.exp(upper))


def truncation_for(max_mean_photons: float) -> int:
    """Smallest truncation N whose Poisson tail mass beyond N-1 is < DEFAULT_TAIL_MASS.

    Guarantees ``sum_{m >= N} e^-mu mu^m / m! < DEFAULT_TAIL_MASS`` at
    ``mu = max_mean_photons``, so a photon-number expansion truncated at N
    carries at most that much unaccounted probability. N is found by
    bisection between floor(mu), which keeps about half the mass beyond
    it, and the Chernoff end of ``_chernoff_window``, which passes.
    """
    mu = float(max_mean_photons)
    if not 0 <= mu < np.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {max_mean_photons}")
    lo, hi = int(mu), int(_chernoff_window(mu, DEFAULT_TAIL_MASS)[1])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _carries(mid, mu) else (mid, hi)
    if not _carries(hi, mu):
        # Above about 1e34 the Chernoff end no longer passes in floating point.
        raise ValueError(f"mean photon number {mu:g} is too large to truncate")
    return hi


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


@dataclass(frozen=True)
class _PoissonRows:
    """Poisson rows of coherent probes in compressed sparse row form.

    Row i holds ``weights[starts[i]:starts[i + 1]]`` at the consecutive
    photon numbers ``m[starts[i]:starts[i + 1]]``, outside which at most
    1e-16 of the Poisson mass lies on either side unless a truncation cuts
    the row, normalized by its sum ``totals[i]``. ``rows @ values``, one
    value per term at ``m``, gives each row's normalized sum without a
    sparse matrix, which costs more than a one-probe click probability;
    ``union()`` builds the CSR matrix over the windows' union for reuse.
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
    over its window ``[m_lo, m_hi)`` from ``_chernoff_window``: at most
    1e-16 of the Poisson mass lies below ``m_lo`` and at most 1e-16 at or
    above ``m_hi``, which is capped at ``truncation`` (a scalar or one per
    row) when one is given. A window is about 17 standard deviations,
    O(sqrt(mu)) photon numbers, wide. Each row is divided by its sum: at
    large m the log weight ``m ln(mu) - mu - ln(m!)`` loses digits to
    cancellation (the full weights sum to 1 - 5.5e-10 at mu = 1e6), and
    the error is nearly common to the window, so the normalization
    removes it.

    Every window comes from one closed-form evaluation over all rows, and
    every weight from one ``poisson_log_pmf`` call. Windows whose terms
    would take more than ``MAX_DENSE_BYTES`` as doubles (a probe of 1e15
    photons has 5.4e8) raise ``ValueError`` before anything is allocated.
    """
    mu = np.asarray(intensities, dtype=float)
    if not np.isfinite(mu).all():
        raise ValueError("mean photon numbers must be finite")
    m_lo, m_hi = _chernoff_window(mu, _WINDOW_MASS)
    if truncation is not None:
        m_hi = np.minimum(m_hi, truncation)
    m_lo, m_hi = m_lo.astype(np.int64), m_hi.astype(np.int64)
    sizes = m_hi - m_lo
    if sizes.min() < 1:
        raise TruncationError(f"truncation {truncation} ends below a probe's photon numbers")
    _check_dense_size(8 * int(sizes.sum()), f"the Poisson windows of means up to {mu.max():g}")
    starts = np.zeros(mu.size + 1, dtype=np.int64)
    sizes.cumsum(out=starts[1:])
    m = np.arange(starts[-1]) + (m_lo - starts[:-1]).repeat(sizes)
    weights = np.exp(poisson_log_pmf(m, mu.repeat(sizes)))
    return _PoissonRows(
        m=m, weights=weights, starts=starts, totals=np.add.reduceat(weights, starts[:-1])
    )


def _coherent_clicks(params: NonlinearSpdParams, intensities) -> np.ndarray:
    """Click probabilities of the composite detector on coherent probes.

    One ``_poisson_rows`` call without a truncation: each row drops at
    most 1e-16 of its Poisson mass on either side. The survival is
    evaluated at every term of every row, as each probe's own sum would.
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
    photon numbers that carries all but at most 1e-16 of the Poisson mass
    on either side, with its weights normalized to sum to one. The window
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
    range. The truncation must dominate the probe: if the Poisson tail
    beyond it exceeds ``DEFAULT_TAIL_MASS`` the result would silently miss
    response, so a ``TruncationError`` is raised instead.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    _check_carries(povm.truncation, mean_photons, "POVM truncation")
    weights = np.exp(poisson_log_weights(mean_photons, povm.truncation))
    return float(weights @ povm.click)
