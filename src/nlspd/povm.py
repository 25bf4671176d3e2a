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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite

import numpy as np
from scipy.special import gammainc, gammaincc

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

# Poisson probability mass a coherent-probe sum may drop below its window:
# under the resolution of a double near one, so the click probability
# cannot see it.
_WINDOW_LOWER_MASS = 1e-16

_BOUND_FUZZ = 1e-12


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
        if self.truncation < 1:
            raise ValueError(f"truncation must be >= 1, got {self.truncation}")
        click = _validated_unit_interval(self.click, "click probabilities")
        if click.shape != (self.truncation,):
            raise ValueError(
                f"click vector has length {click.shape[0]}, expected {self.truncation}"
            )
        click.setflags(write=False)
        object.__setattr__(self, "click", click)

    def to_dict(self) -> dict:
        """JSON-ready document: ``{"truncation": N, "click": [...]}``."""
        return {"truncation": int(self.truncation), "click": [float(c) for c in self.click]}

    @classmethod
    def from_dict(cls, document: dict) -> "DiagonalPovm":
        try:
            truncation = int(document["truncation"])
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
    with np.errstate(divide="ignore"):
        h = np.log1p(-p)
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
    mu = float(max_mean_photons)
    # gammainc(N, mu) is the Poisson probability of N or more events.
    if gammainc(1, mu) < DEFAULT_TAIL_MASS:
        return 1
    hi = int(mu + 12.0 * (mu + 1.0) ** 0.5 + 40.0)
    while gammainc(hi, mu) >= DEFAULT_TAIL_MASS:
        hi *= 2
    return _first_true(lambda m: gammainc(m, mu) < DEFAULT_TAIL_MASS, 1, hi)


def _poisson_window(mean_photons: float) -> tuple[int, int]:
    """Photon numbers [m_lo, m_hi) that carry a coherent probe's Poisson mass.

    ``m_hi = truncation_for(mean_photons)``; ``m_lo`` is the largest m with
    P(M < m) < 1e-16, or 0 when already P(M = 0) = e^-mu >= 1e-16. The
    window is about 15 standard deviations, O(sqrt(mu)) photon numbers wide.
    """
    mu = float(mean_photons)
    m_hi = truncation_for(mu)
    # gammaincc(m, mu) is the Poisson probability of fewer than m events.
    if gammaincc(1, mu) >= _WINDOW_LOWER_MASS:
        return 0, m_hi
    # P(M < floor(mu)) is near 1/2 here (mu > 36), so the bracket holds.
    first_kept = _first_true(lambda m: gammaincc(m, mu) >= _WINDOW_LOWER_MASS, 1, int(mu))
    return first_kept - 1, m_hi


def _first_true(predicate, lo: int, hi: int) -> int:
    """Smallest m in (lo, hi] with ``predicate(m)``, by bisection.

    ``predicate`` must be monotone in m, false at lo and true at hi.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def coherent_click_probability(params: NonlinearSpdParams, mean_photons: float) -> float:
    """Click probability of the composite detector on a coherent probe.

    Poisson-averages the photon-number response::

        1 - sum_m e^-mu mu^m / m! * prod_n (1 - p[n]) ** C(m, n)

    over the window ``[m_lo, m_hi)`` of photon numbers that carries all but
    ``DEFAULT_TAIL_MASS`` above (``m_hi = truncation_for(mean_photons)``)
    and 1e-16 below. The window is O(sqrt(mu)) wide, so a probe at
    mu = 1e6 sums about 16,000 terms instead of a million. The window's
    Poisson weights are divided by their sum: at large m the log weight
    ``m ln(mu) - mu - ln(m!)`` loses digits to cancellation (the full
    weights sum to 1 - 5.5e-10 at mu = 1e6), and the error is nearly
    common to the window, so the normalization removes it.

    Parameters
    ----------
    params:
        Mechanism efficiencies of the detector.
    mean_photons:
        Mean photon number ``mu = |alpha|^2`` of the probe.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    m_values = np.arange(*_poisson_window(mean_photons))
    weights = np.exp(poisson_log_pmf(m_values, mean_photons))
    survival = np.exp(_log_survival_at(params.p, m_values))
    return float(1.0 - weights @ survival / weights.sum())


def povm_click_probability(povm: DiagonalPovm, mean_photons: float) -> float:
    """Coherent-probe click probability of an explicit click vector.

    Computes ``sum_m e^-mu mu^m / m! * click[m]`` over the POVM's stored
    range. The truncation must dominate the probe: if the Poisson tail
    beyond it exceeds ``DEFAULT_TAIL_MASS`` the result would silently miss
    response, so a ``TruncationError`` is raised instead.
    """
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    needed = truncation_for(mean_photons)
    if povm.truncation < needed:
        raise TruncationError(
            f"POVM truncation {povm.truncation} is too small for mean photon "
            f"number {mean_photons} (needs >= {needed})"
        )
    weights = np.exp(poisson_log_weights(mean_photons, povm.truncation))
    return float(weights @ povm.click)
