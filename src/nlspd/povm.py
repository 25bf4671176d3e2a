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
mechanism (``p[n] = 1``) sets the log survival to ``-inf``, and so
``click[m]`` to 1, for every m >= n, where C(m, n) > 0. ``DiagonalPovm``
and ``NonlinearSpdParams`` clip their vectors into [0, 1] and turn
-0.0 into +0.0 as they are built, so no caller clips or adds zero
itself, and each owns its vector, read-only (``numerics._freeze``).
One evaluator, ``_LogSurvival``, gives the log survival from three
constants of p: the orders with 0 < p[n] < 1, their ``log1p(-p[n])`` and
the first saturated order. Its binomial table comes from the one kernel,
``numerics._binomial_table``. ``NonlinearSpdParams`` builds its evaluator
once, as it is built, so no click takes the constants again. From its
first click on, the evaluator also keeps the detector's first saturated
photon number (``_LogSurvival.first_saturated``), found by searching the
log survival itself.

A coherent probe of mean mu weighs photon number m by the Poisson law. One
private operator, ``_poisson_rows``, holds those weights for any set of
probes, each over the O(sqrt(mu)) window of photon numbers outside which
Bernstein's inequality leaves at most 1e-16 of the mass on either side
(``2 numerics._bernstein_reach(mu, ln 1e16) + 1``, about 17.2 sqrt(mu) +
25 photon numbers), and each row divided by its own sum once. One
builder, ``_WindowRows.over``, makes these rows and the loss map's
binomial ones (``loss._binomial_rows``), each window set by the same
Bernstein reach. The coherent click probability, the simulator, the
mechanism fit and the reconstruction all read their rows from
``_poisson_rows`` as they are: none divides by a row sum again, and none
chooses a truncation. A click is summed as ``F (-expm1(log survival))``,
so a click probability near the dark-count floor keeps full
relative precision. ``_coherent_clicks`` takes each probe's reach and
window start once, for its saturation test and its rows. The test is one
integer compare per probe, of its window start with the first saturated
photon number: a probe whose window starts saturated clicks with
probability exactly 1 and builds no row and no binomial table, and a
built probe's terms take one table.
A truncation belongs to an explicit click vector (``DiagonalPovm``),
whose length it is: ``truncation_for`` picks the default one, the
smallest that carries all but ``DEFAULT_TAIL_MASS`` of a probe's
Poisson mass, and every truncation check compares with it.
Every mean photon number the package takes passes
``numerics._check_means`` once, where it enters: finite, >= 0 and at
most 2**53. A ``ProbeSet`` checks its intensities as it is built, and
``coherent_click_probability`` and ``truncation_for`` their one mean;
the rows and clicks made from them, and the Poisson kernel
``numerics._poisson_log_pmf``, check none again. ``_detector_from_dict``
reads a detector, a POVM or mechanism parameters, from a JSON document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import (
    _WHOLE_LIMIT,
    _bernstein_reach,
    _binomial_table,
    _check_means,
    _freeze,
    _poisson_log_pmf,
    _values_equal,
    _whole_number,
)

__all__ = [
    "DiagonalPovm",
    "NonlinearSpdParams",
    "coherent_click_probability",
    "log_survival",
    "nonlinear_povm",
    "npd_povm",
    "povm_click_probability",
    "spd_povm",
    "truncation_for",
]

# Poisson probability mass allowed beyond the truncation point.
DEFAULT_TAIL_MASS = 1e-12

# ln(1e16): a probe row's window drops at most 1e-16 of its Poisson mass
# on either side, under the resolution of a double near one, so a click
# probability cannot see it.
_WINDOW_LOG_MASS = math.log(1e16)

# Poisson probability mass a tail sum may leave out: 1e-16 of
# DEFAULT_TAIL_MASS, so the sum decides a truncation to rounding. Leaving
# out the window's 1e-16 would move truncation_for by one at some means
# above 1e6.
_TAIL_RESOLUTION = 1e-28

# Log survival at or below which a probe's click is exactly 1.0: ln 2^-55.
# The log survival never increases with m, so where a probe's window starts
# at a survival of at most 2^-55, every term's survival s is too. The
# window sum 1 - sum w s then lies within (1 + 4 eps) 2^-55 of 1, as the
# weights sum to at most 1 + 4 eps: under 2^-54, half the ulp below 1, by
# a factor of 2 that also covers expm1's error. So every term's -expm1 is
# exactly 1.0, 1.0 is the correctly rounded value of the window sum, and
# such a probe needs no window.
_SATURATED_LOG_SURVIVAL = -55 * math.log(2)

# Photon numbers the search for a detector's first saturated photon number
# evaluates in each round after its first.
_SEARCH_POINTS = 64

_BOUND_FUZZ = 1e-12

# Largest array, in bytes, that one step of the package may allocate: the
# terms of the Poisson windows, a reconstruction's N-length click vector,
# its P x |U| probe matrix on the union U of the windows and the
# (P + |U| - 1) x |U| stacked matrix of its bounded-variable fallback, the
# terms of the loss map's binomial windows and the (2N - 2) x N stacked
# loss inversion. Each costs several copies of its size in temporaries, so
# 256 MiB keeps a step within a few GB.
MAX_DENSE_BYTES = 2**28


def _check_dense_size(size: int, what) -> None:
    """Raise ``ValueError`` if ``what``, of ``size`` bytes, exceeds ``MAX_DENSE_BYTES``.

    ``what`` names the array, or is a function of no arguments that names
    it, called only to raise: a name that takes a reduction to write
    costs nothing where the size passes.
    """
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"{what() if callable(what) else what} would take {size / 2**20:.4g} MiB, "
            f"above the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )


def _validated_unit_interval(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise ValueError(f"{what} must form a nonempty vector")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    if values.min() < -_BOUND_FUZZ or values.max() > 1 + _BOUND_FUZZ:
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

    __eq__ = _values_equal

    def __post_init__(self):
        _freeze(self, click=_validated_unit_interval(self.click, "click probabilities"))

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
            raise ValueError(f"malformed POVM document: {err}") from err
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
class _LogSurvival:
    """``sum_n C(m, n) * log(1 - p[n])`` of fixed efficiencies p, its constants taken once.

    Only the orders with 0 < p[n] < 1 enter the product with C(m, n): the
    binomial table runs to the last of them (``width`` columns, at least
    one), and ``columns`` picks them out of it, or is None where it holds
    no other order. An order with p[n] = 0 contributes nothing, and
    dropping its column keeps a C(m, n) that overflows to inf (n of about
    70 and up) from giving nan. A saturated order (p[n] = 1) makes the log
    survival ``-inf`` wherever C(m, n) > 0, which is exactly where m >= n,
    so every m from the first saturated order up (``saturated_from``) is
    set to ``-inf``. ``first_saturated`` is the first photon number whose
    log survival is at most ``_SATURATED_LOG_SURVIVAL``, taken at first use.
    """

    width: int
    columns: np.ndarray | None
    logs: np.ndarray
    saturated_from: int | None

    @classmethod
    def of(cls, p) -> "_LogSurvival":
        p = np.asarray(p, dtype=float)
        used = (p != 0) & (p < 1)
        orders = np.flatnonzero(used)
        width = int(orders[-1]) + 1 if orders.size else 1
        saturated = np.flatnonzero(p >= 1)
        return cls(
            width=width,
            columns=None if orders.size == width else used[:width],
            logs=np.log1p(-p[used]),
            saturated_from=int(saturated[0]) if saturated.size else None,
        )

    def at(self, m_values: np.ndarray) -> np.ndarray:
        """The log survival at the int64 photon numbers ``m_values``, all >= 0.

        The table is in Fortran order, the layout a column gather gives,
        so the product takes the same BLAS path, and rounds the same,
        with or without the gather.
        """
        table = _binomial_table(m_values, self.width)
        if self.columns is not None:
            table = table[:, self.columns]
        out = table @ self.logs
        if self.saturated_from is not None:
            out[m_values >= self.saturated_from] = -np.inf
        return out

    @cached_property
    def first_saturated(self) -> int:
        """The smallest photon number m with ``at(m) <= _SATURATED_LOG_SURVIVAL``,
        or 2**53 + 1, past every window's start, where no m up to 2**53 has one.

        The log survival never increases with m, in rounding too: each
        table column is a product of rounded factors that grow with m, and
        each term of the product with the logs, all <= 0, falls with it.
        So a window starting at lo starts saturated exactly where ``lo >=
        first_saturated``: one integer compare per probe. The search reads
        ``at`` itself, so it is the same predicate, not a second formula.
        Its first round evaluates 0 and every power of two up to 2**53,
        which brackets the answer within a factor of two; each round after
        it evaluates about ``_SEARCH_POINTS`` evenly spaced photon numbers
        of the bracket, until one is left: two to four rounds, 40-120 us,
        on the reference detectors (``[0, 0, 1e-30]``, whose answer lies
        near 2**53, takes ten, about 0.2 ms). That is more than every
        ``NonlinearSpdParams`` a fit builds should pay, so it is taken at
        the first click, once per detector.
        """
        m = np.concatenate([[0], 2 ** np.arange(54)])
        low, high = 0, _WHOLE_LIMIT + 1
        # at(m) is above the limit for every m below low, and at or below
        # it at high, unless high is 2**53 + 1.
        while low < high:
            built = int(np.count_nonzero(self.at(m) > _SATURATED_LOG_SURVIVAL))
            if built < m.size:
                high = int(m[built])
            if built > 0:
                low = int(m[built - 1]) + 1
            m = np.arange(low, high, max((high - low) // _SEARCH_POINTS, 1))
        return low


@dataclass(frozen=True)
class NonlinearSpdParams:
    """Mechanism efficiencies ``p[n]`` of a composite click detector.

    ``p[n]`` is the firing probability of the order-n breakdown mechanism;
    ``order`` is the number of mechanisms, covering n = 0..order-1. The
    log-survival constants of p are taken once, as the parameters are
    built, and the first saturated photon number at their first click;
    they are no part of the repr, the comparison or the document. Two
    parameter sets are equal where their p are (``numerics._values_equal``).
    """

    p: np.ndarray
    _survival: _LogSurvival = field(init=False, repr=False, compare=False)

    __eq__ = _values_equal

    def __post_init__(self):
        p = _validated_unit_interval(self.p, "mechanism efficiencies")
        _freeze(self, p=p, _survival=_LogSurvival.of(p))

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
            raise ValueError(f"malformed parameter document: {err}") from err
        return cls(p=p)


def _detector_from_dict(document, what: str):
    """The ``DiagonalPovm`` (``click``) or ``NonlinearSpdParams`` (``p``) of a JSON document.

    ``what`` names the document in the ``ValueError`` raised for anything
    else.
    """
    if isinstance(document, dict) and "click" in document:
        return DiagonalPovm.from_dict(document)
    if isinstance(document, dict) and "p" in document:
        return NonlinearSpdParams.from_dict(document)
    raise ValueError(
        f"{what} must be an object with either 'click' (POVM) or 'p' (parameters)"
    )


def log_survival(p: np.ndarray, truncation: int) -> np.ndarray:
    """Log no-click probability per photon number for mechanism efficiencies p.

    Returns ``sum_n C(m, n) * log(1 - p[n])`` for m = 0..truncation-1, with
    ``-inf`` wherever a unit-efficiency mechanism applies. The
    efficiencies pass the checks of ``NonlinearSpdParams``, which takes
    the constants; the truncation is a whole number >= 1; a whole float
    counts, a bool does not.
    """
    return NonlinearSpdParams(p)._survival.at(np.arange(_whole_number(truncation, "truncation")))


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
    n = _whole_number(n, "mechanism order", 0)
    p = np.zeros(n + 1)
    p[n] = pn
    return nonlinear_povm(NonlinearSpdParams(p), truncation)


def nonlinear_povm(params: NonlinearSpdParams, truncation: int) -> DiagonalPovm:
    """Composite detector: logical OR of one mechanism per order.

    ``click[m] = 1 - prod_n (1 - p[n]) ** C(m, n)``, the complement of the
    joint no-fire probability of all mechanisms, from the log-survival
    constants ``params`` took when it was built.
    """
    m_values = np.arange(_whole_number(truncation, "truncation"))
    return DiagonalPovm(click=-np.expm1(params._survival.at(m_values)))


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
    ``ValueError`` says so before anything is allocated, as it does for a
    mean that is negative, not finite or above 2**53.
    """
    mu = float(max_mean_photons)
    _check_means(mu, mu)
    reach = _bernstein_reach(mu, -math.log(_TAIL_RESOLUTION))
    _check_dense_size(
        8 * (reach + 1.0),
        f"mean photon number {mu:g} is too large to truncate: its Poisson tail",
    )
    start, top = math.floor(mu) + 1, math.ceil(mu + reach)
    tails = np.exp(_poisson_log_pmf(np.arange(top - 1, start - 1, -1), mu)).cumsum()
    return start + int(np.count_nonzero(tails >= DEFAULT_TAIL_MASS))


def _check_carries(truncation: int, mean_photons: float, what: str = "truncation") -> None:
    """Raise ``ValueError`` if ``truncation`` is below ``truncation_for(mean_photons)``.

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
        raise ValueError(
            f"{what} {truncation} is too small for mean photon number "
            f"{mean_photons:g} (needs >= {needed})"
        )


def _window_starts(mean, reach) -> np.ndarray:
    """First photon number of each window that reaches ``reach`` either
    side of ``mean``: ``ceil(mean - reach)``, at least 0."""
    return np.maximum(np.ceil(mean - reach), 0.0).astype(np.int64)


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
    rows (``loss._binomial_rows``) are its two kinds, both built by ``over``.
    """

    m: np.ndarray
    weights: np.ndarray
    starts: np.ndarray

    @classmethod
    def over(cls, mean, reach, lo, top, log_weights, what) -> "_WindowRows":
        """Rows whose windows run from ``lo = _window_starts(mean, reach)``,
        which the caller takes, to ``floor(mean + reach)``, clipped to
        ``top``, row by row.

        ``log_weights(m, sizes)`` gives the log weight of every term from
        its photon number ``m`` and each row's term count ``sizes``; each
        row is ``exp`` of its log weights divided by their sum. Windows
        whose terms would take more than ``MAX_DENSE_BYTES`` as doubles
        raise ``ValueError``, naming ``what`` (a name, or a function that
        gives it), before anything is allocated.
        """
        sizes = np.minimum(np.floor(mean + reach), top).astype(np.int64) + 1 - lo
        starts = np.zeros(sizes.size + 1, dtype=np.int64)
        sizes.cumsum(out=starts[1:])
        _check_dense_size(8 * int(starts[-1]), what)
        m = np.arange(starts[-1]) + (lo - starts[:-1]).repeat(sizes)
        weights = log_weights(m, sizes)
        np.exp(weights, out=weights)
        weights /= np.add.reduceat(weights, starts[:-1]).repeat(sizes)
        return cls(m=m, weights=weights, starts=starts)

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.weights * values, self.starts[:-1])


def _poisson_rows(intensities) -> _WindowRows:
    """Normalized Poisson rows of coherent probes over the photon numbers they weigh.

    Row i holds the weights ``e^-mu mu^m / m!`` of mean ``mu = intensities[i]``
    over its window, the photon numbers within
    ``t = numerics._bernstein_reach(mu, ln 1e16)`` of mu: beyond it
    Bernstein's inequality leaves at most 1e-16 of the Poisson mass on
    either side. No truncation enters: a row ends where its own Poisson
    mass does. A window holds ``2 t + 1``, about 17.2 sqrt(mu) + 25,
    photon numbers, less where it is clipped at 0: the vacuum's is
    {0..24}. Each weight is ``exp(log pmf)`` divided by its
    row's sum, here and nowhere else: at large m the log weight
    ``m ln(mu) - mu - ln(m!)`` loses digits to cancellation (the full
    weights sum to 1 - 5.5e-10 at mu = 1e6), and the error is nearly
    common to the window, so the normalization removes it.

    Every weight comes from one ``numerics._poisson_log_pmf`` call, which
    takes the logarithm of each row's mean once. The means are checked
    where they entered the package: they are a ``ProbeSet``'s intensities
    or the package's own grids, each finite, >= 0 and at most 2**53. Windows
    whose terms would take more than ``MAX_DENSE_BYTES`` as doubles (a
    probe of 1e15 photons has 5.4e8) raise ``ValueError`` before anything
    is allocated.
    """
    mu = np.asarray(intensities, dtype=float)
    reach = _bernstein_reach(mu, _WINDOW_LOG_MASS)
    return _checked_poisson_rows(mu, reach, _window_starts(mu, reach))


def _checked_poisson_rows(mu: np.ndarray, reach: np.ndarray, lo: np.ndarray) -> _WindowRows:
    """``_poisson_rows`` of the float array of means ``mu``, ``reach``
    their windows' reach and ``lo`` their first photon numbers. The
    refusal text names the largest mean only when it is raised."""
    return _WindowRows.over(
        mu,
        reach,
        lo,
        np.inf,
        lambda m, sizes: _poisson_log_pmf(m, mu, repeats=sizes),
        lambda: f"the Poisson windows of means up to {mu.max():g}",
    )


def _coherent_clicks(params: NonlinearSpdParams, intensities) -> np.ndarray:
    """Click probabilities of the composite detector on coherent probes.

    The means are trusted, as ``_poisson_rows`` trusts them: a
    ``ProbeSet``'s intensities, the package's own grids or the one mean
    ``coherent_click_probability`` checked. Each probe's reach and window
    start are taken once. A probe whose window starts saturated,
    at a survival of at most 2^-55 (``_SATURATED_LOG_SURVIVAL``) at its
    first photon number, gets exactly 1.0, the correctly rounded value of
    its window sum, and no window. The test is one integer compare per
    probe, of its window start with the detector's first saturated photon
    number (``_LogSurvival.first_saturated``), which the parameters' first
    click searches for once; it costs the same at any mean up to 2**53.
    The others get their ``_poisson_rows`` from one
    ``_checked_poisson_rows`` call, on the reach and starts already
    taken: each row drops at most 1e-16 of its Poisson mass on either
    side. Where every probe is built, the means go in as they are, with
    no gather and no scatter. The click ``-expm1(log survival)`` is
    evaluated at every term of every row, from one binomial table, as
    each probe's own sum would, and summed through the rows, so a click
    probability near the dark-count floor keeps its relative precision.
    The rows sum to one only within rounding, so a probe near saturation
    can come out an ulp above one; it is clipped to 1.
    """
    mu = np.asarray(intensities, dtype=float)
    reach = _bernstein_reach(mu, _WINDOW_LOG_MASS)
    lo = _window_starts(mu, reach)
    survival = params._survival
    built = lo < survival.first_saturated
    if built.all():
        rows = _checked_poisson_rows(mu, reach, lo)
        return np.minimum(rows @ -np.expm1(survival.at(rows.m)), 1.0)
    clicks = np.ones(mu.size)
    if built.any():
        rows = _checked_poisson_rows(mu[built], reach[built], lo[built])
        clicks[built] = np.minimum(rows @ -np.expm1(survival.at(rows.m)), 1.0)
    return clicks


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
    instead of a million. A probe whose window starts saturated, at a
    survival of at most 2^-55, builds no row: its click probability is
    exactly 1.0, the correctly rounded value of the sum, at any mean.
    Whether it does is one integer compare of the window's first photon
    number with the detector's first saturated photon number, which the
    detector's first click finds and keeps. The log survivals of the
    terms come from the constants ``params`` took when it was built, so a
    built probe makes one window and one binomial table, a saturated
    probe makes neither, and the call checks nothing but its mean, as a
    Python float, before it hands it to ``_coherent_clicks``: ``params``
    owns a read-only copy of its efficiencies, checked when it was built.

    Parameters
    ----------
    params:
        Mechanism efficiencies of the detector.
    mean_photons:
        Mean photon number ``mu = |alpha|^2`` of the probe: finite, >= 0
        and at most 2**53, or ``ValueError`` is raised.
    """
    mu = float(mean_photons)
    _check_means(mu, mu)
    return float(_coherent_clicks(params, np.array([mu]))[0])


def povm_click_probability(povm: DiagonalPovm, mean_photons: float) -> float:
    """Coherent-probe click probability of an explicit click vector.

    Computes ``sum_m e^-mu mu^m / m! * click[m]`` over the POVM's stored
    range, divided by the sum of the same weights: their log form loses
    digits to cancellation at large means (they sum to 1 + 7.7e-12 at
    mu = 37,330), and the error is nearly common to the terms. Both sums
    take the same reduction, so a click vector in [0, 1] gives a result in
    [0, 1]. The truncation must dominate the probe: if the Poisson tail
    beyond it exceeds ``DEFAULT_TAIL_MASS`` the result would silently miss
    response, so ``ValueError`` is raised instead, as it is for a mean
    that is negative, not finite or above 2**53.
    """
    _check_carries(povm.truncation, mean_photons, "POVM truncation")
    weights = np.exp(_poisson_log_pmf(np.arange(povm.truncation), mean_photons))
    return float((weights * povm.click).sum() / weights.sum())
