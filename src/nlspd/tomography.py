"""Detector tomography from coherent-state click statistics.

A set of coherent probes with known mean photon numbers drives the
detector; the measured click frequencies ``C_i`` relate to the diagonal
POVM through the Poisson probe rows ``F``::

    C = F @ click,   F[i, m] = e^-mu_i mu_i^m / m!

``reconstruct_povm`` inverts this linear model as a box-constrained
quadratic program with an optional smoothing penalty on neighboring POVM
elements. Each probe weighs only the photon numbers of its Poisson window
(``povm._poisson_rows``), so the program is solved on U, the union of
the windows below the truncation. A photon number outside U enters only
through the smoothing term, which a straight line between its covered
neighbours minimizes, so it is eliminated exactly: each difference across
a gap of L numbers is weighted 1/L, and the click vector is U's solution
interpolated back onto 0..N-1. An active-set loop solves the program on
U: each step holds some elements at 0 or 1 and minimizes over the rest in
closed form, at O(|U| P^2) for P probes, until the first-order conditions
certify the optimum. Bounded-variable least squares on the dense stacked
problem is only the fallback.
``scaled_fit_workflow`` implements the intensity-rescaling technique for
very inefficient detectors: the probe intensities are
multiplied by a factor k chosen so the effective detector reaches a target
click probability at mean photon number 30, collapsing the reconstruction
onto a small photon-number range.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConvergenceError
from .numerics import _check_means, _freeze, _values_equal, _whole_number, _whole_numbers
from .povm import DiagonalPovm, _check_carries, _check_dense_size, _poisson_rows, truncation_for

__all__ = [
    "ClickRecord",
    "ProbeSet",
    "fidelity",
    "read_click_data",
    "reconstruct_povm",
    "scaled_fit_workflow",
    "write_click_data",
]

CSV_HEADER = ("mean_photons", "trials", "clicks")

# ``scaled_fit_workflow`` rescales a detector to click with probability
# _SCALED_TARGET_CLICK at mean photon number SCALED_TARGET_MEAN.
SCALED_TARGET_MEAN = 30.0
_SCALED_TARGET_CLICK = 0.95

# Relative cost-change tolerance of the bounded-variable least-squares
# solve. Looser values stop measurably short of the optimum: 1e-10 leaves
# the objectives of the rescaled reference records up to 3e-9 above it.
_BVLS_TOL = 1e-14

# Smallest smoothing weight the solve uses. At zero smoothing with more
# unknowns than probes the data leave a flat set of minimizers; this weight
# selects the smoothest one without moving the data fit measurably.
_TIE_BREAK_WEIGHT = 1e-10

# Main-loop iterations the bounded-variable least-squares solve may take per
# unknown. scipy's default budget is one per unknown, which runs out at the
# smallest smoothing weights: rescaled 20 uA and 16 uA records (N of about
# 110) need up to 119 iterations at w = 0 and converge with optimality
# <= 4e-15 once allowed to.
_BVLS_ITERATIONS_PER_UNKNOWN = 10

# Most unknowns the bounded-variable least-squares fallback takes on. Its
# time grows faster than its stacked matrix: at the tie-break weight, raw
# 25 uA seed 0 rescaled to |U| = 245, 431, 608, 712 and 781 took 0.2, 1.7,
# 3.7, 7.2 and 21 s (2-vCPU host, one BLAS thread), and on its own grid,
# |U| = 3296, it ran past 13 min. Above this count the fallback is
# refused, as an oversize array is.
_BVLS_MAX_UNKNOWNS = 700

# Active-set steps the reconstruction may take before it hands the problem
# to bounded-variable least squares, at every weight. The 39 rescaled
# reference records, reconstructed directly and through
# ``scaled_fit_workflow``, and the raw 25 uA records take at most 13 steps
# at the default weight and 18 at w = 1e-6. Below w = 1e-7 most rescaled
# records spend the budget and fall back: directly 32, 37 and 39 of 39 at
# w = 3e-8, 1e-8 and 0, through the workflow 33, 38 and 39. The raw 25 uA
# record of seed 0 is certified within it (in at most 6 steps down to
# w = 1e-8), where the fallback would take minutes and is refused.
_ACTIVE_SET_STEPS = 25

# Largest first-order breach the active-set solve accepts as optimal: the
# gradient of the objective on a free element, or against its bound on a
# held one. Rounding leaves about 1e-15 on the free elements.
_KKT_TOLERANCE = 1e-10

# Elements within this distance of 0 or 1 count as on that bound.
_ON_BOUND = 1e-12


@dataclass(frozen=True)
class ProbeSet:
    """Coherent probe intensities and the trial count per probe.

    The intensities are strictly increasing and start with the mandatory
    vacuum probe, which anchors the dark-count component. Like every mean
    photon number of the package they are finite and at most 2**53, and
    the trial count is a whole number from 1 to 2**53. The set owns a
    read-only copy of the intensities it was given, so a later edit of
    the caller's array does not reach it, and the windows and clicks
    built on its intensities check none of them again.
    """

    intensities: np.ndarray
    trials: int

    __eq__ = _values_equal

    def __post_init__(self):
        intensities = np.array(self.intensities, dtype=float)
        if intensities.ndim != 1 or intensities.size < 2:
            raise ValueError("at least two probe intensities are required")
        _check_means(intensities.min(), intensities.max())
        if intensities[0] != 0.0:
            raise ValueError("the first probe must be the vacuum (intensity 0)")
        if np.any(np.diff(intensities) <= 0):
            raise ValueError("probe intensities must be strictly increasing")
        trials = _whole_number(self.trials, "trials per probe")
        _freeze(self, intensities=intensities, trials=trials)

    def __len__(self) -> int:
        return int(self.intensities.size)

    def scaled_by(self, k: float) -> "ProbeSet":
        """Probe set with every intensity multiplied by k > 0."""
        if k <= 0:
            raise ValueError(f"scale factor must be > 0, got {k}")
        return ProbeSet(intensities=self.intensities * k, trials=self.trials)


@dataclass(frozen=True)
class ClickRecord:
    """Observed click counts, one per probe, out of a fixed trial count.

    The trial count, a whole number from 1 to 2**53, is checked first; each
    count is a whole number in [0, trials].
    """

    clicks: np.ndarray
    trials: int

    __eq__ = _values_equal

    def __post_init__(self):
        trials = _whole_number(self.trials, "trials")
        clicks = np.asarray(self.clicks)
        if clicks.ndim != 1 or clicks.size < 1:
            raise ValueError("click counts must form a nonempty vector")
        clicks = _whole_numbers(clicks, "click counts", trials, "trials")
        _freeze(self, clicks=clicks, trials=trials)

    @property
    def frequencies(self) -> np.ndarray:
        return self.clicks / self.trials


def check_paired(probes: ProbeSet, record: ClickRecord) -> None:
    """Validate that a click record belongs to a probe set."""
    if len(probes) != record.clicks.size:
        raise ValueError(
            f"probe count {len(probes)} does not match record length {record.clicks.size}"
        )
    if probes.trials != record.trials:
        raise ValueError(
            f"probe trials {probes.trials} do not match record trials {record.trials}"
        )


def _probe_matrix(probes: ProbeSet, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Probe rows on U, the union of the probes' Poisson windows below ``truncation``.

    Returns the P x |U| matrix and U. Row i holds probe i's
    ``_poisson_rows`` weights, as that normalizes them, at the photon
    numbers of its window below the truncation; a truncation of at least
    ``truncation_for`` the largest probe drops at most 1e-12 of a row.
    The N-length click vector and the matrix on the whole union are
    refused before they are allocated if either would exceed
    ``MAX_DENSE_BYTES``.
    """
    advice = "(rescale the intensities: --scale-to-95)"
    _check_dense_size(8 * truncation, f"a click vector of {truncation} elements {advice}")
    rows = _poisson_rows(probes.intensities)
    photons, columns = np.unique(rows.m, return_inverse=True)
    shape = (len(probes), photons.size)
    _check_dense_size(8 * shape[0] * shape[1], f"the {shape[0]} x {shape[1]} probe matrix {advice}")
    probe = np.arange(shape[0]).repeat(np.diff(rows.starts))
    matrix = np.zeros(shape)
    matrix[probe, columns] = rows.weights
    size = int(np.searchsorted(photons, truncation))
    return matrix[:, :size], photons[:size]


def default_smoothing_weight(probes: ProbeSet) -> float:
    """Smoothing weight used when none is given: 1e-3 per probe."""
    return 1e-3 * len(probes)


def reconstruct_povm(
    probes: ProbeSet,
    record: ClickRecord,
    truncation: int | None = None,
    smoothing_weight: float | None = None,
) -> DiagonalPovm:
    """Reconstruct a diagonal POVM from coherent-probe click frequencies.

    Minimizes::

        || F x - C ||_2^2 + w * sum_m (x[m+1] - x[m])^2,   0 <= x <= 1

    over x of length N, the truncation. The quadratic is convex, so the
    minimizer is unique and the solve is deterministic. Probe i weighs
    only its Poisson window (``povm._poisson_rows``, normalized, at most
    1e-16 of its mass left out on either side), so the program is solved
    on U, the union of the windows below N (``_probe_matrix``). On a gap
    of L photon numbers between two elements of U the smoothing term alone
    acts, and the straight line between them minimizes it; past the last
    element of U the constant does. Both stay in [0, 1], so eliminating
    the gaps is exact: the differences across a gap are replaced by one
    weighted 1/L (springs in series), and ``x = interp(0..N-1, U, y)``
    restores the click vector from U's solution y. Where U covers
    0..N-1, as it does for every grid from ``geometric_probe_grid`` below
    mean photon numbers of a few thousand, nothing is eliminated.

    The program on U is solved in two steps:

    1. An active-set loop (``_active_set_minimizer``). Each step holds a set
       of elements at 0 or 1 and minimizes over the others in closed form
       (``_free_minimizer``, O(|U| P^2) for P probes). The
       first step holds none: if that minimizer lies in [0, 1], it is
       returned. Otherwise each step holds the free elements that left
       [0, 1] at the bound they crossed, and frees the held elements
       whose gradient pushes them back inside. The loop stops when the
       first-order (KKT) conditions hold, which certifies the optimum.
    2. If the loop stalls or runs out of steps, scipy's bounded-variable
       least squares solves the stacked problem ``[F; sqrt(w / L) D] y =
       [C; 0]`` (D the first difference on U) to its tolerance, on at most
       700 unknowns.

    A weight below 1e-10 (in particular w = 0) is raised to 1e-10 on both
    paths: with more unknowns than probes the unsmoothed problem has a
    flat set of minimizers, and the tiny weight picks the one of least
    roughness. Every weight gets the same budget of active-set steps.

    Parameters
    ----------
    probes, record:
        Matched probe set and click record.
    truncation:
        Length N of the click vector, a whole number (146.0 counts, a bool
        does not); it must carry the largest probe's Poisson mass to
        within ``DEFAULT_TAIL_MASS``. Defaults to
        ``truncation_for`` the largest intensity, the smallest that does.
    smoothing_weight:
        Weight w of the neighboring-element penalty; finite and >= 0.
        Defaults to ``default_smoothing_weight(probes)``.

    Raises
    ------
    ValueError
        If the truncation is not a whole number or too small for the
        largest probe, or if the click vector
        (8 N bytes) or the P x |U| probe matrix would exceed
        ``MAX_DENSE_BYTES``, where the message suggests rescaling; also if
        the fallback is needed and its (P + |U| - 1) x |U| stacked matrix
        would exceed it or U holds more than 700 photon numbers, too many
        for the fallback to finish in bounded time; that message suggests
        a larger smoothing weight or rescaling.
    ConvergenceError
        If the fallback exhausts its iteration budget; the error carries
        the solver result.
    """
    check_paired(probes, record)
    if smoothing_weight is None:
        smoothing_weight = default_smoothing_weight(probes)
    if not 0 <= smoothing_weight < np.inf:
        raise ValueError(
            f"smoothing weight must be finite and >= 0, got {smoothing_weight}"
        )
    largest = float(probes.intensities.max())
    if truncation is None:
        truncation = truncation_for(largest)
    else:
        truncation = _whole_number(truncation, "truncation")
        _check_carries(truncation, largest)

    F, photons = _probe_matrix(probes, truncation)
    lengths = np.diff(photons).astype(float)
    weight = max(smoothing_weight, _TIE_BREAK_WEIGHT)
    solve = _active_set_minimizer(F, record.frequencies, weight, lengths)
    return DiagonalPovm(click=np.interp(np.arange(truncation), photons, solve.y))


@dataclass(frozen=True)
class _BoxSolve:
    """Record of one ``_active_set_minimizer`` call.

    ``y`` is the box minimizer on U, the solver's own array, not a copy;
    ``steps`` counts the active-set steps taken, and ``fallback`` says
    whether bounded-variable least squares finished the solve after them.
    """

    y: np.ndarray
    steps: int
    fallback: bool


def _active_set_minimizer(
    F: np.ndarray, frequencies: np.ndarray, weight: float, lengths: np.ndarray
) -> _BoxSolve:
    """Box minimizer by primal-dual active-set steps, or by BVLS where they fail.

    ``state`` marks each element as held at 0 (-1), held at 1 (+1) or free
    (0). Each step minimizes over the free elements in closed form, then
    holds every free element outside [0, 1] at the bound it crossed and
    frees every held element that ``_kkt_breach`` flags, i.e. whose
    gradient points into the box (and more along a walking run, see the
    loop). The first step holds nothing, so a minimizer inside the box is
    returned after one step. The loop ends when a step changes nothing.
    If every breach is then within ``_KKT_TOLERANCE``, the first-order
    conditions certify the result as the optimum; otherwise, or after
    ``_ACTIVE_SET_STEPS`` steps, ``_bounded_least_squares`` solves the
    problem.
    """
    size = F.shape[1]
    state = np.zeros(size, dtype=np.int8)
    freed = np.zeros(size, dtype=bool)
    reach, extend, visited = 1, True, set()
    steps = 0
    for steps in range(1, _ACTIVE_SET_STEPS + 1):
        x = _free_minimizer(F, frequencies, weight, state, lengths)
        free = state == 0
        below, above = free & (x < 0.0), free & (x > 1.0)
        breach = _kkt_breach(x, _objective_gradient(F, frequencies, weight, x, lengths))
        released = (state != 0) & (breach > _KKT_TOLERANCE)
        if not (below.any() or above.any() or released.any()):
            if breach.max(initial=0.0) <= _KKT_TOLERANCE:
                return _BoxSolve(x, steps, fallback=False)
            break
        # A held run can give up one end element per step for dozens of
        # steps while its multipliers shrink slowly (rescaled 20 uA seed 7:
        # 42 steps). While every release continues such a walk, free 2, 4,
        # 8, ... elements along it per step. Elements freed too far leave the
        # box and are held again, and that can cycle: once a held set
        # repeats, walks are no longer extended.
        key = state.tobytes()
        extend = extend and key not in visited
        visited.add(key)
        up = released & np.append(False, freed[:-1])
        down = released & np.append(freed[1:], False)
        walking = up | down
        walks = extend and walking.any() and np.array_equal(walking, released)
        reach = 2 * reach if walks else 1
        freed = released.copy()
        for i in np.flatnonzero(walking) if reach > 1 else ():
            step = 1 if up[i] else -1
            j = i + step
            while abs(j - i) < reach and 0 <= j < size and state[j] == state[i]:
                freed[j] = True
                j += step
        state[below], state[above], state[freed] = -1, 1, 0
    return _BoxSolve(_bounded_least_squares(F, frequencies, weight, lengths), steps, fallback=True)


def _free_minimizer(
    F: np.ndarray, frequencies: np.ndarray, weight: float, state: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Minimizer of ``||F x - C||^2 + w ||D x||_c^2`` with the held elements fixed.

    ``||D x||_c^2 = sum_k (x[k+1] - x[k])^2 / lengths[k]`` is the
    smoothing term with each difference weighted by its reciprocal length
    c = 1 / lengths. Elements with ``state < 0`` are held at 0 and those
    with ``state > 0`` at 1; the free elements z are unconstrained. On z
    the smoothing term is ``w ||R z - r0||^2`` up to a constant, where R
    is the upper-bidiagonal Cholesky factor of the free block of
    ``D^T diag(c) D`` (positive definite, since every run of free elements
    borders a held one) and ``R^T r0 = -(D^T diag(c) D x_held)[free]``;
    ``_PathFactor`` applies R^-T and R^-1 in closed form. With ``u = R z``
    the data term is ``||M u - t||^2`` for ``M = F_free R^-1`` and
    ``t = C - F x_held``, so u solves the ridge regression
    ``min ||M u - t||^2 + w ||u - r0||^2`` by one thin SVD of the n x P
    matrix M^T (LAPACK's divide and conquer took 2.7 times as long on the
    wide 61 x 113,821 M of a raw record): O(n P^2) instead of
    a dense solve of the (P + n - 1) x n stacked system. The map from C
    to the free elements is linear, ``z = R^-1 (r0 + V diag(s / (s^2 +
    w)) U^T (C - F x_held - M r0))`` for ``M = U diag(s) V^T``.

    With nothing held, element 0 is solved as if held at 0, giving y, and
    x = y + c 1 adds an unpenalized intercept c (D 1 = 0) along
    ``f = F 1``. For any u the best intercept is ``c = f.(C - F y) / f.f``;
    putting it back projects ``q = f / |f|`` out of M and t.
    """
    free = state == 0
    x = (state > 0).astype(float)
    if not free.any():
        return x
    intercept = free.all()
    if intercept:
        free = np.append(False, free[1:])
    index = np.flatnonzero(free)
    factor = _PathFactor(index, lengths)
    # R^-T on the rows of F_free and on -(D^T D x_held)[free] in one pass.
    rows = np.empty((F.shape[0] + 1, index.size))
    np.take(F, index, axis=1, out=rows[:-1])
    np.negative(_roughness_gradient(x, lengths)[index], out=rows[-1])
    columns, shift = factor.solve_transposed(rows)[:-1], rows[-1]
    target = frequencies - F @ x - columns @ shift
    if intercept:
        f = F.sum(axis=1)
        q = f / np.linalg.norm(f)
        columns -= np.outer(q, q @ columns)
        target -= q * (q @ target)
    right, s, left = np.linalg.svd(columns.T, full_matrices=False)
    u = shift + right @ (s / (s * s + weight) * (left @ target))
    x[index] = factor.solve(u)
    if intercept:
        x += f @ (frequencies - F @ x) / (f @ f)
    return x


class _PathFactor:
    """Cholesky factor R of the free block of ``D^T diag(c) D``, in closed form.

    For the first difference D on elements 0..n-1 with weights
    ``c = 1 / lengths``, the free block is the weighted path-graph
    Laplacian of each run of consecutive free elements: ``c[k-1] + c[k]``
    on the diagonal (no ``c[-1]`` at element 0, no ``c[n-1]`` at n - 1)
    and ``-c[k]`` between neighbours k and k + 1. With
    ``R = diag(sqrt(pivot)) L^T``, L unit lower bidiagonal with
    ``-c[k] / pivot[k]`` below the diagonal, each run has gauge weights
    g: 1 along a run that starts at element 0, else the summed lengths
    from the run's held left neighbour to the element, its resistance to
    that neighbour through springs in series. The pivots are
    ``c[k] g[k+1] / g[k] = c[k] + 1 / g[k]``, the ``1 / g`` dropped on a
    run from element 0 and ``c[k]`` dropped at element n - 1. Then
    ``-c[k] / pivot[k] = -g[k] / g[k+1]``, so ``L y = b`` is
    ``g y = cumsum(g b)`` and ``L^T z = v`` is
    ``z / g = reverse cumsum(v / g)``, each summed along its own run. With
    every length 1 the gauge counts the elements of the run and the
    pivots are ``(k + 1) / k``.
    """

    def __init__(self, index: np.ndarray, lengths: np.ndarray):
        breaks = np.flatnonzero(np.diff(index) != 1) + 1
        self.runs = np.concatenate(([0], breaks, [index.size]))
        starts = np.zeros(index.size, dtype=np.int64)
        starts[self.runs[1:-1]] = breaks
        np.maximum.accumulate(starts, out=starts)
        first = index[starts]
        position = np.concatenate(([0.0], np.cumsum(lengths)))
        from_zero = first == 0
        self.gauge = np.where(from_zero, 1.0, position[index] - position[first - 1])
        conductance = np.append(1.0 / lengths, 0.0)[index]
        self.root_pivot = np.sqrt(conductance + np.where(from_zero, 0.0, 1.0 / self.gauge))

    def _run_cumsum(self, values: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Cumulative sums of ``values`` along its last axis, in place, restarting at every run."""
        for lo, hi in zip(self.runs[:-1], self.runs[1:]):
            run = values[..., lo:hi]
            if reverse:
                run = run[..., ::-1]
            np.cumsum(run, axis=-1, out=run)
        return values

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """``R^-T b`` along the last axis of b, in place."""
        b *= self.gauge
        self._run_cumsum(b)
        b /= self.gauge * self.root_pivot
        return b

    def solve(self, u: np.ndarray) -> np.ndarray:
        """``R^-1 u`` along the last axis of u."""
        return self._run_cumsum(u / (self.root_pivot * self.gauge), reverse=True) * self.gauge


def _roughness_gradient(x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``D^T diag(1 / lengths) D x`` for the first difference D, without forming D."""
    steps = np.diff(x) / lengths
    gradient = np.zeros_like(x)
    gradient[:-1] -= steps
    gradient[1:] += steps
    return gradient


def _objective_gradient(
    F: np.ndarray, frequencies: np.ndarray, weight: float, x: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Gradient ``2 (F^T (F x - C) + w D^T diag(1 / lengths) D x)`` of the objective on U."""
    return 2.0 * (F.T @ (F @ x - frequencies) + weight * _roughness_gradient(x, lengths))


def _kkt_breach(x: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Breach of the first-order optimality conditions on [0, 1], per element.

    A minimizer has gradient >= 0 where x sits on its lower bound, <= 0 on
    its upper bound and = 0 in between; the breach is how far each element
    misses its condition. Elements within ``_ON_BOUND`` of a bound count as
    on it.
    """
    at_lower = x <= _ON_BOUND
    at_upper = x >= 1.0 - _ON_BOUND
    return np.where(at_lower, -gradient, np.where(at_upper, gradient, np.abs(gradient)))


def _bounded_least_squares(
    F: np.ndarray, frequencies: np.ndarray, weight: float, lengths: np.ndarray
) -> np.ndarray:
    """Box minimizer by scipy's BVLS on the dense stacked problem.

    Row k of the smoothing block is ``sqrt(w / lengths[k])`` times the
    k-th first difference.

    A stacked matrix above ``MAX_DENSE_BYTES`` raises ``ValueError``
    before it is allocated, as every other oversize array does, and so do
    more than ``_BVLS_MAX_UNKNOWNS`` unknowns, on which BVLS would not
    finish in bounded time.

    ``scipy.optimize`` is imported here, not at module level: only this
    fallback needs it, and importing it costs every CLI process time.
    """
    probes, unknowns = F.shape
    height = probes + unknowns - 1
    _check_dense_size(8 * height * unknowns, f"the fallback's {height} x {unknowns} stacked matrix")
    if unknowns > _BVLS_MAX_UNKNOWNS:
        raise ValueError(
            "the active-set steps did not certify the reconstruction, and its fallback takes "
            f"at most {_BVLS_MAX_UNKNOWNS} unknowns, not {unknowns} (use a larger --smoothing, "
            "or rescale the intensities: --scale-to-95)"
        )
    from scipy.optimize import lsq_linear

    # [F; sqrt(w / L) D] is filled in place: at raw-data sizes (thousands
    # of unknowns) every extra dense square temporary costs tens of MB.
    root_weight = np.sqrt(weight / lengths)
    rows = probes + np.arange(unknowns - 1)
    cols = np.arange(unknowns - 1)
    stacked = np.zeros((height, unknowns))
    stacked[:probes] = F
    stacked[rows, cols] = -root_weight
    stacked[rows, cols + 1] = root_weight
    rhs = np.concatenate([frequencies, np.zeros(unknowns - 1)])

    result = lsq_linear(
        stacked,
        rhs,
        bounds=(0.0, 1.0),
        method="bvls",
        tol=_BVLS_TOL,
        max_iter=_BVLS_ITERATIONS_PER_UNKNOWN * unknowns,
    )
    if result.status == 0:
        raise ConvergenceError(
            f"POVM reconstruction stopped after {result.nit} iterations "
            f"with optimality {result.optimality:.3g}",
            result=result,
        )
    return result.x


def _pchip_slope(h: np.ndarray, m: np.ndarray, i: int) -> float:
    """Derivative at knot i of the PCHIP with knot spacings h and secants m.

    The rule is stated in ``_crossing_intensity``.
    """
    if m.size == 1:
        return m[0]
    if i == 0 or i == m.size:
        near, far = (0, 1) if i == 0 else (-1, -2)
        d = ((2 * h[near] + h[far]) * m[near] - h[near] * m[far]) / (h[near] + h[far])
        if np.sign(d) != np.sign(m[near]):
            return 0.0
        if np.sign(m[near]) != np.sign(m[far]) and abs(d) > 3 * abs(m[near]):
            return 3 * m[near]
        return d
    left, right = m[i - 1], m[i]
    if left == 0 or np.sign(left) != np.sign(right):
        return 0.0
    w1 = 2 * h[i] + h[i - 1]
    w2 = h[i] + 2 * h[i - 1]
    return 1.0 / ((w1 / left + w2 / right) / (w1 + w2))


def _crossing_intensity(
    intensities: np.ndarray, frequencies: np.ndarray, target: float
) -> float:
    """Intensity at which the measured click curve first reaches target.

    Interpolates the positive-intensity points with a monotone piecewise
    cubic (PCHIP) on the log-intensity axis and returns its first crossing
    of the target. PCHIP does not overshoot its data, so that crossing lies
    in the first interval whose right end reaches the target.

    On that interval the PCHIP is the cubic Hermite interpolant of the two
    end values and end derivatives, so the crossing is a root of one cubic.
    The derivatives follow scipy's ``PchipInterpolator`` (``_pchip_slope``):
    two knots give the line; an interior knot takes the weighted harmonic
    mean of its two secants, or 0 where they differ in sign or one is zero
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980)); an end knot
    takes the one-sided three-point estimate, set to 0 where its sign
    differs from the end secant's, and to 3 times the end secant where the
    two end secants differ in sign and it is larger than that (Moler,
    *Numerical Computing with MATLAB*, ``pchiptx``).
    """
    positive = intensities > 0
    x = intensities[positive]
    y = frequencies[positive]
    if x.size < 2:
        raise ValueError("too few nonvacuum probes to interpolate")
    above = np.nonzero(y >= target)[0]
    if above.size == 0:
        raise ValueError(
            f"measured click probability never reaches {target:g} "
            f"(max {y.max():g})"
        )
    if above[0] == 0:
        raise ValueError(
            f"click probability already exceeds {target:g} at the smallest "
            "nonvacuum probe; no crossing can be bracketed"
        )
    j = above[0]
    u = np.log(x)
    h = np.diff(u)
    m = np.diff(y) / h
    # The cubic minus target, in s = (u_j - u) / h_{j-1} measured back from
    # the right end, where its constant term y_j - target is exact: a
    # target equal to y_j gives the root s = 0 exactly, even when the
    # curve is flat there and the root is double.
    rise = y[j] - y[j - 1]
    g0, g1 = (h[j - 1] * _pchip_slope(h, m, i) for i in (j - 1, j))
    roots = np.roots([2 * rise - g0 - g1, 2 * g1 + g0 - 3 * rise, -g1, y[j] - target])
    # The cubic is monotone on [0, 1] and changes sign there, so one root
    # lies on that segment; rounding can move it a hair off the segment or
    # off the real axis, so take the root nearest it and clip.
    nearest = roots[np.argmin(np.abs(roots - np.clip(roots.real, 0.0, 1.0)))]
    return float(np.exp(u[j] - h[j - 1] * np.clip(nearest.real, 0.0, 1.0)))


def scaled_fit_workflow(
    probes: ProbeSet,
    record: ClickRecord,
    *,
    smoothing_weight: float | None = None,
) -> tuple[float, DiagonalPovm]:
    """Rescale the probe intensities and reconstruct the effective POVM.

    For very inefficient detectors the click curve saturates only at
    enormous mean photon numbers, making a direct reconstruction
    intractable. Multiplying every intensity by a factor k < 1 describes
    the same data as a more efficient detector on a small photon-number
    range. k is fixed by the saturation condition: if ``mu*`` is the
    intensity where the measured click probability reaches 0.95, then
    ``k = 30 / mu*``, so the rescaled detector clicks with 95% probability
    at mean photon number 30.

    The raw intensities are held to the rule of every ``ProbeSet``: one
    above 2**53 photons is refused when the probe set is built, although
    k would bring it into range. Such a probe's photon numbers are not
    whole in a double, so its raw intensity is not a measured mean to
    rescale.

    Returns
    -------
    (k, povm):
        The scale factor and the POVM reconstructed against the rescaled
        intensities at ``reconstruct_povm``'s default truncation, just
        past the rescaled range.

    Raises
    ------
    ValueError
        If the measured click probabilities never bracket the target.
    """
    check_paired(probes, record)
    mu_star = _crossing_intensity(
        probes.intensities, record.frequencies, _SCALED_TARGET_CLICK
    )
    k = SCALED_TARGET_MEAN / mu_star
    return k, reconstruct_povm(probes.scaled_by(k), record, smoothing_weight=smoothing_weight)


def fidelity(a: DiagonalPovm, b: DiagonalPovm) -> float:
    """Bhattacharyya overlap of two click vectors normalized to unit sum.

    The shorter vector is padded with its trailing value so both cover the
    same photon-number range; each is then normalized to unit sum and the
    squared Bhattacharyya coefficient ``(sum_m sqrt(a~ b~))^2`` returned.
    Identical vectors (up to overall scale) give 1; disjoint supports give
    0. An identically zero operand has no normalization, so it raises
    ``ValueError``.
    """
    length = max(a.truncation, b.truncation)
    va, vb = a.padded(length), b.padded(length)
    sa, sb = va.sum(), vb.sum()
    if sa == 0.0 or sb == 0.0:
        raise ValueError("fidelity is undefined for an all-zero click vector")
    overlap = float(np.sum(np.sqrt((va / sa) * (vb / sb))))
    return overlap * overlap


def write_click_data(path: str | Path, probes: ProbeSet, record: ClickRecord) -> None:
    """Write probe data as CSV with the ``mean_photons,trials,clicks`` layout."""
    check_paired(probes, record)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for mu, clicks in zip(probes.intensities, record.clicks):
            writer.writerow([repr(float(mu)), probes.trials, int(clicks)])


def read_click_data(path: str | Path) -> tuple[ProbeSet, ClickRecord]:
    """Read probe data written by ``write_click_data``.

    The header must match ``mean_photons,trials,clicks`` exactly and the
    trial count must be constant across rows; a file that breaks either
    rule, or holds a malformed or missing row, raises ``ValueError``.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty click-data file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        intensities, trials, clicks = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                intensities.append(float(row[0]))
                trials.append(int(row[1]))
                clicks.append(int(row[2]))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
    if not trials:
        raise ValueError(f"{path}: no data rows")
    if len(set(trials)) != 1:
        raise ValueError(f"{path}: trials must be constant across rows")
    probes = ProbeSet(intensities=np.array(intensities), trials=trials[0])
    record = ClickRecord(clicks=np.array(clicks), trials=trials[0])
    return probes, record
