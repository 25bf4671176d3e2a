"""Detector tomography from coherent-state click statistics.

A set of coherent probes with known mean photon numbers drives the
detector; the measured click frequencies ``C_i`` relate to the diagonal
POVM through the Poisson probe matrix ``F``::

    C = F @ click,   F[i, m] = e^-mu_i mu_i^m / m!

``reconstruct_povm`` inverts this linear model as a box-constrained
quadratic program with an optional smoothing penalty on neighboring POVM
elements. An active-set loop solves it: each step holds some elements at
0 or 1 and minimizes over the rest in closed form, at O(N P^2) for N
elements and P probes, until the first-order conditions certify the
optimum. Bounded-variable least squares on the dense stacked problem is
only the fallback.
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
from scipy.interpolate import PchipInterpolator
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import lsq_linear

from .exceptions import (
    ConvergenceError,
    DataFormatError,
    TargetUnreachableError,
    UndefinedFidelityError,
)
from .povm import MAX_DENSE_BYTES, DiagonalPovm, _check_carries, _whole_number, truncation_for
from .numerics import poisson_log_weights

__all__ = [
    "CSV_HEADER",
    "ClickRecord",
    "ProbeSet",
    "SCALED_TARGET_MEAN",
    "build_probe_matrix",
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

# Active-set steps the reconstruction may take before it hands the problem
# to bounded-variable least squares. The rescaled reference records and the
# raw 25 uA records take at most 13 steps at the default weight and 18 at
# w = 1e-6. Below that the steps often wander: at w = 1e-8, 71 of these 81
# records do not converge in 400 steps, and at the tie-break weight none
# does, so there only the first, box-free step is tried.
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
    vacuum probe, which anchors the dark-count component.
    """

    intensities: np.ndarray
    trials: int

    def __post_init__(self):
        intensities = np.asarray(self.intensities, dtype=float)
        if intensities.ndim != 1 or intensities.size < 2:
            raise ValueError("at least two probe intensities are required")
        if not np.all(np.isfinite(intensities)):
            raise ValueError("probe intensities must be finite")
        if intensities[0] != 0.0:
            raise ValueError("the first probe must be the vacuum (intensity 0)")
        if np.any(np.diff(intensities) <= 0):
            raise ValueError("probe intensities must be strictly increasing")
        trials = _whole_number(self.trials, "trials per probe")
        if trials < 1:
            raise ValueError(f"trials per probe must be >= 1, got {trials}")
        intensities.setflags(write=False)
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "trials", trials)

    def __len__(self) -> int:
        return int(self.intensities.size)

    def scaled_by(self, k: float) -> "ProbeSet":
        """Probe set with every intensity multiplied by k > 0."""
        if k <= 0:
            raise ValueError(f"scale factor must be > 0, got {k}")
        return ProbeSet(intensities=self.intensities * k, trials=self.trials)


@dataclass(frozen=True)
class ClickRecord:
    """Observed click counts, one per probe, out of a fixed trial count."""

    clicks: np.ndarray
    trials: int

    def __post_init__(self):
        clicks = np.asarray(self.clicks)
        if clicks.ndim != 1 or clicks.size < 1:
            raise ValueError("click counts must form a nonempty vector")
        if not np.issubdtype(clicks.dtype, np.integer):
            rounded = np.asarray(np.rint(clicks), dtype=np.int64)
            if not np.array_equal(rounded, clicks):
                raise ValueError("click counts must be integers")
            clicks = rounded
        clicks = clicks.astype(np.int64)
        trials = _whole_number(self.trials, "trials")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if clicks.min() < 0 or clicks.max() > trials:
            raise ValueError("click counts must lie in [0, trials]")
        clicks.setflags(write=False)
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "trials", trials)

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


def build_probe_matrix(probes: ProbeSet, truncation: int) -> np.ndarray:
    """Poisson probe matrix ``F[i, m] = e^-mu_i mu_i^m / m!`` at a fixed truncation.

    Raises ``TruncationError`` when the truncation cannot carry the largest
    probe's Poisson mass to within ``DEFAULT_TAIL_MASS``, since rows would
    then sum to visibly less than one and bias any fit against them.
    """
    _check_carries(truncation, float(probes.intensities.max()))
    return np.exp(poisson_log_weights(probes.intensities, truncation))


def default_smoothing_weight(probes: ProbeSet) -> float:
    """Smoothing weight used when none is given: 1e-3 per probe."""
    return 1e-3 * len(probes)


def reconstruct_povm(
    probes: ProbeSet,
    record: ClickRecord,
    truncation: int,
    smoothing_weight: float | None = None,
) -> DiagonalPovm:
    """Reconstruct a diagonal POVM from coherent-probe click frequencies.

    Minimizes::

        || F x - C ||_2^2 + w * sum_m (x[m+1] - x[m])^2,   0 <= x <= 1

    The quadratic is convex, so the minimizer is unique and the solve is
    deterministic. It runs in two steps:

    1. An active-set loop (``_active_set_minimizer``). Each step holds a set
       of elements at 0 or 1 and minimizes over the others in closed form
       (``_free_minimizer``, O(N P^2) for N unknowns and P probes). The
       first step holds none: if that minimizer lies in [0, 1], it is
       returned. Otherwise each step holds the free elements that left
       [0, 1] at the bound they crossed, and frees the held elements
       whose gradient pushes them back inside. The loop stops when the
       first-order (KKT) conditions hold, which certifies the optimum.
    2. If the loop stalls or runs out of steps, scipy's bounded-variable
       least squares solves the stacked problem ``[F; sqrt(w) D] x = [C; 0]``
       (D the first difference) to its tolerance.

    A weight below 1e-10 (in particular w = 0) is raised to 1e-10 on both
    paths: with more unknowns than probes the unsmoothed problem has a
    flat set of minimizers, and the tiny weight picks the one of least
    roughness. At that weight the active-set steps do not settle, so only
    the first is tried, and the fallback does the work.

    Parameters
    ----------
    probes, record:
        Matched probe set and click record.
    truncation:
        Photon-number cutoff of the reconstruction; must satisfy the probe
        matrix adequacy check.
    smoothing_weight:
        Weight w of the neighboring-element penalty; finite and >= 0.
        Defaults to ``default_smoothing_weight(probes)``.

    Raises
    ------
    ValueError
        If the P x N probe matrix would exceed ``MAX_DENSE_BYTES``.
    ConvergenceError
        If the fallback is needed and its stacked matrix would exceed
        ``MAX_DENSE_BYTES``, or if it exhausts its iteration budget; in
        the latter case the error carries the solver result.
    """
    check_paired(probes, record)
    if smoothing_weight is None:
        smoothing_weight = default_smoothing_weight(probes)
    if not 0 <= smoothing_weight < np.inf:
        raise ValueError(
            f"smoothing weight must be finite and >= 0, got {smoothing_weight}"
        )
    size = 8 * len(probes) * truncation
    if size > MAX_DENSE_BYTES:
        raise ValueError(
            f"the {len(probes)} x {truncation} probe matrix would take "
            f"{size / 2**20:.0f} MiB, above the {MAX_DENSE_BYTES / 2**20:.0f} MiB "
            "limit; rescale the intensities (--scale-to-95) or lower the truncation"
        )

    F = build_probe_matrix(probes, truncation)
    weight = max(smoothing_weight, _TIE_BREAK_WEIGHT)
    click = _active_set_minimizer(F, record.frequencies, weight)
    if click is None:
        click = _bounded_least_squares(F, record.frequencies, weight)
    return DiagonalPovm(click=click, truncation=truncation)


def _active_set_minimizer(
    F: np.ndarray, frequencies: np.ndarray, weight: float
) -> np.ndarray | None:
    """Box minimizer by primal-dual active-set steps, or None if they fail.

    ``state`` marks each element as held at 0 (-1), held at 1 (+1) or free
    (0). Each step minimizes over the free elements in closed form, then
    holds every free element outside [0, 1] at the bound it crossed and
    frees every held element that ``_kkt_breach`` flags, i.e. whose
    gradient points into the box (and more along a walking run, see the
    loop). The first step holds nothing, so a minimizer inside the box is
    returned after one step. The loop ends when a step changes nothing.
    If every breach is then within ``_KKT_TOLERANCE``, the first-order
    conditions certify the result as the optimum; otherwise, or after
    ``_ACTIVE_SET_STEPS`` steps (one at the tie-break weight), it returns
    None.
    """
    size = F.shape[1]
    state = np.zeros(size, dtype=np.int8)
    freed = np.zeros(size, dtype=bool)
    reach, extend, visited = 1, True, set()
    for _ in range(1 if weight <= _TIE_BREAK_WEIGHT else _ACTIVE_SET_STEPS):
        x = _free_minimizer(F, frequencies, weight, state)
        free = state == 0
        below, above = free & (x < 0.0), free & (x > 1.0)
        breach = _kkt_breach(x, _objective_gradient(F, frequencies, weight, x))
        released = (state != 0) & (breach > _KKT_TOLERANCE)
        if not (below.any() or above.any() or released.any()):
            return x if breach.max(initial=0.0) <= _KKT_TOLERANCE else None
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
    return None


def _free_minimizer(
    F: np.ndarray, frequencies: np.ndarray, weight: float, state: np.ndarray
) -> np.ndarray:
    """Minimizer of ``||F x - C||^2 + w ||D x||^2`` with the held elements fixed.

    Elements with ``state < 0`` are held at 0 and those with ``state > 0``
    at 1; the free elements z are unconstrained. On z the smoothing term is
    ``w ||R z - r0||^2`` up to a constant, where R is the upper-bidiagonal
    Cholesky factor of the free block of D^T D (positive definite, since
    every run of free elements borders a held one) and
    ``R^T r0 = -(D^T D x_held)[free]``. With ``u = R z`` the data term is
    ``||M u - t||^2`` for ``M = F_free R^-1`` and ``t = C - F x_held``, so
    u solves the ridge regression ``min ||M u - t||^2 + w ||u - r0||^2``
    by one thin SVD of the P x n matrix M: O(N P^2) instead of a dense
    solve of the (P + N - 1) x N stacked system. The map from C to the
    free elements is linear, ``z = R^-1 (r0 + V diag(s / (s^2 + w)) U^T
    (C - F x_held - M r0))`` for ``M = U diag(s) V^T``.

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
    # Upper band storage of the free block of D^T D: 2 on the diagonal
    # (1 at the two ends of the range), -1 between adjacent elements.
    block = np.zeros((2, index.size))
    block[1] = 2.0 - (index == 0) - (index == state.size - 1)
    block[0, 1:] = np.where(np.diff(index) == 1, -1.0, 0.0)
    factor = cholesky_banded(block, check_finite=False)
    shift = dtbtrs(factor, -_roughness_gradient(x)[index, None], trans="T")[0][:, 0]
    columns = dtbtrs(factor, F[:, index].T, trans="T")[0].T
    target = frequencies - F @ x - columns @ shift
    if intercept:
        f = F.sum(axis=1)
        q = f / np.linalg.norm(f)
        columns -= np.outer(q, q @ columns)
        target -= q * (q @ target)
    left, s, right = np.linalg.svd(columns, full_matrices=False)
    u = shift + right.T @ (s / (s * s + weight) * (left.T @ target))
    x[index] = dtbtrs(factor, u[:, None])[0][:, 0]
    if intercept:
        x += f @ (frequencies - F @ x) / (f @ f)
    return x


def _roughness_gradient(x: np.ndarray) -> np.ndarray:
    """``D^T D x`` for the first difference D, without forming D."""
    steps = np.diff(x)
    gradient = np.zeros_like(x)
    gradient[:-1] -= steps
    gradient[1:] += steps
    return gradient


def _objective_gradient(
    F: np.ndarray, frequencies: np.ndarray, weight: float, x: np.ndarray
) -> np.ndarray:
    """Gradient ``2 (F^T (F x - C) + w D^T D x)`` of the reconstruction objective."""
    return 2.0 * (F.T @ (F @ x - frequencies) + weight * _roughness_gradient(x))


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
    F: np.ndarray, frequencies: np.ndarray, weight: float
) -> np.ndarray:
    """Box minimizer by scipy's BVLS on the dense stacked problem."""
    probes, truncation = F.shape
    size = 8 * (probes + truncation - 1) * truncation
    if size > MAX_DENSE_BYTES:
        raise ConvergenceError(
            "the active-set steps certified no minimizer, and the "
            f"bounded-variable fallback would need a {size / 2**20:.0f} MiB "
            f"stacked matrix, above the {MAX_DENSE_BYTES / 2**20:.0f} MiB limit"
        )
    # [F; sqrt(w) D] is filled in place: at raw-data truncations (N in the
    # thousands) every extra dense N x N temporary costs tens of MB.
    root_weight = np.sqrt(weight)
    rows = probes + np.arange(truncation - 1)
    cols = np.arange(truncation - 1)
    stacked = np.zeros((probes + truncation - 1, truncation))
    stacked[:probes] = F
    stacked[rows, cols] = -root_weight
    stacked[rows, cols + 1] = root_weight
    rhs = np.concatenate([frequencies, np.zeros(truncation - 1)])

    result = lsq_linear(
        stacked,
        rhs,
        bounds=(0.0, 1.0),
        method="bvls",
        tol=_BVLS_TOL,
        max_iter=_BVLS_ITERATIONS_PER_UNKNOWN * truncation,
    )
    if result.status == 0:
        raise ConvergenceError(
            f"POVM reconstruction stopped after {result.nit} iterations "
            f"with optimality {result.optimality:.3g}",
            result=result,
        )
    return result.x


def _crossing_intensity(
    intensities: np.ndarray, frequencies: np.ndarray, target: float
) -> float:
    """Intensity at which the measured click curve first reaches target.

    Interpolates the positive-intensity points with a monotone piecewise
    cubic (PCHIP) on the log-intensity axis and returns its first crossing
    of the target. PCHIP does not overshoot its data, so that crossing lies
    in the first interval whose right end reaches the target.
    """
    positive = intensities > 0
    x = intensities[positive]
    y = frequencies[positive]
    if x.size < 2:
        raise TargetUnreachableError("too few nonvacuum probes to interpolate")
    above = np.nonzero(y >= target)[0]
    if above.size == 0:
        raise TargetUnreachableError(
            f"measured click probability never reaches {target:g} "
            f"(max {y.max():g})"
        )
    if above[0] == 0:
        raise TargetUnreachableError(
            f"click probability already exceeds {target:g} at the smallest "
            "nonvacuum probe; no crossing can be bracketed"
        )
    roots = PchipInterpolator(np.log(x), y).solve(target, extrapolate=False)
    return float(np.exp(roots[0]))


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

    Returns
    -------
    (k, povm):
        The scale factor and the POVM reconstructed against the rescaled
        intensities, truncated just past the rescaled range.

    Raises
    ------
    TargetUnreachableError
        If the measured click probabilities never bracket the target.
    """
    check_paired(probes, record)
    mu_star = _crossing_intensity(
        probes.intensities, record.frequencies, _SCALED_TARGET_CLICK
    )
    k = SCALED_TARGET_MEAN / mu_star
    scaled_probes = probes.scaled_by(k)
    truncation = truncation_for(float(scaled_probes.intensities.max()))
    povm = reconstruct_povm(scaled_probes, record, truncation, smoothing_weight)
    return k, povm


def fidelity(a: DiagonalPovm, b: DiagonalPovm) -> float:
    """Bhattacharyya overlap of two click vectors normalized to unit sum.

    The shorter vector is padded with its trailing value so both cover the
    same photon-number range; each is then normalized to unit sum and the
    squared Bhattacharyya coefficient ``(sum_m sqrt(a~ b~))^2`` returned.
    Identical vectors (up to overall scale) give 1; disjoint supports give
    0. An identically zero operand has no normalization, so it raises
    ``UndefinedFidelityError``.
    """
    length = max(a.truncation, b.truncation)
    va, vb = a.padded(length), b.padded(length)
    sa, sb = va.sum(), vb.sum()
    if sa == 0.0 or sb == 0.0:
        raise UndefinedFidelityError("fidelity is undefined for an all-zero click vector")
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
    trial count must be constant across rows.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty click-data file") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise DataFormatError(
                f"{path}: expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        intensities, trials, clicks = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataFormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            try:
                intensities.append(float(row[0]))
                trials.append(int(row[1]))
                clicks.append(int(row[2]))
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from err
    if not trials:
        raise DataFormatError(f"{path}: no data rows")
    if len(set(trials)) != 1:
        raise DataFormatError(f"{path}: trials must be constant across rows")
    probes = ProbeSet(intensities=np.array(intensities), trials=trials[0])
    record = ClickRecord(clicks=np.array(clicks), trials=trials[0])
    return probes, record
