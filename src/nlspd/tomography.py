"""Detector tomography from coherent-state click statistics.

A set of coherent probes with known mean photon numbers drives the
detector; the measured click frequencies ``C_i`` relate to the diagonal
POVM through the Poisson probe matrix ``F``::

    C = F @ click,   F[i, m] = e^-mu_i mu_i^m / m!

``reconstruct_povm`` inverts this linear model as a box-constrained
quadratic program with an optional smoothing penalty on neighboring POVM
elements, solved in closed form when the box is not active.
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
from scipy.optimize import brentq, lsq_linear

from .exceptions import (
    ConvergenceError,
    DataFormatError,
    TargetUnreachableError,
    TruncationError,
    UndefinedFidelityError,
)
from .povm import DiagonalPovm, truncation_for
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

# Mean photon number at which the rescaled detector hits its target click
# probability.
SCALED_TARGET_MEAN = 30.0

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
        if self.trials < 1:
            raise ValueError(f"trials per probe must be >= 1, got {self.trials}")
        intensities.setflags(write=False)
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "trials", int(self.trials))

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
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if clicks.min() < 0 or clicks.max() > self.trials:
            raise ValueError("click counts must lie in [0, trials]")
        clicks.setflags(write=False)
        object.__setattr__(self, "clicks", clicks)
        object.__setattr__(self, "trials", int(self.trials))

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
    needed = truncation_for(float(probes.intensities.max()))
    if truncation < needed:
        raise TruncationError(
            f"truncation {truncation} too small for max intensity "
            f"{probes.intensities.max():g} (needs >= {needed})"
        )
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

    1. The minimizer without the box, in closed form (``_interior_minimizer``,
       O(N P^2) for N unknowns and P probes). If it lies in [0, 1] it is
       the box minimizer too, and it is returned.
    2. Otherwise the box binds, and scipy's bounded-variable least squares
       solves the stacked problem ``[F; sqrt(w) D] x = [C; 0]`` (D the
       first difference) to its tolerance.

    A weight below 1e-10 (in particular w = 0) is raised to 1e-10 on both
    paths: with more unknowns than probes the unsmoothed problem has a
    flat set of minimizers, and the tiny weight picks the one of least
    roughness.

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
    ConvergenceError
        If the bounded solver exhausts its iteration budget; the error
        carries the solver result for inspection.
    """
    check_paired(probes, record)
    if smoothing_weight is None:
        smoothing_weight = default_smoothing_weight(probes)
    if not 0 <= smoothing_weight < np.inf:
        raise ValueError(
            f"smoothing weight must be finite and >= 0, got {smoothing_weight}"
        )

    F = build_probe_matrix(probes, truncation)
    weight = max(smoothing_weight, _TIE_BREAK_WEIGHT)
    interior = _interior_minimizer(F, record.frequencies, weight)
    # The same in-bounds rule lsq_linear applies to its unconstrained start.
    if np.all((interior >= 0.0) & (interior <= 1.0)):
        return DiagonalPovm(click=interior, truncation=truncation)

    # [F; sqrt(w) D] is filled in place: at raw-data truncations (N in the
    # thousands) every extra dense N x N temporary costs tens of MB.
    root_weight = np.sqrt(weight)
    rows = len(probes) + np.arange(truncation - 1)
    cols = np.arange(truncation - 1)
    stacked = np.zeros((len(probes) + truncation - 1, truncation))
    stacked[: len(probes)] = F
    stacked[rows, cols] = -root_weight
    stacked[rows, cols + 1] = root_weight
    rhs = np.concatenate([record.frequencies, np.zeros(truncation - 1)])

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
    return DiagonalPovm(click=result.x, truncation=truncation)


def _interior_minimizer(F: np.ndarray, frequencies: np.ndarray, weight: float) -> np.ndarray:
    """Minimizer of ``||F x - C||^2 + w ||D x||^2`` over all x, no box.

    Change variables to the first element and the steps, ``x0 = x[0]`` and
    ``y = D x``, so that ``x = x0 * 1 + S y`` with S the cumulative sum
    (``x[m] = x0 + sum_{j<m} y[j]``). Then ``F x = x0 f + B y`` with
    ``f = F 1`` and ``B = F S``, ``B[i, j] = sum_{m>j} F[i, m]`` (reversed
    cumulative sums of F's rows), and the problem becomes ridge regression
    in y with an unpenalized intercept::

        min ||x0 f + B y - C||^2 + w ||y||^2

    For any y the best intercept is ``x0 = f.(C - B y) / f.f``; putting it
    back projects f out of the data, leaving ridge regression on
    ``B~ = P B`` and ``C~ = P C`` with ``P = I - q q^T``, ``q = f / |f|``.
    With the thin SVD ``B~ = U diag(s) V^T`` its solution is
    ``y = V diag(s / (s^2 + w)) U^T C~``. Everything is P x N, so the cost
    is one SVD, O(N P^2), instead of a dense solve of the (P + N - 1) x N
    stacked system.
    """
    # B[:, j] = sum_{m > j} F[:, m], summed from the small tail upwards.
    tail_sums = np.cumsum(F[:, :0:-1], axis=1)[:, ::-1]
    f = F.sum(axis=1)
    q = f / np.linalg.norm(f)
    u, s, vt = np.linalg.svd(
        tail_sums - np.outer(q, q @ tail_sums), full_matrices=False
    )
    centered = frequencies - q * (q @ frequencies)
    steps = vt.T @ (s / (s * s + weight) * (u.T @ centered))
    first = f @ (frequencies - tail_sums @ steps) / (f @ f)
    return first + np.concatenate([[0.0], np.cumsum(steps)])


def _crossing_intensity(
    intensities: np.ndarray, frequencies: np.ndarray, target: float
) -> float:
    """Intensity at which the measured click curve first reaches target.

    Interpolates the positive-intensity points with a monotone piecewise
    cubic on the log-intensity axis and root-finds inside the first
    bracketing interval.
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
    j = int(above[0])
    if j == 0:
        raise TargetUnreachableError(
            f"click probability already exceeds {target:g} at the smallest "
            "nonvacuum probe; no crossing can be bracketed"
        )
    interpolant = PchipInterpolator(np.log(x), y)
    log_root = brentq(
        lambda lx: float(interpolant(lx)) - target,
        np.log(x[j - 1]),
        np.log(x[j]),
        xtol=1e-14,
    )
    return float(np.exp(log_root))


def scaled_fit_workflow(
    probes: ProbeSet,
    record: ClickRecord,
    target_click_at_30: float = 0.95,
    *,
    smoothing_weight: float | None = None,
) -> tuple[float, DiagonalPovm]:
    """Rescale the probe intensities and reconstruct the effective POVM.

    For very inefficient detectors the click curve saturates only at
    enormous mean photon numbers, making a direct reconstruction
    intractable. Multiplying every intensity by a factor k < 1 describes
    the same data as a more efficient detector on a small photon-number
    range. k is fixed by the saturation condition: if ``mu*`` is the
    intensity where the measured click probability reaches
    ``target_click_at_30``, then ``k = 30 / mu*``, so the rescaled
    detector clicks with that probability at mean photon number 30.

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
    if not 0 < target_click_at_30 < 1:
        raise ValueError(
            f"target click probability must lie in (0, 1), got {target_click_at_30}"
        )
    mu_star = _crossing_intensity(
        probes.intensities, record.frequencies, target_click_at_30
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
