"""Mechanism-model fits to coherent-state click statistics.

The composite detector model assigns each breakdown order n an efficiency
``P_n``; a Fock state of m photons survives unclicked with probability
``prod_n (1 - P_n)^C(m, n)``. In terms of ``h[n] = ln(1 - P_n)`` the
predicted click probabilities for a probe set are::

    model = F (E - exp(G h)),    G[m, n] = C(m, n),  h <= 0

with F the Poisson probe matrix (normalized rows over each probe's
photon-number window) and E the all-ones vector. The fit
minimizes the squared norm of the click-weighted residual
``(C - model) / C`` over the cone h <= 0, which is a convex program: the
map h -> exp(Gh) is convex (nonnegative combination inside exp) so each
residual C_i - model_i is convex, nonnegative combinations under the norm
stay convex, and the constraint set is a half-space product.

``prune_mechanisms`` then discards orders whose removal barely moves the
optimum, and ``loss_scaling_analysis`` checks the fitted efficiencies
against the loss law P_n -> eta^n P_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares
from scipy.sparse import csr_array

from . import numerics
from .exceptions import ConvergenceError, DataFormatError, DegenerateDataError
from .numerics import binomial_table, log_survival_sum
from .povm import (
    NonlinearSpdParams,
    _check_carries,
    _poisson_rows,
    _whole_number,
    truncation_for,
)
from .tomography import ClickRecord, ProbeSet, check_paired

__all__ = [
    "FitReport",
    "MechanismLogVector",
    "ScalingLawFit",
    "fit_objective",
    "fit_params",
    "loss_scaling_analysis",
    "prune_mechanisms",
]

_H_FUZZ = 1e-12
_FIT_MAX_EVALUATIONS = 100_000

# Termination tolerances (ftol, xtol, gtol) of the trust-region reflective
# least-squares solve.
_TRF_TOL = 1e-15

# Warm-start value for mechanisms with no dedicated estimate: barely inside
# the box, so the solver starts strictly feasible and can move either way.
_NEAR_ZERO_H = -1e-6

# Lower bound of the solver's box. A saturated mechanism (p = 1)
# corresponds to h = -inf, which no finite point reaches; without a
# bound the solver can descend a flat ray forever. At h = -60 the
# efficiency -expm1(-60) rounds to exactly 1.0 in double precision, so
# the bound is invisible in the reported parameters while keeping the
# box compact enough that the optimum is attained on its boundary.
_H_FLOOR = -60.0


@dataclass(frozen=True)
class MechanismLogVector:
    """Log-survival parameters h[n] = ln(1 - P_n) with their design matrix.

    Feasibility (h <= 0) is validated on construction; -inf entries encode
    saturated mechanisms with P_n = 1.
    """

    h: np.ndarray
    binomial_design: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 1:
            raise ValueError("h must be a nonempty vector")
        if np.any(np.isnan(h)) or np.any(h > _H_FUZZ):
            raise ValueError("h must satisfy h[n] <= 0 for every mechanism")
        h = np.minimum(h, 0.0)
        design = np.asarray(self.binomial_design, dtype=float)
        if design.ndim != 2 or design.shape[1] != h.size:
            raise ValueError(
                f"design matrix shape {design.shape} does not match {h.size} mechanisms"
            )
        if not np.all(design[:, 0] == 1.0):
            raise ValueError("design matrix column 0 must be all ones (C(m, 0) = 1)")
        h.setflags(write=False)
        design.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "binomial_design", design)

    @classmethod
    def at_truncation(cls, h: np.ndarray, truncation: int) -> "MechanismLogVector":
        """Build the design matrix for the given truncation automatically."""
        h = np.asarray(h, dtype=float)
        return cls(h=h, binomial_design=numerics.design_matrix(truncation, h.size))

    @property
    def params(self) -> NonlinearSpdParams:
        # + 0.0 turns the -0.0 produced at h = 0 into a plain zero.
        return NonlinearSpdParams(p=-np.expm1(self.h) + 0.0)


@dataclass(frozen=True)
class FitReport:
    """Result of a mechanism-model fit.

    ``objective`` is the squared norm of the normalized residual over the
    included probes; ``per_probe_residuals`` holds each probe's squared
    contribution, with excluded (zero-click) probes reported as 0. ``h``
    carries the raw log-survival vector for warm starts and refits.
    """

    params: NonlinearSpdParams
    kept_orders: tuple
    objective: float
    per_probe_residuals: np.ndarray
    h: np.ndarray = field(repr=False)
    degenerate_pruning: bool = False

    def __post_init__(self):
        residuals = np.asarray(self.per_probe_residuals, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if h.size != self.params.order:
            raise ValueError("h length does not match the number of mechanisms")
        kept = tuple(sorted(_whole_number(n, "kept order") for n in self.kept_orders))
        if any(n < 0 or n >= self.params.order for n in kept):
            raise ValueError(f"kept orders {kept} outside 0..{self.params.order - 1}")
        if self.objective < 0 or residuals.size < 1 or residuals.min() < 0:
            raise ValueError("objective and residuals must be nonnegative")
        residuals.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "per_probe_residuals", residuals)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "kept_orders", kept)
        object.__setattr__(self, "objective", float(self.objective))

    def to_dict(self) -> dict:
        """JSON-ready document with keys p, kept_orders, objective, per_probe_residuals."""
        return {
            "p": [float(v) for v in self.params.p],
            "kept_orders": [int(n) for n in self.kept_orders],
            "objective": float(self.objective),
            "per_probe_residuals": [float(r) for r in self.per_probe_residuals],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FitReport":
        try:
            params = NonlinearSpdParams(p=np.asarray(document["p"], dtype=float))
            kept = tuple(document["kept_orders"])
            objective = float(document["objective"])
            residuals = np.asarray(document["per_probe_residuals"], dtype=float)
        except (KeyError, TypeError) as err:
            raise DataFormatError(f"malformed fit report: {err}") from err
        with np.errstate(divide="ignore"):
            h = np.log1p(-params.p)
        return cls(
            params=params,
            kept_orders=kept,
            objective=objective,
            per_probe_residuals=residuals,
            h=h,
        )


@dataclass(frozen=True)
class _FitData:
    """Windowed probe matrix, design and frequencies of the included probes.

    ``probe_matrix`` (CSR) holds the normalized Poisson weights of each
    included probe over its photon-number window (``povm._poisson_rows``),
    and ``design`` the binomial table C(m, n) at the union of those windows
    only, which the matrix's columns index; no probe row or design row
    spans the full truncation.
    """

    probe_matrix: csr_array
    frequencies: np.ndarray
    design: np.ndarray
    included: np.ndarray


def _fit_data(
    probes: ProbeSet, record: ClickRecord, order: int, design: np.ndarray | None = None
) -> _FitData:
    """Fit data of ``order`` mechanisms.

    The truncation is ``truncation_for`` the largest intensity, or the
    number of rows of ``design`` (the design C(m, n) at m = 0..N-1) when
    one is given; the design at the windows' photon numbers is then read
    from it instead of built.

    Raises ``TruncationError`` when ``design`` has fewer rows than the
    largest probe needs, since its windows would then end inside the
    Poisson mass and the normalized rows would bias the fit.
    """
    check_paired(probes, record)
    frequencies = record.frequencies
    included = frequencies > 0
    if not np.any(included):
        raise DegenerateDataError(
            "every probe recorded zero clicks; the normalized objective is undefined"
        )
    mu_max = float(probes.intensities.max())
    if design is None:
        truncation = truncation_for(mu_max)
    else:
        truncation = design.shape[0]
        _check_carries(truncation, mu_max, "design truncation")
    m_values, probe_matrix = _poisson_rows(probes.intensities[included], truncation).union()
    return _FitData(
        probe_matrix=probe_matrix,
        frequencies=frequencies[included],
        design=binomial_table(m_values, order) if design is None else design[m_values],
        included=included,
    )


def _residual(data: _FitData, h: np.ndarray) -> np.ndarray:
    """Normalized residual (C - F (1 - exp(G h))) / C over the included probes.

    ``-expm1`` keeps every click probability 1 - exp(G h) to full relative
    precision, so weak probes (click probabilities near the dark-count
    floor) add no rounding noise to the objective.
    """
    model = data.probe_matrix @ -np.expm1(log_survival_sum(data.design, h))
    return (data.frequencies - model) / data.frequencies


def _jacobian(data: _FitData, h: np.ndarray) -> np.ndarray:
    """Jacobian of ``_residual`` in h: F diag(exp(G h)) G / C."""
    survival = np.exp(log_survival_sum(data.design, h))
    return data.probe_matrix @ (survival[:, None] * data.design) / data.frequencies[:, None]


def _objective_value(data: _FitData, h: np.ndarray) -> float:
    r = _residual(data, h)
    return float(r @ r)


def fit_objective(
    h: MechanismLogVector,
    probes: ProbeSet,
    record: ClickRecord,
) -> float:
    """Squared norm of the normalized residual at the given parameters.

    The truncation is that of ``h.binomial_design``; each probe sums over
    its Poisson window below it, as ``fit_params`` does. Probes with zero
    recorded clicks are excluded (their normalized residual is undefined);
    if every probe is excluded the data cannot score any parameter vector
    and ``DegenerateDataError`` is raised. A design with fewer rows than
    ``truncation_for`` the largest intensity raises ``TruncationError``.
    """
    data = _fit_data(probes, record, h.h.size, h.binomial_design)
    return _objective_value(data, h.h)


def _initial_h(data: _FitData, intensities: np.ndarray, order: int) -> np.ndarray:
    """Warm start: single-point estimate of P_1, near-zero elsewhere.

    For a purely linear detector the click probability is
    1 - exp(-P_1 mu), so the probe whose frequency lies nearest 0.1 gives
    P_1 ~ -ln(1 - C)/mu. Starting near the dominant linear response keeps
    the early iterates where the model underpredicts the data, the region
    where the norm objective is provably convex.
    """
    h0 = np.full(order, _NEAR_ZERO_H)
    if order < 2:
        return h0
    mu = intensities[data.included]
    C = data.frequencies
    usable = (mu > 0) & (C < 1)
    if not np.any(usable):
        return h0
    idx = np.flatnonzero(usable)[np.argmin(np.abs(C[usable] - 0.1))]
    p1 = min(-np.log1p(-C[idx]) / mu[idx], 1.0 - 1e-9)
    h0[1] = np.log1p(-p1)
    return h0


def _solve(data: _FitData, h0: np.ndarray, pinned: np.ndarray):
    """Bound-constrained least-squares fit of the free orders.

    Orders flagged in ``pinned`` are held at h[n] = 0 exactly; the rest
    live in the box [_H_FLOOR, 0] and are solved by scipy's trust-region
    reflective method with the analytic Jacobian. The Jacobian columns
    span many orders of magnitude (column n scales like the C(m, n)
    moments, and collapses as its mechanism saturates), so the variables
    are rescaled by the running column norms (``x_scale="jac"``).

    Returns the solution and whether the solver met its tolerances within
    ``_FIT_MAX_EVALUATIONS`` residual evaluations.
    """
    free = ~pinned

    def expand(z: np.ndarray) -> np.ndarray:
        h = np.zeros(pinned.size)
        h[free] = z
        return h

    if not np.any(free):
        return expand(()), True
    result = least_squares(
        lambda z: _residual(data, expand(z)),
        np.clip(h0[free], _H_FLOOR, 0.0),
        jac=lambda z: _jacobian(data, expand(z))[:, free],
        bounds=(_H_FLOOR, 0.0),
        method="trf",
        x_scale="jac",
        ftol=_TRF_TOL,
        xtol=_TRF_TOL,
        gtol=_TRF_TOL,
        max_nfev=_FIT_MAX_EVALUATIONS,
    )
    return expand(result.x), result.status != 0


def _build_report(
    data: _FitData, h: np.ndarray, kept_orders, degenerate: bool = False
) -> FitReport:
    r = _residual(data, h)
    per_probe = np.zeros(data.included.size)
    per_probe[data.included] = r * r
    return FitReport(
        params=NonlinearSpdParams(p=-np.expm1(h) + 0.0),
        kept_orders=tuple(kept_orders),
        objective=float(r @ r),
        per_probe_residuals=per_probe,
        h=h,
        degenerate_pruning=degenerate,
    )


def fit_params(
    probes: ProbeSet,
    record: ClickRecord,
    max_order: int = 6,
) -> FitReport:
    """Fit mechanism efficiencies P_0..P_{max_order-1} to click data.

    Minimizes ``fit_objective`` over the box -60 <= h <= 0 with scipy's
    trust-region reflective least-squares solver on the normalized
    residual and its analytic Jacobian. The lower bound stands in for
    saturation (P_n = 1 to double precision). Each residual is convex in
    h and the residual norm is convex wherever the model underpredicts
    the data; the warm start is deterministic, so repeated fits agree
    bitwise.

    The truncation is ``truncation_for`` the largest intensity, but each
    probe is summed over its own Poisson window below it (a CSR row of
    about 15 sqrt(mu) photon numbers, 1e-16 of the mass cut on each
    side), and the survival is evaluated on the union of the windows only.
    No P x N probe matrix or N x order design is built, so raw records
    with probes up to mu = 1e9 fit in bounded time and memory.

    Parameters
    ----------
    max_order:
        Number of mechanisms M; orders n = 0..M-1 are fitted.

    Raises
    ------
    DegenerateDataError
        If no probe recorded any click.
    ConvergenceError
        If the budget of 100,000 residual evaluations runs out first; the
        error carries the best-so-far ``FitReport`` as its ``result``.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    data = _fit_data(probes, record, max_order)
    h0 = _initial_h(data, probes.intensities, max_order)
    h, converged = _solve(data, h0, np.zeros(max_order, dtype=bool))
    report = _build_report(data, h, range(max_order))
    if not converged:
        raise ConvergenceError(
            f"mechanism fit used its {_FIT_MAX_EVALUATIONS} residual evaluations "
            "before meeting its tolerances",
            result=report,
        )
    return report


def prune_mechanisms(
    report: FitReport,
    probes: ProbeSet,
    record: ClickRecord,
    threshold: float = 0.01,
) -> FitReport:
    """Drop mechanisms whose removal barely changes the fit optimum.

    For each kept order n (ascending), the model is refitted with P_n
    pinned to 0; if the minimized residual norm (the square root of the
    objective) grows by a relative factor of at most ``threshold``, the
    order is marked droppable. Decisions all compare against the full
    report's optimum; a single final refit over the surviving orders
    produces the returned report.

    A trial refit is skipped when its start already passes the test. The
    start, the full report's h (clipped to the box) with h[n] = 0, is a
    feasible point of the pinned problem, so the minimized objective is no
    higher than the objective there. The test only asks the norm to stay
    below a bound, so it passes at the minimum too: the skip is exact and
    changes no decision.

    If every order is droppable (e.g. ``threshold = inf``), the single
    order whose sole-mechanism fit scores best is retained and the report
    is flagged ``degenerate_pruning``.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    order = report.params.order
    data = _fit_data(probes, record, order)

    always_pinned = np.ones(order, dtype=bool)
    for n in report.kept_orders:
        always_pinned[n] = False
    base_norm = np.sqrt(report.objective)

    def refit(pinned: np.ndarray):
        h, converged = _solve(data, report.h, pinned)
        if not converged:
            raise ConvergenceError(
                f"pruning refit used its {_FIT_MAX_EVALUATIONS} residual "
                "evaluations before meeting its tolerances",
                result=_build_report(data, h, np.flatnonzero(~pinned)),
            )
        return h, _objective_value(data, h)

    def droppable(objective: float) -> bool:
        trial_norm = np.sqrt(objective)
        if base_norm > 0:
            return (trial_norm - base_norm) / base_norm <= threshold
        return trial_norm <= 1e-12

    dropped = set()
    for n in report.kept_orders:
        pinned = always_pinned.copy()
        pinned[n] = True
        start = np.where(pinned, 0.0, np.clip(report.h, _H_FLOOR, 0.0))
        if droppable(_objective_value(data, start)) or droppable(refit(pinned)[1]):
            dropped.add(n)

    kept = [n for n in report.kept_orders if n not in dropped]
    degenerate = False
    if not kept:
        # Nothing survives the criterion; keep the best single mechanism so
        # the report still describes a detector.
        best_n, best_objective = None, np.inf
        for n in report.kept_orders:
            pinned = np.ones(order, dtype=bool)
            pinned[n] = False
            _, objective = refit(pinned)
            if objective < best_objective:
                best_n, best_objective = n, objective
        kept = [best_n]
        degenerate = True

    final_pinned = np.ones(order, dtype=bool)
    final_pinned[kept] = False
    h, _ = refit(final_pinned)
    return _build_report(data, h, kept, degenerate=degenerate)


@dataclass(frozen=True)
class ScalingLawFit:
    """Per-order power-law estimates of efficiencies versus transmissivity.

    ``slopes[n]`` is the least-squares slope of ln P_n against ln eta.
    Orders with P_n = 0 at any transmissivity have no logarithm and are
    listed in ``excluded_orders`` instead.
    """

    slopes: dict
    excluded_orders: tuple


def loss_scaling_analysis(params_by_eta) -> ScalingLawFit:
    """Estimate how each mechanism efficiency scales with optical loss.

    A transmissivity-eta loss channel sends P_n to eta^n P_n, so on log
    axes each order should trace a line of slope n. Input is a sequence of
    ``(eta, NonlinearSpdParams)`` pairs with a common mechanism count; at
    least three distinct transmissivities are required for a meaningful
    slope.
    """
    pairs = [(float(eta), params) for eta, params in params_by_eta]
    if len({eta for eta, _ in pairs}) < 3:
        raise ValueError("at least three distinct transmissivities are required")
    for eta, _ in pairs:
        if not 0 < eta <= 1:
            raise ValueError(f"transmissivity must lie in (0, 1], got {eta}")
    orders = {params.order for _, params in pairs}
    if len(orders) != 1:
        raise ValueError(f"parameter sets disagree on mechanism count: {sorted(orders)}")
    (order,) = orders

    log_eta = np.log([eta for eta, _ in pairs])
    slopes, excluded = {}, []
    for n in range(order):
        p_n = np.array([params.p[n] for _, params in pairs])
        if np.any(p_n == 0):
            excluded.append(n)
            continue
        slopes[n] = float(np.polyfit(log_eta, np.log(p_n), 1)[0])
    return ScalingLawFit(slopes=slopes, excluded_orders=tuple(excluded))
