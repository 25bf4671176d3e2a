"""Mechanism-model fits to coherent-state click statistics.

The composite detector model assigns each breakdown order n an efficiency
``P_n``; a Fock state of m photons survives unclicked with probability
``prod_n (1 - P_n)^C(m, n)``. In terms of ``h[n] = ln(1 - P_n)`` the
predicted click probabilities for a probe set are::

    model = F (E - exp(G h)),    G[m, n] = C(m, n),  h <= 0

with F the Poisson probe matrix (normalized rows over each probe's
photon-number window) and E the all-ones vector. The fit
minimizes the squared norm of the click-weighted residual
``(C - model) / C`` over the box -60 <= h <= 0. Each residual is convex
in h, since h -> exp(Gh) is, so the norm is convex wherever every
residual is nonnegative, i.e. where the model underpredicts the data.
Elsewhere it need not be: its Hessian is indefinite at some fits of the
reference records. A projected Newton loop on the exact Hessian, with a
Gauss-Newton fallback, solves it.

``prune_mechanisms`` then discards orders whose removal barely moves the
optimum, and ``loss_scaling_analysis`` checks the fitted efficiencies
against the loss law P_n -> eta^n P_n. The module needs numpy alone: F
is kept as its rows' terms, and F q, the Jacobian and the Hessian are
sums over those terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, DegenerateDataError
from .numerics import _binomial_table, _freeze, _transmissivity, _values_equal, _whole_number
from .povm import NonlinearSpdParams, _check_carries, _check_dense_size, _poisson_rows, _WindowRows
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

# Newton iterations a fit or refit may take. The fits and pruning refits
# of the 48 reference fit records take at most 13; the A6 refit at
# eta = 1 with P_2 pinned takes 41-42, walking h_3 down its saturating ray.
_FIT_MAX_ITERATIONS = 100

# The Newton loop stops once the decrement -g.d, about twice the distance
# of the objective to the local quadratic model's minimum, falls to this
# fraction of the objective: a few units of rounding.
_NEWTON_DECREMENT = 1e-15

# Sufficient-decrease fraction of the Armijo line search, and the shortest
# step it tries before it reports no decrease.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-40

# Every h[n] of a full fit's start: barely inside the box, so the solver
# starts strictly feasible and can move either way. From h = 0 the fit of
# the A6 record at eta = 0.1 stops with an absolute gradient breach of
# 1.07e-5, against 7.9e-12 from here.
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
    """Log-survival parameters h[n] = ln(1 - P_n) at a truncation N.

    Feasibility (h <= 0) is validated on construction; -inf entries encode
    saturated mechanisms with P_n = 1. ``truncation`` is the number N of
    photon numbers 0..N-1 the parameters are read at, a whole number >= 1;
    no design is built from it.
    """

    h: np.ndarray
    truncation: int

    __eq__ = _values_equal

    def __post_init__(self):
        truncation = _whole_number(self.truncation, "truncation")
        h = np.asarray(self.h, dtype=float)
        if h.ndim != 1 or h.size < 1:
            raise ValueError("h must be a nonempty vector")
        if np.any(np.isnan(h)) or np.any(h > _H_FUZZ):
            raise ValueError("h must satisfy h[n] <= 0 for every mechanism")
        _freeze(self, h=np.minimum(h, 0.0), truncation=truncation)

    @classmethod
    def at_truncation(cls, h: np.ndarray, truncation: int) -> "MechanismLogVector":
        """The parameters h at the given truncation, a whole number >= 1."""
        return cls(h=h, truncation=truncation)


@dataclass(frozen=True)
class FitReport:
    """Result of a mechanism-model fit.

    ``objective`` is the squared norm of the normalized residual over the
    included probes; ``per_probe_residuals`` holds each probe's squared
    contribution, with excluded (zero-click) probes reported as 0. ``h``
    carries the raw log-survival vector, from which the pruning refits
    start. ``_data`` keeps the fit data the report was solved on, for
    ``prune_mechanisms`` to reuse on the same probes and record; it takes
    no part in comparison, ``repr`` or ``to_dict``, and a report built
    directly has none. A non-finite or negative objective or residual, and
    a kept order that repeats, are refused with ``ValueError``, so
    ``to_dict`` writes only JSON numbers.
    """

    params: NonlinearSpdParams
    kept_orders: tuple
    objective: float
    per_probe_residuals: np.ndarray
    h: np.ndarray = field(repr=False)
    degenerate_pruning: bool = False
    _data: _FitData | None = field(default=None, repr=False, compare=False)

    __eq__ = _values_equal

    def __post_init__(self):
        residuals = np.array(self.per_probe_residuals, dtype=float)
        h = np.array(self.h, dtype=float)
        if h.size != self.params.order:
            raise ValueError("h length does not match the number of mechanisms")
        top = self.params.order - 1
        kept = tuple(sorted(_whole_number(n, "kept order", 0, top) for n in self.kept_orders))
        if len(set(kept)) < len(kept):
            raise ValueError(f"kept orders must not repeat, got {kept}")
        # NaN fails every comparison, so it is refused with the infinities.
        finite = residuals.size >= 1 and 0 <= residuals.min() and residuals.max() < np.inf
        if not (finite and 0 <= self.objective < np.inf):
            raise ValueError("objective and residuals must be finite and nonnegative")
        objective = float(self.objective)
        _freeze(self, per_probe_residuals=residuals, h=h, kept_orders=kept, objective=objective)

    def to_dict(self) -> dict:
        """JSON-ready document with keys p, kept_orders, objective, per_probe_residuals."""
        return {
            "p": [float(v) for v in self.params.p],
            "kept_orders": [int(n) for n in self.kept_orders],
            "objective": float(self.objective),
            "per_probe_residuals": [float(r) for r in self.per_probe_residuals],
        }


@dataclass(frozen=True)
class _FitData:
    """Windowed probe rows, design and frequencies of the included probes.

    The probe matrix F is kept as its rows' terms: ``rows`` holds the
    normalized Poisson weights of each included probe over its full
    photon-number window (``povm._poisson_rows``), and ``columns`` the
    index of each term's photon number in the union of the windows.
    ``design`` is the binomial table C(m, n) at that union only, one row
    per order n, and ``weighted_design`` its (order x terms) gather at
    every term times the term's weight, from which the Jacobian sums. No
    truncation enters: no row runs from m = 0 to a cutoff, and none is cut
    short of its window. ``divisor`` is what each residual is divided by,
    the frequencies themselves; it is stored as is, since (C - q) * (1 / C)
    is not bitwise (C - q) / C. ``probes`` and ``record`` are those the
    data was built from.
    """

    rows: _WindowRows
    columns: np.ndarray
    weighted_design: np.ndarray
    frequencies: np.ndarray
    divisor: np.ndarray
    design: np.ndarray
    included: np.ndarray
    probes: ProbeSet
    record: ClickRecord


def _fit_data(probes: ProbeSet, record: ClickRecord, order: int) -> _FitData:
    """Fit data of ``order`` mechanisms.

    Each included probe is summed over its Poisson window, which drops at
    most 1e-16 of its mass on either side, as ``simulate`` and
    ``coherent_click_probability`` sum it. A weighted design whose
    (order x terms) doubles would exceed ``MAX_DENSE_BYTES`` raises
    ``ValueError``.
    """
    check_paired(probes, record)
    frequencies = record.frequencies
    included = frequencies > 0
    if not np.any(included):
        raise DegenerateDataError(
            "every probe recorded zero clicks; the normalized objective is undefined"
        )
    rows = _poisson_rows(probes.intensities[included])
    m_values, columns = np.unique(rows.m, return_inverse=True)
    _check_dense_size(8 * order * rows.m.size, f"the weighted design of {order} orders")
    design = _binomial_table(m_values, order).T
    frequencies = frequencies[included]
    return _FitData(
        rows=rows,
        columns=columns,
        weighted_design=design.take(columns, axis=1) * rows.weights,
        frequencies=frequencies,
        divisor=frequencies,
        design=design,
        included=included,
        probes=probes,
        record=record,
    )


def _residual(data: _FitData, h: np.ndarray) -> np.ndarray:
    """Normalized residual (C - F (1 - exp(G h))) / C over the included probes.

    ``-expm1`` keeps every click probability 1 - exp(G h) to full relative
    precision, so weak probes (click probabilities near the dark-count
    floor) add no rounding noise to the objective. h lies in the box
    [-60, 0], so ``G h`` is finite and a plain product.
    """
    clicks = -np.expm1(data.design.T @ h)
    model = data.rows @ clicks[data.columns]
    return (data.frequencies - model) / data.divisor


def _derivatives(data: _FitData, h: np.ndarray, r: np.ndarray):
    """Jacobian J = F diag(s) G / C of ``_residual`` and the Hessian of r . r.

    With s = exp(G h) on the window union, the Hessian is
    2 (J^T J + G^T diag(s * F^T (r / C)) G). Its second term sums each
    residual r_i times that residual's own curvature, which is positive
    semidefinite, so the Hessian can be indefinite only where some r_i < 0,
    i.e. where the model overpredicts the data. F^T (r / C) is summed
    into the union's photon numbers by ``np.bincount`` over the terms.
    """
    survival = np.exp(data.design.T @ h)
    rows = data.rows
    terms = data.weighted_design * survival[data.columns]
    jacobian = np.add.reduceat(terms, rows.starts[:-1], axis=1).T / data.divisor[:, None]
    spread = rows.weights * (r / data.divisor).repeat(np.diff(rows.starts))
    curvature = survival * np.bincount(data.columns, spread, minlength=survival.size)
    hessian = 2.0 * (jacobian.T @ jacobian + (data.design * curvature) @ data.design.T)
    return jacobian, hessian


def fit_objective(
    h: MechanismLogVector,
    probes: ProbeSet,
    record: ClickRecord,
) -> float:
    """Squared norm of the normalized residual at the given parameters.

    Each probe sums over its full Poisson window, as ``fit_params`` does,
    so at a report's h this is the report's objective at any truncation
    that carries the largest probe. Probes with zero recorded clicks are
    excluded (their normalized residual is undefined); if every probe is
    excluded the data cannot score any parameter vector and
    ``DegenerateDataError`` is raised. A truncation too small to carry the
    largest probe's Poisson mass raises ``TruncationError``.

    h is clipped into the fit's box [-60, 0] first, so a saturated
    mechanism (h = -inf) is evaluated at -60. That changes no click: where
    any order at or below -60 acts, the log survival is at most -60, and
    ``-expm1`` of it rounds to 1 exactly, as at -inf.
    """
    data = _fit_data(probes, record, h.h.size)
    _check_carries(h.truncation, float(probes.intensities.max()), "design truncation")
    r = _residual(data, np.clip(h.h, _H_FLOOR, 0.0))
    return float(r @ r)


def _newton_direction(
    hessian: np.ndarray, jacobian: np.ndarray, r: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Newton step -H^-1 g, or the Gauss-Newton step where that is no descent.

    The Hessian is indefinite at the flat start of the raw records' fits
    and at some fits. Where its Cholesky factorization fails, or the Newton
    step does not point downhill, the Gauss-Newton step takes its place:
    the least-squares solution of J d = -r, a descent direction whenever
    g = 2 J^T r is nonzero. The factorization only tests for a positive
    definite H: numpy solves with no triangular solver, so one
    ``np.linalg.solve`` on H gives the step in one call instead of two.
    """
    try:
        np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError:
        pass
    else:
        d = -np.linalg.solve(hessian, g)
        if g @ d < 0:
            return d
    return np.linalg.lstsq(jacobian, -r, rcond=None)[0]


@dataclass(frozen=True)
class _NewtonSolve:
    """Record of one ``_solve`` call.

    ``h`` is the solution, ``r`` its residual and ``objective`` r . r, the
    solve's own values, not copies; ``iterations`` counts the Newton
    iterations, the last of them the one whose stopping rule held. Only
    callers that return a ``FitReport`` build one from it
    (``_build_report``), so the pruning trials, which compare objectives,
    build none.
    """

    h: np.ndarray
    r: np.ndarray
    objective: float
    iterations: int


def _solve(data: _FitData, h0: np.ndarray, pinned: np.ndarray, what: str) -> _NewtonSolve:
    """Bound-constrained least-squares fit of the free orders.

    Orders flagged in ``pinned`` are held at h[n] = 0 exactly; the rest
    live in the box [_H_FLOOR, 0] and are solved by projected Newton on the
    exact Hessian (Bertsekas 1982). Each iteration holds the orders that
    sit on a bound their gradient pushes against and takes a Newton step
    on the others (``_newton_direction``); an Armijo search along the
    projection of that step onto the box, on residual evaluations alone,
    picks the step length. The loop stops once the Newton decrement -g.d
    is at most ``_NEWTON_DECREMENT`` of the objective, or once the line
    search finds no decrease: the objective then moves only by rounding.

    Returns the solve's ``_NewtonSolve``. Raises ``ConvergenceError`` if it
    does not stop so within ``_FIT_MAX_ITERATIONS`` Newton iterations; the
    error carries the best-so-far ``FitReport`` over the free orders, and
    ``what`` names the solve in its message.
    """
    free = ~pinned
    h = np.where(free, np.clip(h0, _H_FLOOR, 0.0), 0.0)
    r = _residual(data, h)
    f = float(r @ r)
    for iterations in range(1, _FIT_MAX_ITERATIONS + 1):
        jacobian, hessian = _derivatives(data, h, r)
        g = 2.0 * jacobian.T @ r
        held = ((h <= _H_FLOOR) & (g > 0)) | ((h >= 0.0) & (g < 0))
        move = free & ~held
        d = np.zeros_like(h)
        if np.any(move):
            d[move] = _newton_direction(
                hessian[move][:, move], jacobian[:, move], r, g[move]
            )
        if -(g @ d) <= _NEWTON_DECREMENT * f:
            return _NewtonSolve(h, r, f, iterations)
        step = 1.0
        while True:
            trial = np.clip(h + step * d, _H_FLOOR, 0.0)
            r_trial = _residual(data, trial)
            f_trial = float(r_trial @ r_trial)
            if f_trial < f and f_trial <= f + _ARMIJO * (g @ (trial - h)):
                break
            step *= 0.5
            if step < _MIN_STEP:
                return _NewtonSolve(h, r, f, iterations)
        h, r, f = trial, r_trial, f_trial
    raise ConvergenceError(
        f"{what} used its {_FIT_MAX_ITERATIONS} Newton iterations "
        "before meeting its stopping rule",
        result=_build_report(data, _NewtonSolve(h, r, f, iterations), np.flatnonzero(free)),
    )


def _build_report(
    data: _FitData, solve: _NewtonSolve, kept_orders, degenerate: bool = False
) -> FitReport:
    per_probe = np.zeros(data.included.size)
    per_probe[data.included] = solve.r * solve.r
    return FitReport(
        params=NonlinearSpdParams(p=-np.expm1(solve.h)),
        kept_orders=tuple(kept_orders),
        objective=solve.objective,
        per_probe_residuals=per_probe,
        h=solve.h,
        degenerate_pruning=degenerate,
        _data=data,
    )


def fit_params(
    probes: ProbeSet,
    record: ClickRecord,
    max_order: int = 6,
) -> FitReport:
    """Fit mechanism efficiencies P_0..P_{max_order-1} to click data.

    Minimizes ``fit_objective`` over the box -60 <= h <= 0 by projected
    Newton on the exact Hessian of the normalized residual's squared norm,
    falling back to Gauss-Newton steps where the Hessian is indefinite. The
    lower bound stands in for saturation (P_n = 1 to double precision).
    Each residual is convex in h and the residual norm is convex wherever
    the model underpredicts the data, but not everywhere, so the fit is a
    local minimum from a fixed start (every h[n] = -1e-6); repeated fits
    agree bitwise.

    No truncation enters the fit: each probe is summed over its own
    Poisson window (a row of about 17.2 sqrt(mu) + 25 terms, 1e-16 of the
    mass cut on each side), and the survival is evaluated on the union of
    the windows only. No P x N probe matrix or N x order design is built, so
    raw records with probes up to mu = 1e9 fit in bounded time and memory.

    Parameters
    ----------
    max_order:
        Number of mechanisms M; orders n = 0..M-1 are fitted.

    Raises
    ------
    ValueError
        If ``max_order`` is not a whole number >= 1; a whole float such as
        2.0 counts, a bool does not. Also if the windows' terms times
        ``max_order`` would take more than ``MAX_DENSE_BYTES`` as doubles.
    DegenerateDataError
        If no probe recorded any click.
    ConvergenceError
        If the budget of 100 Newton iterations runs out first; the error
        carries the best-so-far ``FitReport`` as its ``result``.
    """
    max_order = _whole_number(max_order, "max_order")
    data = _fit_data(probes, record, max_order)
    pinned = np.zeros(max_order, dtype=bool)
    solve = _solve(data, np.full(max_order, _NEAR_ZERO_H), pinned, "mechanism fit")
    return _build_report(data, solve, range(max_order))


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

    The fit data (Poisson windows, their union and the binomial table) is
    the report's own when it was fitted to probes and a record equal to
    these (``numerics._values_equal``), and is built afresh otherwise, e.g.
    for a report built directly or with ``_data=None``.

    A trial refit is skipped when its start already passes the test. The
    start, the full report's h (clipped to the box) with h[n] = 0, is a
    feasible point of the pinned problem, so the minimized objective is no
    higher than the objective there. The test only asks the norm to stay
    below a bound, so it passes at the minimum too: the skip is exact and
    changes no decision.

    If every order is droppable (e.g. ``threshold = inf``), the single
    order whose sole-mechanism fit scores best is retained, that fit is
    the returned report, and the report is flagged ``degenerate_pruning``.

    Raises
    ------
    ValueError
        If ``threshold`` is negative or NaN, or the report keeps no order.
    ConvergenceError
        If a refit uses up its 100 Newton iterations; the error carries
        that refit's best-so-far ``FitReport`` as its ``result``.
    """
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    if not report.kept_orders:
        raise ValueError("the report keeps no mechanism order, so there is nothing to prune")
    order = report.params.order
    data = report._data
    if data is None or not (
        data.design.shape[0] == order and data.probes == probes and data.record == record
    ):
        data = _fit_data(probes, record, order)
    kept = np.zeros(order, dtype=bool)
    kept[list(report.kept_orders)] = True
    base_norm = np.sqrt(report.objective)

    def droppable(objective: float) -> bool:
        trial_norm = np.sqrt(objective)
        if base_norm > 0:
            return (trial_norm - base_norm) / base_norm <= threshold
        return trial_norm <= 1e-12

    def refit(pinned: np.ndarray) -> _NewtonSolve:
        return _solve(data, report.h, pinned, "pruning refit")

    def removable(n: int) -> bool:
        pinned = ~kept
        pinned[n] = True
        start = np.where(pinned, 0.0, np.clip(report.h, _H_FLOOR, 0.0))
        r = _residual(data, start)
        return droppable(r @ r) or droppable(refit(pinned).objective)

    # Every decision is taken before ``kept`` changes, so each trial pins n
    # and only the orders the report itself leaves out.
    kept[[n for n in report.kept_orders if removable(n)]] = False
    if kept.any():
        return _build_report(data, refit(~kept), np.flatnonzero(kept))

    # Nothing survives the criterion; keep the best single mechanism so the
    # report still describes a detector.
    sole = {n: refit(np.arange(order) != n) for n in report.kept_orders}
    n = min(sole, key=lambda n: sole[n].objective)
    return _build_report(data, sole[n], [n], degenerate=True)


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
    pairs = [(_transmissivity(eta), params) for eta, params in params_by_eta]
    if len({eta for eta, _ in pairs}) < 3:
        raise ValueError("at least three distinct transmissivities are required")
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
