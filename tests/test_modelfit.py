"""Tests for the mechanism-efficiency fit, pruning, and scaling analysis."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from nlspd import modelfit
from nlspd.exceptions import (
    ConvergenceError,
    DegenerateDataError,
    TruncationError,
)
from nlspd.modelfit import (
    FitReport,
    MechanismLogVector,
    fit_objective,
    fit_params,
    loss_scaling_analysis,
    prune_mechanisms,
)
from nlspd.numerics import _binomial_table
from nlspd.povm import NonlinearSpdParams, _poisson_rows, truncation_for
from nlspd.reference import SCALED_PARAMS, UNSCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import ClickRecord, ProbeSet
from test_acceptance import dense_probe_rows, fit_objective_gradient


def _record_from_exact_model(probes, p, trials):
    """Click record sampled from the model itself at a common truncation."""
    n = truncation_for(float(probes.intensities.max()))
    matrix = dense_probe_rows(probes.intensities, n)
    design = _binomial_table(np.arange(n), len(p))
    survival = np.prod((1.0 - np.asarray(p))[None, :] ** design, axis=1)
    q = matrix @ (1.0 - survival)
    return ClickRecord(clicks=np.rint(q * trials).astype(np.int64), trials=trials)


def _brute_objective(p, probes, record):
    """Direct per-row evaluation of the weighted residual sum."""
    n = truncation_for(float(probes.intensities.max()))
    matrix = dense_probe_rows(probes.intensities, n)
    total = 0.0
    for i, freq in enumerate(record.frequencies):
        if freq <= 0.0:
            continue
        model = 0.0
        for m in range(n):
            survival = 1.0
            for order in range(len(p)):
                survival *= (1.0 - p[order]) ** math.comb(m, order)
            model += matrix[i, m] * (1.0 - survival)
        total += ((freq - model) / freq) ** 2
    return total


def test_design_matrix_is_binomial_table():
    design = _binomial_table(np.arange(12), 4)
    assert design.shape == (12, 4)
    for m in range(12):
        for order in range(4):
            assert design[m, order] == float(math.comb(m, order))


def test_objective_matches_brute_force():
    rng = np.random.default_rng(17)
    probes = ProbeSet(intensities=np.r_[0.0, np.geomspace(0.3, 8.0, 7)], trials=10_000)
    record = ClickRecord(
        clicks=rng.integers(0, 10_001, size=len(probes)), trials=10_000
    )
    p = np.array([0.02, 0.15, 0.05])
    h = MechanismLogVector.at_truncation(
        np.log1p(-p), truncation_for(8.0)
    )
    fast = fit_objective(h, probes, record)
    slow = _brute_objective(p, probes, record)
    assert fast == pytest.approx(slow, rel=1e-12)


def test_objective_matches_extended_precision_sum():
    # fit_objective at the truth of the raw 16 uA detector on five of its
    # seed-0 probes (mu = 152 to 1.2e4), against 30-digit Poisson sums over
    # mu +- (9 sqrt(mu + 1) + 20), beyond which under e^-40 of the mass
    # lies. Measured gap 3.1e-14; the bound keeps a 3x margin.
    from nlspd.reference import UNSCALED_PARAMS

    truth = UNSCALED_PARAMS[16]
    base = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=base, seed=0, trials=base.trials))
    chosen = [0, 36, 40, 44, 48, 52]
    probes = ProbeSet(intensities=base.intensities[chosen], trials=base.trials)
    subset = ClickRecord(clicks=record.clicks[chosen], trials=record.trials)
    h = np.log1p(-truth.p)
    n = truncation_for(float(probes.intensities.max()))
    got = fit_objective(MechanismLogVector.at_truncation(h, n), probes, subset)

    with mpmath.workdps(30):
        h_exact = [mpmath.mpf(float(v)) for v in h]
        exact = mpmath.mpf(0)
        for mean, frequency in zip(probes.intensities, subset.frequencies):
            if frequency == 0:
                continue
            mu = mpmath.mpf(float(mean))
            span = 9 * math.sqrt(mean + 1) + 20
            model = mpmath.mpf(0)
            for m in range(max(0, int(mean - span)), int(mean + span) + 1):
                log_weight = m * mpmath.log(mu) - mu - mpmath.loggamma(m + 1)
                log_survival = sum(math.comb(m, k) * hk for k, hk in enumerate(h_exact))
                model += mpmath.exp(log_weight) * -mpmath.expm1(log_survival)
            exact += ((mpmath.mpf(float(frequency)) - model) / mpmath.mpf(float(frequency))) ** 2
        gap = float(abs(got - exact) / exact)
    assert gap <= 1e-13


def test_fit_with_a_probe_at_a_billion_photons():
    # N = truncation_for(1e9) is about a billion, but the fit only ever
    # touches the probes' Poisson windows (about 15 sqrt(mu) photon
    # numbers each); a dense P x N matrix would need 100 GB.
    truth = NonlinearSpdParams([1e-4, 3e-9])
    probes = ProbeSet(intensities=np.r_[0.0, np.geomspace(1e3, 1e9, 12)], trials=100_000)
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=2, trials=100_000))
    report = fit_params(probes, record, max_order=2)
    # The vacuum probe holds only about 10 dark counts, so P_0 is loose.
    assert report.params.p[1] == pytest.approx(truth.p[1], rel=0.1)
    assert 0.0 < report.params.p[0] < 3.0 * truth.p[0]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(29)
    probes = ProbeSet(intensities=np.r_[0.0, np.geomspace(0.2, 6.0, 6)], trials=20_000)
    record = ClickRecord(
        clicks=rng.integers(1, 20_001, size=len(probes)), trials=20_000
    )
    n = truncation_for(6.0)
    for _ in range(5):
        h_vec = -rng.uniform(0.05, 2.0, size=3)
        h = MechanismLogVector.at_truncation(h_vec, n)
        grad = fit_objective_gradient(h, probes, record)
        step = 1e-5
        for k in range(3):
            bumped_up = h_vec.copy()
            bumped_up[k] += step
            bumped_dn = h_vec.copy()
            bumped_dn[k] -= step
            fd = (
                fit_objective(MechanismLogVector.at_truncation(bumped_up, n), probes, record)
                - fit_objective(MechanismLogVector.at_truncation(bumped_dn, n), probes, record)
            ) / (2 * step)
            assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _csr_products(probes, record, order, h, r):
    """Residual, Jacobian and Hessian by scipy CSR products over the same windows."""
    frequencies = record.frequencies[record.frequencies > 0]
    rows = _poisson_rows(probes.intensities[record.frequencies > 0])
    m_values, columns = np.unique(rows.m, return_inverse=True)
    shape = (frequencies.size, m_values.size)
    matrix = csr_array((rows.weights, columns, rows.starts), shape=shape)
    design = _binomial_table(m_values, order)
    residual = (frequencies - matrix @ -np.expm1(design @ h)) / frequencies
    weighted = np.exp(design @ h)[:, None] * design
    jacobian = matrix @ weighted / frequencies[:, None]
    curvature = matrix.T @ (r / frequencies)
    hessian = 2.0 * (jacobian.T @ jacobian + design.T @ (curvature[:, None] * weighted))
    return residual, jacobian, hessian


@pytest.mark.parametrize(
    "truth, order",
    [(SCALED_PARAMS[16], 6), (UNSCALED_PARAMS[20], 4)],
    ids=["scaled-16uA", "raw-20uA"],
)
def test_fit_products_match_csr_products(truth, order):
    # The fit sums its rows' terms with numpy; scipy's CSR products over the
    # same windows are the oracle, at the flat start and at the fitted h.
    probes = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials))
    data = modelfit._fit_data(probes, record, order)
    start = np.full(order, modelfit._NEAR_ZERO_H)
    for h in (start, fit_params(probes, record, max_order=order).h):
        residual = modelfit._residual(data, h)
        jacobian, hessian = modelfit._derivatives(data, h, residual)
        expected = _csr_products(probes, record, order, h, residual)
        for got, want in zip((residual, jacobian, hessian), expected):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_norm_objective_not_globally_convex():
    # Each normalized residual is convex in h, but squaring a residual
    # that changes sign destroys convexity: once the model overshoots the
    # data, the squared term bends the other way. The pair below (found
    # by random search over a simulated 25 uA record) violates midpoint
    # convexity of the residual norm by more than 600. Convexity holds
    # only where the model underpredicts every included probe. The fit's
    # flat start need not lie there: it overpredicts 15 to 31 probes of
    # each raw reference record, and the Hessian is indefinite there.
    from nlspd.reference import SCALED_PARAMS

    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    record = simulate(
        ExperimentConfig(truth=truth, probes=base, seed=0, trials=base.trials)
    )
    n = truncation_for(float(base.intensities.max()))

    def norm_objective(h):
        return np.sqrt(
            fit_objective(MechanismLogVector.at_truncation(h, n), base, record)
        )

    h_a = np.array([-0.00837152, -0.41241254, -2.55356360, -1.87375401])
    h_b = np.array([-2.97191189, -0.20838537, -1.09804903, -2.38712766])
    midpoint = norm_objective(0.5 * (h_a + h_b))
    chord = 0.5 * (norm_objective(h_a) + norm_objective(h_b))
    assert midpoint - chord > 600.0


def test_objective_at_zero_counts_included_rows():
    # With h = 0 the model never clicks, so every included row contributes
    # a unit relative residual.
    rng = np.random.default_rng(2)
    probes = ProbeSet(intensities=np.r_[0.0, np.geomspace(0.5, 5.0, 5)], trials=1000)
    clicks = rng.integers(0, 1001, size=len(probes))
    clicks[2] = 0  # leave one excluded row
    record = ClickRecord(clicks=clicks, trials=1000)
    h = MechanismLogVector.at_truncation(np.zeros(2), truncation_for(5.0))
    included = int(np.count_nonzero(record.clicks))
    assert fit_objective(h, probes, record) == pytest.approx(included, abs=1e-12)


def test_objective_rejects_a_design_below_the_largest_probe():
    # A design truncated inside the largest probe's Poisson mass would end
    # its window early and renormalize what is left; the objective raises
    # instead of scoring it.
    probes = ProbeSet(intensities=np.array([0.0, 5.0, 30.0]), trials=1000)
    record = ClickRecord(clicks=np.array([10, 400, 900]), trials=1000)
    h = np.log1p(-np.array([0.01, 0.1]))
    with pytest.raises(TruncationError):
        fit_objective(MechanismLogVector.at_truncation(h, 20), probes, record)
    enough = MechanismLogVector.at_truncation(h, truncation_for(30.0))
    assert fit_objective(enough, probes, record) > 0


def test_objective_at_a_report_is_the_reports_objective():
    # The fit sums full Poisson windows and chooses no truncation, so a
    # design only has to carry the largest probe: past that, its length
    # does not enter the objective.
    truth = NonlinearSpdParams([1e-3, 0.08, 0.01])
    probes = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=5, trials=100_000))
    report = fit_params(probes, record, max_order=3)
    n = truncation_for(float(probes.intensities.max()))
    for rows in (n, n + 50):
        h = MechanismLogVector.at_truncation(report.h, rows)
        assert fit_objective(h, probes, record) == report.objective
    with pytest.raises(TruncationError, match="design truncation"):
        fit_objective(MechanismLogVector.at_truncation(report.h, n - 1), probes, record)


@pytest.mark.parametrize("order", [2.5, True])
def test_fit_refuses_a_max_order_that_is_not_a_whole_number(order):
    probes = ProbeSet(intensities=np.array([0.0, 5.0, 30.0]), trials=1000)
    record = ClickRecord(clicks=np.array([10, 400, 900]), trials=1000)
    with pytest.raises(ValueError, match="max_order must be a whole number"):
        fit_params(probes, record, max_order=order)


def test_fit_counts_a_whole_float_max_order():
    probes = ProbeSet(intensities=np.array([0.0, 5.0, 30.0]), trials=1000)
    record = ClickRecord(clicks=np.array([10, 400, 900]), trials=1000)
    report = fit_params(probes, record, max_order=2.0)
    assert report.params.order == 2
    assert report.to_dict() == fit_params(probes, record, max_order=2).to_dict()


def test_fit_recovers_exact_model_data():
    truth = np.array([5e-3, 0.1, 0.02])
    probes = ProbeSet(
        intensities=np.r_[0.0, np.geomspace(0.05, 40.0, 24)], trials=10**15
    )
    record = _record_from_exact_model(probes, truth, 10**15)
    report = fit_params(probes, record, max_order=3)
    assert report.objective <= 1e-20
    np.testing.assert_allclose(report.params.p, truth, atol=1e-9)


def test_fit_and_prune_recover_spd():
    truth = NonlinearSpdParams([0.0, 0.05])
    base = geometric_probe_grid(truth)
    config = ExperimentConfig(truth=truth, probes=base, seed=0, trials=100_000)
    record = simulate(config)
    report = fit_params(base, record, max_order=3)
    pruned = prune_mechanisms(report, base, record)
    assert pruned.kept_orders == (1,)
    assert pruned.params.p[1] == pytest.approx(0.05, rel=0.03)
    assert pruned.params.p[0] == 0.0
    assert pruned.params.p[2] == 0.0


def test_saturated_mechanism_is_representable():
    # Data generated with a unit-efficiency pair mechanism: the fit must
    # push that order to (numerical) saturation instead of stalling.
    truth = np.array([0.0, 0.1, 1.0])
    probes = ProbeSet(
        intensities=np.r_[0.0, np.geomspace(0.05, 20.0, 19)], trials=10**12
    )
    record = _record_from_exact_model(probes, truth, 10**12)
    report = fit_params(probes, record, max_order=3)
    assert report.params.p[2] > 0.999
    assert report.params.p[1] == pytest.approx(0.1, abs=1e-4)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    dark=st.floats(1e-6, 1e-2),
    mechanisms=st.lists(st.floats(1e-4, 0.3), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(dark=1e-3, mechanisms=[0.08, 0.02], seed=6)
def test_nested_models_never_fit_worse(dark, mechanisms, seed):
    # Each model contains the one below it (its top order at P = 0), so its
    # optimum is no worse, up to rounding: 1e-12 of the objective, plus
    # 1e-15 for records fit to the rounding floor. Over 60 random detectors
    # the worst rise was 7.8e-15 relative, apart from a dark-count-only one
    # clicking on a few probes, fit to 3e-31 at order 1 and 3e-17 above.
    truth = NonlinearSpdParams([dark, *mechanisms])
    base = geometric_probe_grid(truth)
    config = ExperimentConfig(truth=truth, probes=base, seed=seed, trials=100_000)
    record = simulate(config)
    objectives = [
        fit_params(base, record, max_order=order).objective for order in (1, 2, 3, 4)
    ]
    for smaller, larger in zip(objectives, objectives[1:]):
        assert larger <= smaller * (1 + 1e-12) + 1e-15


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    kept=st.sets(st.integers(0, 5), max_size=6),
    objective=st.floats(0.0, 1e6),
    residuals=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20),
)
def test_report_json_round_trip(p, kept, objective, residuals):
    params = NonlinearSpdParams(np.array(p))
    with np.errstate(divide="ignore"):
        h = np.log1p(-params.p)
    report = FitReport(
        params=params,
        kept_orders=tuple(n for n in kept if n < len(p)),
        objective=objective,
        per_probe_residuals=np.array(residuals),
        h=h,
    )
    doc = report.to_dict()
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def test_prune_with_infinite_threshold_degenerates_to_best_single():
    truth = NonlinearSpdParams([1e-3, 0.08])
    base = geometric_probe_grid(truth)
    config = ExperimentConfig(truth=truth, probes=base, seed=3, trials=100_000)
    record = simulate(config)
    report = fit_params(base, record, max_order=3)
    pruned = prune_mechanisms(report, base, record, threshold=np.inf)
    assert pruned.degenerate_pruning
    assert len(pruned.kept_orders) == 1
    # The kept order is the one whose sole-order refit scores best, and the
    # report is that refit.
    data = modelfit._fit_data(base, record, 3)
    sole = []
    for n in range(3):
        pinned = np.ones(3, dtype=bool)
        pinned[n] = False
        sole.append(modelfit._solve(data, report.h, pinned, "sole-order refit").objective)
    assert pruned.objective == sole[pruned.kept_orders[0]]
    assert pruned.objective <= min(sole)
    # the flag is a diagnostic, not part of the document schema
    assert "degenerate_pruning" not in pruned.to_dict()


def test_prune_against_a_zero_objective_drops_only_exact_fits():
    # A report whose optimum fits the data exactly has no relative change
    # to compare: an order is droppable only where the refit without it is
    # exact too (norm <= 1e-12). No order of a real record is, so order 2,
    # which the 1 % test drops, stays, and the final refit is the fit.
    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=base, seed=0, trials=base.trials))
    fitted = fit_params(base, record, max_order=3)
    assert prune_mechanisms(fitted, base, record).kept_orders == (0, 1)
    pruned = prune_mechanisms(dataclasses.replace(fitted, objective=0.0), base, record)
    assert pruned.kept_orders == (0, 1, 2)
    assert pruned.objective == fitted.objective


def test_prune_refuses_a_report_that_keeps_no_order():
    truth = NonlinearSpdParams([1e-3, 0.08])
    base = geometric_probe_grid(truth)
    config = ExperimentConfig(truth=truth, probes=base, seed=3, trials=100_000)
    record = simulate(config)
    report = dataclasses.replace(fit_params(base, record, max_order=2), kept_orders=())
    with pytest.raises(ValueError, match="keeps no mechanism order"):
        prune_mechanisms(report, base, record)


def test_prune_reuses_the_fit_data_of_its_record(monkeypatch):
    truth = NonlinearSpdParams([1e-3, 0.08])
    base = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=base, seed=3, trials=100_000))
    built = []
    fit_data = modelfit._fit_data
    monkeypatch.setattr(modelfit, "_fit_data", lambda *args: built.append(args) or fit_data(*args))
    report = fit_params(base, record, max_order=3)
    reused = prune_mechanisms(report, base, record)
    # Equal copies of the probes and record are the same data.
    copies = ProbeSet(base.intensities.copy(), base.trials), ClickRecord(record.clicks.copy(), 100_000)
    assert prune_mechanisms(report, *copies).to_dict() == reused.to_dict()
    assert len(built) == 1
    # A report without data, or another record, builds the data again;
    # the rebuilt data prunes to the same bits.
    rebuilt = prune_mechanisms(dataclasses.replace(report, _data=None), base, record)
    assert rebuilt.to_dict() == reused.to_dict()
    np.testing.assert_array_equal(rebuilt.h, reused.h)
    other = simulate(ExperimentConfig(truth=truth, probes=base, seed=4, trials=100_000))
    prune_mechanisms(report, base, other)
    assert len(built) == 3
    # The data is no part of the report's repr, comparison or document.
    (data_field,) = [f for f in dataclasses.fields(FitReport) if f.name == "_data"]
    assert not data_field.compare and "_data" not in repr(report)
    assert set(report.to_dict()) == {"p", "kept_orders", "objective", "per_probe_residuals"}


def test_convergence_error_carries_best_report(monkeypatch):
    truth = NonlinearSpdParams([1e-3, 0.08])
    base = geometric_probe_grid(truth)
    config = ExperimentConfig(truth=truth, probes=base, seed=3, trials=100_000)
    record = simulate(config)
    full = fit_params(base, record, max_order=2)
    monkeypatch.setattr(modelfit, "_FIT_MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as excinfo:
        fit_params(base, record, max_order=2)
    report = excinfo.value.result
    assert isinstance(report, FitReport)
    assert np.isfinite(report.objective)
    # The first pruning refit, with P_0 pinned, runs out too; its report
    # covers that refit's free orders only.
    with pytest.raises(ConvergenceError, match="pruning refit") as excinfo:
        prune_mechanisms(full, base, record)
    report = excinfo.value.result
    assert isinstance(report, FitReport)
    assert report.kept_orders == (1,)
    assert report.h[0] == 0.0 and report.params.p[0] == 0.0
    assert np.isfinite(report.objective)


def test_fit_rejects_all_zero_records():
    probes = ProbeSet(intensities=np.array([0.0, 0.5, 1.0]), trials=100)
    record = ClickRecord(clicks=np.zeros(3, dtype=int), trials=100)
    with pytest.raises(DegenerateDataError):
        fit_params(probes, record, max_order=2)


def test_log_vector_validation():
    MechanismLogVector(h=np.array([-1.0, -np.inf]), truncation=6)
    clipped = MechanismLogVector(h=np.array([5e-13, -1.0]), truncation=6)
    assert clipped.h[0] == 0.0
    with pytest.raises(ValueError):
        MechanismLogVector(h=np.array([0.1, -1.0]), truncation=6)
    with pytest.raises(ValueError):
        MechanismLogVector(h=np.array([np.nan, -1.0]), truncation=6)
    with pytest.raises(ValueError):
        MechanismLogVector(h=np.array([[-1.0]]), truncation=6)
    with pytest.raises(ValueError):
        MechanismLogVector.at_truncation(np.array([-1.0, -1.0]), 0)
    # The truncation is a count, not a table: no design of N rows is built.
    assert MechanismLogVector.at_truncation(np.zeros(2), 2**53).truncation == 2**53


def test_modelfit_refuses_malformed_input():
    # Each refusal keeps its error type and names what it refuses.
    with pytest.raises(ValueError, match="nonempty"):
        MechanismLogVector(h=np.array([]), truncation=6)
    vec = MechanismLogVector.at_truncation(np.array([0.0, -0.2]), 8)
    fields = dict(
        params=NonlinearSpdParams(-np.expm1(vec.h)),
        kept_orders=(0, 1),
        objective=0.25,
        per_probe_residuals=np.array([0.1, 0.15]),
        h=vec.h,
    )
    report = FitReport(**fields)
    with pytest.raises(ValueError, match="h length"):
        FitReport(**{**fields, "h": np.zeros(3)})
    with pytest.raises(ValueError, match="kept order"):
        FitReport(**{**fields, "kept_orders": (0, 2)})
    with pytest.raises(ValueError, match="kept orders must not repeat"):
        FitReport(**{**fields, "kept_orders": (1, 1)})
    # A NaN or infinity would reach to_dict as a value JSON has no number
    # for, and every pruning decision would compare against it.
    for name, bad in [
        ("objective", -1.0),
        ("objective", np.nan),
        ("objective", np.inf),
        ("per_probe_residuals", np.array([np.nan, 0.15])),
        ("per_probe_residuals", np.array([0.1, np.inf])),
    ]:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            FitReport(**{**fields, name: bad})
    json.dumps(report.to_dict(), allow_nan=False)
    probes = ProbeSet(intensities=np.array([0.0, 1.0]), trials=10)
    record = ClickRecord(clicks=np.array([1, 5]), trials=10)
    with pytest.raises(ValueError, match="max_order"):
        fit_params(probes, record, max_order=0)
    for threshold in (-1.0, np.nan):
        with pytest.raises(ValueError, match="threshold"):
            prune_mechanisms(report, probes, record, threshold)


def test_log_vector_params_have_plain_zeros():
    vec = MechanismLogVector.at_truncation(np.array([0.0, -0.5]), 5)
    p = NonlinearSpdParams(-np.expm1(vec.h)).p
    assert p[0] == 0.0
    assert not np.signbit(p[0])


def test_report_dict_round_trip_handles_edge_efficiencies():
    vec = MechanismLogVector.at_truncation(np.array([0.0, -0.2, -np.inf]), 8)
    fields = dict(
        params=NonlinearSpdParams(-np.expm1(vec.h)),
        kept_orders=(1, 2),
        objective=0.25,
        per_probe_residuals=np.array([0.1, 0.15]),
        h=vec.h,
    )
    doc = FitReport(**fields).to_dict()
    assert set(doc) == {"p", "kept_orders", "objective", "per_probe_residuals"}
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    assert doc["p"] == [0.0, float(-np.expm1(-0.2)), 1.0]
    assert doc["kept_orders"] == [1, 2]
    assert FitReport(**{**fields, "kept_orders": (1.0, 2.0)}).kept_orders == (1, 2)
    with pytest.raises(ValueError, match="whole number"):
        FitReport(**{**fields, "kept_orders": (1.5, 2)})


def test_scaling_analysis_recovers_exact_power_law():
    base = np.array([2e-3, 0.3, 0.12])
    pairs = [
        (eta, NonlinearSpdParams(base * np.array([1.0, eta, eta**2])))
        for eta in (1.0, 0.6, 0.3, 0.1)
    ]
    fit = loss_scaling_analysis(pairs)
    assert fit.slopes[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.slopes[1] == pytest.approx(1.0, abs=1e-12)
    assert fit.slopes[2] == pytest.approx(2.0, abs=1e-12)
    assert fit.excluded_orders == ()


def test_scaling_analysis_excludes_vanished_orders():
    pairs = [
        (eta, NonlinearSpdParams([0.0, 0.1 * eta])) for eta in (1.0, 0.5, 0.25)
    ]
    fit = loss_scaling_analysis(pairs)
    assert fit.excluded_orders == (0,)
    assert set(fit.slopes) == {1}


def test_scaling_analysis_validation():
    params = NonlinearSpdParams([0.1])
    with pytest.raises(ValueError):
        loss_scaling_analysis([(1.0, params), (0.5, params)])
    with pytest.raises(ValueError):
        loss_scaling_analysis([(1.0, params), (0.5, params), (1.5, params)])
    with pytest.raises(ValueError):
        loss_scaling_analysis(
            [(1.0, params), (0.5, params), (0.25, NonlinearSpdParams([0.1, 0.2]))]
        )


def test_seed_spread_is_consistent_with_sampling_theory():
    # The spread of fitted P_1 across independent records should sit near
    # the sandwich-covariance prediction at the truth, not far outside it.
    truth = NonlinearSpdParams([1e-3, 0.08])
    grid = geometric_probe_grid(truth)
    values = []
    for seed in range(12):
        config = ExperimentConfig(truth=truth, probes=grid, seed=seed, trials=100_000)
        record = simulate(config)
        values.append(fit_params(grid, record, max_order=2).params.p[1])
    spread = float(np.std(values, ddof=1))

    h_true = np.log1p(-truth.p)
    n = truncation_for(float(grid.intensities.max()))
    matrix = dense_probe_rows(grid.intensities, n)
    design = _binomial_table(np.arange(n), 2)
    survival = np.exp(design @ h_true)
    q = matrix @ (1.0 - survival)
    included = q > 0
    jac = (matrix @ (survival[:, None] * design))[included] / q[included, None]
    residual_var = (1.0 - q[included]) / (q[included] * 100_000)
    normal = np.linalg.inv(jac.T @ jac)
    cov_h = normal @ (jac.T * residual_var) @ jac @ normal
    se_p1 = float((1.0 - truth.p[1]) * np.sqrt(cov_h[1, 1]))

    assert spread / se_p1 < 3.0
    assert spread / se_p1 > 1.0 / 3.0
