"""Tests for probe sets, reconstruction, fidelity, and click-data files."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.stats import poisson

from nlspd import cli, tomography
from nlspd.exceptions import ConvergenceError
from nlspd.povm import DiagonalPovm, nonlinear_povm, NonlinearSpdParams, spd_povm, truncation_for
from nlspd.reference import SCALED_PARAMS, UNSCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import (
    CSV_HEADER,
    ClickRecord,
    ProbeSet,
    fidelity,
    read_click_data,
    reconstruct_povm,
    scaled_fit_workflow,
    write_click_data,
)
from test_acceptance import dense_probe_rows


def _noiseless_record(probes: ProbeSet, truth: DiagonalPovm) -> ClickRecord:
    q = dense_probe_rows(probes.intensities, truth.truncation) @ truth.click
    clicks = np.rint(q * probes.trials).astype(np.int64)
    return ClickRecord(clicks=clicks, trials=probes.trials)


def test_probe_matrix_rows_are_poisson():
    # The reconstruction's rows on U, the union of the Poisson windows
    # below the truncation: here all of 0..24.
    probes = ProbeSet(intensities=np.array([0.0, 0.8, 3.7]), trials=1000)
    matrix, photons = tomography._probe_matrix(probes, 25)
    assert matrix.shape == (3, 25)
    np.testing.assert_array_equal(photons, np.arange(25))
    np.testing.assert_allclose(matrix[0], np.eye(25)[0], atol=1e-15)
    np.testing.assert_allclose(matrix[2], poisson.pmf(np.arange(25), 3.7), atol=1e-13)
    # A probe of 1e4 photons leaves a gap of 9105 numbers after the
    # vacuum's window {0..24}; its row on U is the Poisson law there.
    probes = ProbeSet(intensities=np.array([0.0, 1e4]), trials=1000)
    n = truncation_for(1e4)
    matrix, photons = tomography._probe_matrix(probes, n)
    assert photons[:25].tolist() == list(range(25)) and photons[25] > 9000 and photons[-1] < n
    np.testing.assert_allclose(matrix[1], poisson.pmf(photons, 1e4), rtol=1e-10, atol=1e-16)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_probe_matrix_requires_adequate_truncation():
    probes = ProbeSet(intensities=np.array([0.0, 30.0]), trials=1000)
    record = ClickRecord(clicks=np.array([1, 900]), trials=1000)
    with pytest.raises(ValueError, match="too small for mean photon number"):
        reconstruct_povm(probes, record, 20)
    # the documented minimum is accepted
    reconstruct_povm(probes, record, truncation_for(30.0))


def test_reconstruct_truncation_is_a_whole_number():
    # A whole float is the same truncation; a fraction or a bool is refused
    # before the tail check reads its ln m! table at it.
    probes = ProbeSet(intensities=np.array([0.0, 30.0]), trials=1000)
    record = ClickRecord(clicks=np.array([1, 900]), trials=1000)
    whole = reconstruct_povm(probes, record, 146)
    again = reconstruct_povm(probes, record, 146.0)
    assert again.truncation == 146
    np.testing.assert_array_equal(again.click, whole.click)
    for bad in (146.5, True):
        with pytest.raises(ValueError, match="whole number"):
            reconstruct_povm(probes, record, bad)


def test_reconstruct_recovers_noiseless_spd():
    mu = np.r_[0.0, np.geomspace(0.05, 60.0, 49)]
    probes = ProbeSet(intensities=mu, trials=10**12)
    truth = spd_povm(0.1, truncation_for(60.0))
    record = _noiseless_record(probes, truth)
    povm = reconstruct_povm(probes, record, truth.truncation, smoothing_weight=0.0)
    assert np.max(np.abs(povm.click - truth.click)) <= 1e-3


def test_reconstruct_matches_independent_box_solver():
    # Same objective solved by scipy's trust-region reflective solver.
    mu = np.array([0.0, 0.4, 1.0, 2.0, 4.0, 7.0])
    probes = ProbeSet(intensities=mu, trials=100_000)
    n = truncation_for(7.0)
    truth = spd_povm(0.35, n)
    rng = np.random.default_rng(3)
    q = dense_probe_rows(probes.intensities, n) @ truth.click
    record = ClickRecord(clicks=rng.binomial(100_000, q), trials=100_000)

    povm = reconstruct_povm(probes, record, n)

    weight = 1e-3 * len(mu)
    first_diff = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    first_diff[idx, idx] = -1.0
    first_diff[idx, idx + 1] = 1.0
    stacked = np.vstack([dense_probe_rows(probes.intensities, n), np.sqrt(weight) * first_diff])
    rhs = np.concatenate([record.frequencies, np.zeros(n - 1)])
    oracle = lsq_linear(stacked, rhs, bounds=(0.0, 1.0), tol=1e-14)
    assert np.max(np.abs(oracle.x - povm.click)) <= 1e-6


def test_an_uncertified_active_set_stall_falls_back_to_bvls(monkeypatch):
    # The rescaled 25 uA record of seed 0 has its minimizer inside the box,
    # so the first step changes nothing. With no breach accepted as
    # optimal, that step is not certified: the loop stalls after it, and
    # bounded-variable least squares finishes to the same minimizer.
    truth = SCALED_PARAMS[25]
    probes = geometric_probe_grid(truth)
    record = simulate(
        ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials)
    )
    F, photons = tomography._probe_matrix(probes, 146)
    lengths = np.diff(photons).astype(float)
    weight = tomography.default_smoothing_weight(probes)
    certified = tomography._active_set_minimizer(F, record.frequencies, weight, lengths)
    monkeypatch.setattr(tomography, "_KKT_TOLERANCE", 0.0)
    stalled = tomography._active_set_minimizer(F, record.frequencies, weight, lengths)
    assert (certified.steps, certified.fallback) == (1, False)
    assert (stalled.steps, stalled.fallback) == (1, True)
    np.testing.assert_allclose(stalled.y, certified.y, rtol=0, atol=1e-13)


def test_an_exhausted_fallback_raises_with_its_result(monkeypatch):
    # At w = 1e-10 the active-set steps of this record do not settle, and a
    # one-iteration BVLS budget runs out: ConvergenceError carries scipy's
    # result, of status 0.
    def one_iteration(*args, **kwargs):
        return lsq_linear(*args, **{**kwargs, "max_iter": 1})

    monkeypatch.setattr("scipy.optimize.lsq_linear", one_iteration)
    truth = SCALED_PARAMS[20]
    probes = geometric_probe_grid(truth)
    record = simulate(
        ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials)
    )
    with pytest.raises(ConvergenceError, match="stopped after") as excinfo:
        reconstruct_povm(probes, record, 112, smoothing_weight=1e-10)
    assert excinfo.value.result.status == 0


def test_reconstruct_interior_matches_dense_least_squares():
    # The rescaled 25 uA record of seed 0 has its minimizer inside the box,
    # so the closed-form solve answers; compare it with a dense SVD solve
    # of the stacked system [F; sqrt(w) D] x = [C; 0].
    truth = SCALED_PARAMS[25]
    probes = geometric_probe_grid(truth)
    record = simulate(
        ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials)
    )
    n = truncation_for(float(probes.intensities.max()))
    povm = reconstruct_povm(probes, record, n)
    assert np.all((povm.click > 0.0) & (povm.click < 1.0))

    weight = 1e-3 * len(probes)
    stacked = np.vstack(
        [dense_probe_rows(probes.intensities, n), np.sqrt(weight) * np.diff(np.eye(n), axis=0)]
    )
    rhs = np.concatenate([record.frequencies, np.zeros(n - 1)])
    dense = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    assert np.max(np.abs(povm.click - dense)) <= 1e-12


def _banded_solves(index, lengths, rhs):
    """R^-T rhs and R^-1 rhs by scipy's banded Cholesky factor R: the oracle.

    R factors the free block of the weighted path Laplacian: -1 / L
    between neighbours a difference of length L apart.
    """
    from scipy.linalg import cholesky_banded
    from scipy.linalg.lapack import dtbtrs

    right = np.append(1.0 / lengths, 0.0)
    left = np.append(0.0, 1.0 / lengths)
    block = np.zeros((2, index.size))
    block[1] = (left + right)[index]
    block[0, 1:] = np.where(np.diff(index) == 1, -right[index[:-1]], 0.0)
    factor = cholesky_banded(block, check_finite=False)
    return (
        dtbtrs(factor, rhs.T, trans="T")[0].T,
        dtbtrs(factor, rhs.T)[0].T,
    )


def test_path_factor_matches_banded_cholesky():
    # Random held sets on N = 2..145, plus every element free but the
    # first (the intercept case): the closed-form solves against
    # cholesky_banded and dtbtrs, with runs that start at m = 0, end at
    # N - 1 or hold a single element. Each set is solved with every
    # difference of length 1 and on a gapped index set, with lengths
    # 1..6 between neighbours.
    rng = np.random.default_rng(5)
    cases = [np.arange(1, size) for size in (2, 3, 145)]
    for size in rng.integers(2, 146, 300):
        free = rng.random(size) < rng.uniform(0.2, 0.9)
        if free.any() and not free.all():
            cases.append(np.flatnonzero(free))
    seen = {"from 0": 0, "to N - 1": 0, "single": 0, "gapped": 0}
    for index in cases:
        size = int(index[-1]) + 1 + int(rng.integers(0, 2))
        if index.size == size:
            continue
        runs = np.split(index, np.flatnonzero(np.diff(index) != 1) + 1)
        seen["from 0"] += index[0] == 0
        seen["to N - 1"] += index[-1] == size - 1
        seen["single"] += any(run.size == 1 for run in runs)
        for lengths in (np.ones(size - 1), rng.integers(1, 7, size - 1).astype(float)):
            seen["gapped"] += bool(np.any(lengths > 1))
            rhs = rng.standard_normal((4, index.size))
            factor = tomography._PathFactor(index, lengths)
            for got, expected in zip(
                (factor.solve_transposed(rhs.copy()), factor.solve(rhs)),
                _banded_solves(index, lengths, rhs),
            ):
                np.testing.assert_allclose(
                    got, expected, rtol=0, atol=1e-12 * np.abs(expected).max()
                )
    assert min(seen.values()) >= 20


def test_smoothing_trades_data_fit_for_flatness():
    mu = np.array([0.0, 0.5, 1.5, 3.0, 6.0])
    probes = ProbeSet(intensities=mu, trials=50_000)
    n = truncation_for(6.0)
    truth = nonlinear_povm(NonlinearSpdParams([0.01, 0.25]), n)
    rng = np.random.default_rng(8)
    q = dense_probe_rows(probes.intensities, n) @ truth.click
    record = ClickRecord(clicks=rng.binomial(50_000, q), trials=50_000)
    matrix = dense_probe_rows(probes.intensities, n)

    data_terms = []
    for weight in (0.0, 1e-4, 1e-2, 1.0):
        povm = reconstruct_povm(probes, record, n, smoothing_weight=weight)
        residual = record.frequencies - matrix @ povm.click
        data_terms.append(float(residual @ residual))
    assert all(a <= b + 1e-12 for a, b in zip(data_terms, data_terms[1:]))


def test_reconstruct_guards_dense_sizes(monkeypatch, tmp_path, capsys):
    # A click vector above MAX_DENSE_BYTES is refused before it is built:
    # a probe of 1e9 photons needs about 1e9 elements (7.5 GiB).
    probes = ProbeSet(intensities=np.array([0.0, 1e3, 1e9]), trials=100)
    record = ClickRecord(clicks=np.array([1, 40, 70]), trials=100)
    with pytest.raises(ValueError, match="click vector.*--scale-to-95"):
        reconstruct_povm(probes, record)

    # So is the P x |U| probe matrix on the windows' union, here 3 x 32,
    # under a limit just below it that the 86 window terms and the
    # 19-element click vector pass.
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 2.0]), trials=100)
    record = ClickRecord(clicks=np.array([1, 40, 70]), trials=100)
    n = truncation_for(2.0)
    monkeypatch.setattr("nlspd.povm.MAX_DENSE_BYTES", 8 * 3 * 32 - 8)
    with pytest.raises(ValueError, match="probe matrix.*--scale-to-95"):
        reconstruct_povm(probes, record, n)
    monkeypatch.undo()

    # So is the fallback's stacked matrix on the 19 photon numbers of U
    # below the truncation, 21 x 19, once the active-set steps fail, under
    # a limit that the 3 x 32 probe matrix just meets; the CLI exits 1 on
    # it, as on every other oversize array.
    monkeypatch.setattr(tomography, "_ACTIVE_SET_STEPS", 0)
    monkeypatch.setattr("nlspd.povm.MAX_DENSE_BYTES", 8 * 3 * 32)
    with pytest.raises(ValueError, match="21 x 19 stacked matrix"):
        reconstruct_povm(probes, record, n)
    data = tmp_path / "clicks.csv"
    write_click_data(data, probes, record)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["reconstruct", str(data), str(tmp_path / "povm.json")])
    assert excinfo.value.code == 1
    assert "stacked matrix" in capsys.readouterr().err
    monkeypatch.undo()

    # The fallback is refused by its work too: raw 25 uA seed 0 at w = 0
    # passes the byte limit with its 88 MB stacked matrix on 3296 unknowns,
    # where BVLS ran past 13 min.
    truth = UNSCALED_PARAMS[25]
    probes = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=0, trials=probes.trials))
    with pytest.raises(ValueError, match="at most 700 unknowns, not 3296 .*--smoothing"):
        reconstruct_povm(probes, record, smoothing_weight=0)


@pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0])
def test_reconstruct_rejects_bad_smoothing_weight(weight):
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 2.0]), trials=100)
    record = ClickRecord(clicks=np.array([1, 40, 70]), trials=100)
    with pytest.raises(ValueError, match="smoothing weight"):
        reconstruct_povm(probes, record, truncation_for(2.0), smoothing_weight=weight)


def test_scaled_workflow_matches_analytic_spd():
    # For 1 - exp(-p1 mu), the 95% crossing is ln(20)/p1, so the scale
    # factor has a closed form to compare against.
    p1 = 0.2
    mu = np.r_[0.0, np.geomspace(0.5, 60.0, 39)]
    probes = ProbeSet(intensities=mu, trials=10**9)
    truth = spd_povm(p1, truncation_for(60.0))
    record = _noiseless_record(probes, truth)

    k, scaled = scaled_fit_workflow(probes, record)
    analytic = 30.0 * p1 / np.log(20.0)
    assert k == pytest.approx(analytic, rel=1e-3)
    assert scaled.truncation == truncation_for(k * 60.0)

    from nlspd.povm import povm_click_probability

    assert povm_click_probability(scaled, 30.0) == pytest.approx(0.95, abs=5e-3)


def test_scaled_workflow_rejects_unreachable_target():
    mu = np.r_[0.0, np.geomspace(0.1, 5.0, 19)]
    probes = ProbeSet(intensities=mu, trials=10**6)
    truth = spd_povm(0.001, truncation_for(5.0))
    record = _noiseless_record(probes, truth)
    with pytest.raises(ValueError, match="never reaches"):
        scaled_fit_workflow(probes, record)


@pytest.mark.parametrize(
    "intensities, clicks, message",
    [
        ([0.0, 40.0], [1, 990], "too few nonvacuum probes"),
        # At or above 0.95 at the smallest nonvacuum probe, no interval
        # brackets the crossing.
        ([0.0, 10.0, 20.0], [1, 950, 995], "smallest nonvacuum probe"),
        ([0.0, 10.0, 20.0], [1, 990, 995], "smallest nonvacuum probe"),
    ],
)
def test_scaled_workflow_refuses_an_unbracketed_crossing(intensities, clicks, message):
    probes = ProbeSet(intensities=np.array(intensities), trials=1000)
    record = ClickRecord(clicks=np.array(clicks), trials=1000)
    with pytest.raises(ValueError, match=message):
        scaled_fit_workflow(probes, record)


def _scipy_crossing(intensities, frequencies, target):
    """First crossing of scipy's PCHIP on the log axis: the oracle."""
    from scipy.interpolate import PchipInterpolator

    positive = intensities > 0
    curve = PchipInterpolator(np.log(intensities[positive]), frequencies[positive])
    return float(np.exp(curve.solve(target, extrapolate=False)[0]))


def test_crossing_matches_scipy_pchip_on_reference_records():
    # The 78 reference records: both parameter sets, three bias currents,
    # seeds 0-12.
    worst = 0.0
    for params in (SCALED_PARAMS, UNSCALED_PARAMS):
        for bias in (25, 20, 16):
            truth = params[bias]
            base = geometric_probe_grid(truth)
            for seed in range(13):
                config = ExperimentConfig(truth=truth, probes=base, seed=seed, trials=base.trials)
                f = simulate(config).frequencies
                closed = tomography._crossing_intensity(base.intensities, f, 0.95)
                oracle = _scipy_crossing(base.intensities, f, 0.95)
                worst = max(worst, abs(closed - oracle) / oracle)
    assert worst <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    start=st.floats(-3.0, 3.0),
    gaps=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=12),
    shape=st.sampled_from(["monotone", "noisy", "arbitrary"]),
    clicks=st.lists(st.integers(0, 10**6), min_size=12, max_size=12),
    target=st.floats(0.01, 0.99),
)
def test_crossing_matches_scipy_pchip_on_random_curves(start, gaps, shape, clicks, target):
    # Click frequencies out of 10**6 trials per probe.
    x = np.exp(start + np.cumsum(gaps))
    v = np.array(clicks[: x.size]) / 10**6
    if shape == "monotone":
        y = np.sort(v)
    elif shape == "noisy":
        y = np.clip(1.0 - np.exp(-x / x[x.size // 2]) + 0.1 * (v - 0.5), 0.0, 1.0)
    else:
        y = v
    # A target equal to a data point has its own cases below: there the
    # root can be double, and scipy's root finder can miss it.
    assume(target not in y)
    assume(y[0] < target <= y.max())
    intensities, frequencies = np.r_[0.0, x], np.r_[0.0, y]
    closed = tomography._crossing_intensity(intensities, frequencies, target)
    oracle = _scipy_crossing(intensities, frequencies, target)
    assert closed == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize(
    "x, y, target",
    [
        pytest.param([1.0, 4.0], [0.2, 0.8], 0.5, id="two-probes"),
        pytest.param([1.0, 2.0, 4.0, 8.0], [0.3, 0.9, 0.95, 0.99], 0.5, id="first-interval"),
        pytest.param([1.0, 2.0, 4.0, 8.0], [0.1, 0.2, 0.4, 0.97], 0.95, id="last-interval"),
        pytest.param([1.0, 2.0, 4.0, 8.0], [0.2, 0.2, 0.6, 0.97], 0.5, id="zero-secant"),
        pytest.param([1.0, 10.0, 11.0], [0.1, 0.96, 0.5], 0.95, id="left-end-clamp"),
        pytest.param([1.0, 1.1, 10.0], [0.4, 0.1, 0.96], 0.95, id="right-end-clamp"),
        pytest.param([1.0, 2.0, 4.0, 8.0], [0.2, 0.5, 0.95, 0.99], 0.95, id="data-point"),
    ],
)
def test_crossing_edge_cases_match_scipy_pchip(x, y, target):
    intensities, frequencies = np.r_[0.0, x], np.r_[0.0, y]
    closed = tomography._crossing_intensity(intensities, frequencies, target)
    assert closed == pytest.approx(_scipy_crossing(intensities, frequencies, target), rel=1e-12)


def test_crossing_edge_slopes_take_their_clamps():
    # The two clamp cases above do reach the 3 m0 clamp at their ends.
    for x, y, end in (
        ([1.0, 10.0, 11.0], [0.1, 0.96, 0.5], 0),
        ([1.0, 1.1, 10.0], [0.4, 0.1, 0.96], 2),
    ):
        h = np.diff(np.log(x))
        m = np.diff(y) / h
        assert tomography._pchip_slope(h, m, end) == 3 * m[min(end, 1)]


@pytest.mark.parametrize(
    "x, y, j",
    [
        # The curve is flat at the data point, so the root there is double.
        pytest.param([1.0, 2.0, 4.0, 8.0], [0.2, 0.95, 0.6, 0.99], 1, id="flat"),
        # scipy's root finder misses the root at the last probe here.
        pytest.param(
            [6.321, 7.571, 14.896, 19.843, 40.697, 92.511],
            [0.068, 0.155, 0.238, 0.341, 0.803, 0.911],
            5,
            id="last-probe",
        ),
    ],
)
def test_crossing_at_a_data_point_is_that_probe(x, y, j):
    closed = tomography._crossing_intensity(np.r_[0.0, x], np.r_[0.0, y], y[j])
    assert closed == pytest.approx(x[j], rel=1e-15)


def test_fidelity_properties():
    a = nonlinear_povm(NonlinearSpdParams([0.01, 0.2]), 30)
    b = nonlinear_povm(NonlinearSpdParams([0.05, 0.1]), 30)
    half = DiagonalPovm(click=0.5 * a.click)

    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    # normalization makes proportional vectors indistinguishable
    assert fidelity(a, half) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
    assert 0.0 < fidelity(a, b) < 1.0


def test_fidelity_pads_shorter_operand():
    a = spd_povm(0.3, 25)
    longer = DiagonalPovm(click=np.r_[a.click, np.full(5, a.click[-1])])
    assert fidelity(a, longer) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_undefined_for_zero_vector():
    zero = DiagonalPovm(click=np.zeros(5))
    other = spd_povm(0.2, 5)
    with pytest.raises(ValueError, match="all-zero click vector"):
        fidelity(zero, other)


def test_probe_set_validation():
    with pytest.raises(ValueError):
        ProbeSet(intensities=np.array([0.1, 0.5]), trials=10)  # must start at 0
    with pytest.raises(ValueError):
        ProbeSet(intensities=np.array([0.0, 0.5, 0.5]), trials=10)  # increasing
    with pytest.raises(ValueError):
        ProbeSet(intensities=np.array([0.0]), trials=10)  # at least two
    with pytest.raises(ValueError):
        ProbeSet(intensities=np.array([0.0, 1.0]), trials=0)
    for trials in (2.9, True, "10"):  # counts are whole numbers, never rounded
        with pytest.raises(ValueError, match="whole number"):
            ProbeSet(intensities=np.array([0.0, 1.0]), trials=trials)
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 2.0]), trials=10)
    assert len(probes) == 3
    # JSON reads 1e5 as 100000.0; a whole float is a count.
    assert ProbeSet(intensities=np.array([0.0, 1.0]), trials=1e5).trials == 100_000


def test_probe_set_scaling():
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 4.0]), trials=10)
    doubled = probes.scaled_by(2.0)
    np.testing.assert_array_equal(doubled.intensities, [0.0, 2.0, 8.0])
    assert doubled.trials == 10
    with pytest.raises(ValueError):
        probes.scaled_by(0.0)


def test_click_record_validation():
    record = ClickRecord(clicks=np.array([0.0, 5.0, 10.0]), trials=10)
    assert record.clicks.dtype.kind == "i"
    np.testing.assert_allclose(record.frequencies, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        ClickRecord(clicks=np.array([0.5, 1.0]), trials=10)  # non-integer
    with pytest.raises(ValueError):
        ClickRecord(clicks=np.array([0, 11]), trials=10)  # over trials
    with pytest.raises(ValueError):
        ClickRecord(clicks=np.array([-1, 2]), trials=10)
    with pytest.raises(ValueError, match="whole number"):
        ClickRecord(clicks=np.array([1, 2]), trials=10.5)


def test_probe_and_click_data_refuse_malformed_input():
    with pytest.raises(ValueError, match="finite"):
        ProbeSet(intensities=np.array([0.0, np.inf]), trials=10)
    with pytest.raises(ValueError, match="nonempty"):
        ClickRecord(clicks=np.array([], dtype=int), trials=10)
    with pytest.raises(ValueError, match="trials"):
        ClickRecord(clicks=np.array([0, 0]), trials=0)
    probes = ProbeSet(intensities=np.array([0.0, 1.0]), trials=10)
    with pytest.raises(ValueError, match="probe count"):
        tomography.check_paired(probes, ClickRecord(clicks=np.array([1, 2, 3]), trials=10))
    with pytest.raises(ValueError, match="probe trials"):
        tomography.check_paired(probes, ClickRecord(clicks=np.array([1, 2]), trials=20))


def test_click_record_checks_trials_before_the_clicks():
    with pytest.raises(ValueError, match="trials"):
        ClickRecord(clicks=[10**20], trials=0)
    # A count int64 cannot hold is refused against the trials, not cast.
    with pytest.raises(ValueError, match=r"\[0, trials\]"):
        ClickRecord(clicks=[10**20], trials=10)
    with pytest.raises(ValueError, match=r"\[0, trials\]"):
        ClickRecord(clicks=np.array([np.nan, 1.0]), trials=10)


def test_click_data_round_trip(tmp_path):
    mu = np.r_[0.0, np.geomspace(0.2, 17.0, 11)]
    probes = ProbeSet(intensities=mu, trials=40_000)
    rng = np.random.default_rng(5)
    record = ClickRecord(
        clicks=rng.integers(0, 40_001, size=len(probes)), trials=40_000
    )
    path = tmp_path / "clicks.csv"
    write_click_data(path, probes, record)

    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_HEADER)

    probes2, record2 = read_click_data(path)
    np.testing.assert_array_equal(probes2.intensities, probes.intensities)
    assert probes2.trials == probes.trials
    np.testing.assert_array_equal(record2.clicks, record.clicks)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    positive=st.lists(
        st.floats(0.0, 1e12, exclude_min=True), min_size=1, max_size=10, unique=True
    ),
    trials=st.integers(1, 10**12),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11),
)
def test_click_data_csv_round_trip(positive, trials, fractions):
    # Every intensity comes back bit for bit, and every count exactly.
    probes = ProbeSet(intensities=np.array([0.0] + sorted(positive)), trials=trials)
    clicks = np.rint(np.array(fractions[: len(probes)]) * trials).astype(np.int64)
    record = ClickRecord(clicks=clicks, trials=trials)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "clicks.csv"
        write_click_data(path, probes, record)
        probes2, record2 = read_click_data(path)
    assert probes2.intensities.tobytes() == probes.intensities.tobytes()
    assert probes2.trials == trials and record2.trials == trials
    np.testing.assert_array_equal(record2.clicks, record.clicks)


@pytest.mark.parametrize(
    "body",
    [
        "photons,trials,clicks\n0.0,10,1\n1.0,10,2\n",  # wrong header
        "mean_photons,trials,clicks\n0.0,10,1\n1.0,10\n",  # short row
        "mean_photons,trials,clicks\n0.0,10,1\n1.0,12,2\n",  # trials vary
        "mean_photons,trials,clicks\n0.0,10,1.5\n1.0,10,2\n",  # fractional
        "mean_photons,trials,clicks\n0.0,10,1\nbanana,10,2\n",  # junk field
        "",  # empty file
        "mean_photons,trials,clicks\n",  # header only
    ],
)
def test_read_click_data_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=r"bad\.csv"):
        read_click_data(path)


def test_read_click_data_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("mean_photons,trials,clicks\n0.0,10,1\n\n1.0,10,2\n")
    probes, record = read_click_data(path)
    np.testing.assert_array_equal(probes.intensities, [0.0, 1.0])
    np.testing.assert_array_equal(record.clicks, [1, 2])
    assert probes.trials == record.trials == 10


def test_read_click_data_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_click_data(tmp_path / "absent.csv")
