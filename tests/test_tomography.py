"""Tests for probe sets, reconstruction, fidelity, and click-data files."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.stats import poisson

from nlspd import tomography
from nlspd.exceptions import (
    ConvergenceError,
    DataFormatError,
    TargetUnreachableError,
    TruncationError,
    UndefinedFidelityError,
)
from nlspd.povm import DiagonalPovm, nonlinear_povm, NonlinearSpdParams, spd_povm, truncation_for
from nlspd.reference import SCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import (
    CSV_HEADER,
    ClickRecord,
    ProbeSet,
    build_probe_matrix,
    fidelity,
    read_click_data,
    reconstruct_povm,
    scaled_fit_workflow,
    write_click_data,
)


def _noiseless_record(probes: ProbeSet, povm: DiagonalPovm) -> ClickRecord:
    q = build_probe_matrix(probes, povm.truncation) @ povm.click
    clicks = np.rint(q * probes.trials).astype(np.int64)
    return ClickRecord(clicks=clicks, trials=probes.trials)


def test_probe_matrix_rows_are_poisson():
    probes = ProbeSet(intensities=np.array([0.0, 0.8, 3.7]), trials=1000)
    matrix = build_probe_matrix(probes, 25)
    assert matrix.shape == (3, 25)
    np.testing.assert_allclose(matrix[0], np.eye(25)[0], atol=1e-15)
    np.testing.assert_allclose(matrix[2], poisson.pmf(np.arange(25), 3.7), atol=1e-13)


def test_probe_matrix_requires_adequate_truncation():
    probes = ProbeSet(intensities=np.array([0.0, 30.0]), trials=1000)
    with pytest.raises(TruncationError):
        build_probe_matrix(probes, 20)
    # the documented minimum is accepted
    build_probe_matrix(probes, truncation_for(30.0))


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
    q = build_probe_matrix(probes, n) @ truth.click
    record = ClickRecord(clicks=rng.binomial(100_000, q), trials=100_000)

    povm = reconstruct_povm(probes, record, n)

    weight = 1e-3 * len(mu)
    first_diff = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    first_diff[idx, idx] = -1.0
    first_diff[idx, idx + 1] = 1.0
    stacked = np.vstack([build_probe_matrix(probes, n), np.sqrt(weight) * first_diff])
    rhs = np.concatenate([record.frequencies, np.zeros(n - 1)])
    oracle = lsq_linear(stacked, rhs, bounds=(0.0, 1.0), tol=1e-14)
    assert np.max(np.abs(oracle.x - povm.click)) <= 1e-6


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
        [build_probe_matrix(probes, n), np.sqrt(weight) * np.diff(np.eye(n), axis=0)]
    )
    rhs = np.concatenate([record.frequencies, np.zeros(n - 1)])
    dense = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    assert np.max(np.abs(povm.click - dense)) <= 1e-12


def test_smoothing_trades_data_fit_for_flatness():
    mu = np.array([0.0, 0.5, 1.5, 3.0, 6.0])
    probes = ProbeSet(intensities=mu, trials=50_000)
    n = truncation_for(6.0)
    truth = nonlinear_povm(NonlinearSpdParams([0.01, 0.25]), n)
    rng = np.random.default_rng(8)
    q = build_probe_matrix(probes, n) @ truth.click
    record = ClickRecord(clicks=rng.binomial(50_000, q), trials=50_000)
    matrix = build_probe_matrix(probes, n)

    data_terms = []
    for weight in (0.0, 1e-4, 1e-2, 1.0):
        povm = reconstruct_povm(probes, record, n, smoothing_weight=weight)
        residual = record.frequencies - matrix @ povm.click
        data_terms.append(float(residual @ residual))
    assert all(a <= b + 1e-12 for a, b in zip(data_terms, data_terms[1:]))


def test_reconstruct_guards_dense_sizes(monkeypatch):
    # A probe matrix above MAX_DENSE_BYTES is refused before it is built.
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 2.0]), trials=100)
    record = ClickRecord(clicks=np.array([1, 40, 70]), trials=100)
    too_long = tomography.MAX_DENSE_BYTES // (8 * len(probes)) + 1
    with pytest.raises(ValueError, match="--scale-to-95"):
        reconstruct_povm(probes, record, too_long)

    # So is the fallback's stacked matrix, once the active-set steps fail.
    n = truncation_for(2.0)
    monkeypatch.setattr(tomography, "_ACTIVE_SET_STEPS", 0)
    monkeypatch.setattr(tomography, "MAX_DENSE_BYTES", 8 * len(probes) * n)
    with pytest.raises(ConvergenceError, match="stacked matrix"):
        reconstruct_povm(probes, record, n)


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
    with pytest.raises(TargetUnreachableError):
        scaled_fit_workflow(probes, record)


def test_fidelity_properties():
    a = nonlinear_povm(NonlinearSpdParams([0.01, 0.2]), 30)
    b = nonlinear_povm(NonlinearSpdParams([0.05, 0.1]), 30)
    half = DiagonalPovm(click=0.5 * a.click, truncation=30)

    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    # normalization makes proportional vectors indistinguishable
    assert fidelity(a, half) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)
    assert 0.0 < fidelity(a, b) < 1.0


def test_fidelity_pads_shorter_operand():
    a = spd_povm(0.3, 25)
    longer = DiagonalPovm(
        click=np.r_[a.click, np.full(5, a.click[-1])], truncation=30
    )
    assert fidelity(a, longer) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_undefined_for_zero_vector():
    zero = DiagonalPovm(click=np.zeros(5), truncation=5)
    other = spd_povm(0.2, 5)
    with pytest.raises(UndefinedFidelityError):
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
    ],
)
def test_read_click_data_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(DataFormatError) as excinfo:
        read_click_data(path)
    assert "bad.csv" in str(excinfo.value)


def test_read_click_data_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_click_data(tmp_path / "absent.csv")
