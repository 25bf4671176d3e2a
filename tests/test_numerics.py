"""Tests for the Poisson and binomial primitives, and for the equality
the value classes share.

The frozen reference values were produced with a 50-digit extended
precision evaluation of the same formulas; agreement is required at the
level float64 can represent.
"""

import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from nlspd.numerics import (
    _binomial_table,
    _log_factorial,
    _stirling_gap,
    binomial_exponents,
    poisson_log_pmf,
    poisson_log_weights,
)
from nlspd.modelfit import FitReport, MechanismLogVector, fit_params
from nlspd.povm import DiagonalPovm, NonlinearSpdParams, npd_povm, truncation_for
from nlspd.reference import SCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import ClickRecord, ProbeSet, read_click_data, write_click_data

# (mean, m, extended-precision log weight)
POISSON_ORACLE = [
    (3.7, 0, -3.70000000000000018),
    (3.7, 7, -3.06683162351416282),
    (147.2, 200, -12.0735459334503049),
    (0.25, 3, -6.20064255258772686),
]


@pytest.mark.parametrize("mean, m, expected", POISSON_ORACLE)
def test_log_poisson_weight_matches_extended_precision(mean, m, expected):
    value = poisson_log_weights(mean, m + 1)[m]
    assert value == pytest.approx(expected, rel=1e-13, abs=5e-13)


def test_log_factorial_matches_extended_precision():
    # Table values below m = 1024 and Stirling values above, against
    # 30-digit ln m!, to within two ulps.
    m_values = np.unique(np.r_[np.arange(1100), np.geomspace(1100, 1e7, 200).astype(np.int64)])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.loggamma(int(m) + 1)) for m in m_values])
    np.testing.assert_allclose(_log_factorial(m_values), exact, rtol=4.5e-16, atol=0)


def test_stirling_gap_matches_extended_precision():
    # ln k! - (k ln k - k): the 40-digit table below 16, the series from 16
    # on, in the table below 1024 and evaluated above it, each within an ulp.
    k = np.r_[np.arange(1100), [5000, 38_696, 10**6, 10**9]]
    with mpmath.workdps(40):
        exact = np.array(
            [0.0] + [float(mpmath.loggamma(j + 1) - j * mpmath.log(j) + j) for j in k[1:].tolist()]
        )
    assert np.all(np.abs(_stirling_gap(k) - exact) <= np.spacing(exact))


def test_log_factorial_matches_scipy_gammaln():
    # The Stirling sum follows Cephes lgam, so ln m! matches gammaln(m + 1)
    # to the last bit but below m = 64, where the table is exact and Cephes
    # can be an ulp off, and where numpy's logarithm of m + 1 rounds apart
    # from the C library's.
    m_values = np.arange(200_000)
    np.testing.assert_allclose(_log_factorial(m_values), gammaln(m_values + 1.0), rtol=4e-16)


def test_poisson_log_pmf_matches_scipy_formula():
    # The old kernel, xlogy(m, mu) - mu - gammaln(m + 1), at every m below
    # 1e4 and 301 means. Both round the terms m ln(mu), mu and ln m! alike,
    # so they agree to two ulps of the largest term. That is within 1e-13
    # of the value but where the value is a small difference of large
    # terms and the two ln m! round apart: at m = 9169 and means near 9330
    # the value is -6.9 against terms of 7e4, and gammaln is itself an ulp
    # off the exact ln m! there.
    m = np.arange(10_000)
    loose = 0
    for mu in np.r_[0.0, np.geomspace(1e-6, 1e5, 300)]:
        got = poisson_log_pmf(m, mu)
        expected = xlogy(m, mu) - mu - gammaln(m + 1)
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(got[~finite], expected[~finite])
        gap = np.abs(got[finite] - expected[finite])
        scale = (np.abs(xlogy(m, mu)) + mu + gammaln(m + 1))[finite]
        assert np.all(gap <= 4.5e-16 * scale)
        loose += np.count_nonzero(gap > 1e-13 * np.abs(expected[finite]))
    assert loose <= 10


def test_poisson_log_weights_agree_with_scalar():
    # One call over an array of means equals the per-mean vectors bitwise.
    means = np.array([0.0, 0.25, 3.7, 11.3, 147.2])
    table = poisson_log_weights(means, 40)
    assert table.shape == (5, 40)
    for row, mean in zip(table, means):
        vector = poisson_log_weights(mean, 40)
        assert vector.shape == (40,)
        np.testing.assert_array_equal(row, vector)


def test_poisson_weights_normalize():
    # With the truncation chosen for the mean, the weights must sum to 1
    # up to the advertised tail mass.
    for mean in (0.3, 4.0, 75.0):
        n = truncation_for(mean)
        total = np.exp(poisson_log_weights(mean, n)).sum()
        assert abs(total - 1.0) < 1e-12


def test_poisson_weights_at_zero_mean():
    weights = poisson_log_weights(0.0, 4)
    assert weights[0] == 0.0
    assert np.all(np.isneginf(weights[1:]))


def test_binomial_exponent_exact_below_limit():
    # The falling factorial stays in exact integer arithmetic below m = 1000
    # at every mechanism order used here.
    m_values = np.arange(1000)
    for n in range(0, 7):
        expected = np.array([float(math.comb(int(m), n)) for m in m_values])
        np.testing.assert_array_equal(binomial_exponents(m_values, n), expected)


def test_binomial_exponent_large_arguments():
    # Up to the truncation of a mean of 1e6 photons each value is within
    # a few ulps of the exact integer rounded to float.
    m_values = np.unique(np.r_[np.geomspace(1000, 1_007_044, 400).astype(np.int64), 1_007_044])
    for n in range(0, 7):
        expected = np.array([float(math.comb(int(m), n)) for m in m_values])
        np.testing.assert_allclose(binomial_exponents(m_values, n), expected, rtol=1e-15, atol=0)


def test_binomial_exponents_vectorizes():
    m_values = np.arange(0, 300)
    for n in range(0, 6):
        column = binomial_exponents(m_values, n)
        expected = np.array([float(math.comb(m, n)) for m in range(300)])
        np.testing.assert_allclose(column, expected, rtol=1e-12)


def test_log_binomial_consistency():
    design = _binomial_table(np.arange(401), 7)
    for m, n in ((5, 2), (80, 4), (400, 6)):
        assert design[m, n] == math.comb(m, n)
        assert binomial_exponents(np.array([m]), n)[0] == math.comb(m, n)


def test_binomial_table_is_bitwise_the_recurrence():
    # The falling-factorial recurrence written out, one order at a time:
    # column n is column n - 1 times max(m - (n - 1), 0), divided by n.
    # The kernel forms the columns in place, and column 1 as m itself,
    # to the same bits, in its Fortran layout, below the order, at window
    # photon numbers up to 2**53 and past overflow to inf.
    def recurrence(m, order):
        m = np.asarray(m, dtype=float)
        columns = [np.ones(m.shape)]
        for n in range(1, order):
            columns.append(columns[-1] * np.maximum(m - (n - 1), 0.0) / n)
        return np.stack(columns, axis=-1)

    cases = [
        (np.arange(12), 1),
        (np.arange(12), 2),
        (np.arange(12), 7),
        (np.arange(97_000, 102_000), 4),
        (np.array([[0, 1, 2], [3, 4, 70]]), 6),
        (np.arange(2000), 80),
        (np.array([2**53 - 5, 2**53]), 25),
    ]
    with np.errstate(over="ignore"):
        for m, order in cases:
            expected = recurrence(m, order)
            assert np.isinf(expected).any() == (order == 25)
            table = _binomial_table(np.asarray(m, dtype=np.int64), order)
            np.testing.assert_array_equal(table, expected)
            assert table.tobytes(order="A") == np.asarray(expected, order="F").tobytes(order="A")
            np.testing.assert_array_equal(binomial_exponents(m, order - 1), expected[..., -1])


def test_truncation_for_oracle_values():
    # Smallest N with Poisson tail beyond N-1 below 1e-12, computed in
    # extended precision.
    assert truncation_for(30.0) == 77
    assert truncation_for(4.0) == 26
    assert truncation_for(100.0) == 179
    assert truncation_for(0.0) == 1


def test_truncation_for_bounds_the_tail():
    from scipy.special import gammainc

    for mean in (0.5, 7.3, 42.0):
        n = truncation_for(mean)
        # gammainc(N, mu) is the probability of N or more Poisson events.
        assert gammainc(n, mean) < 1e-12
        assert gammainc(n - 1, mean) >= 1e-12 or n == 1


def test_truncation_for_rejects_bad_arguments():
    with pytest.raises(ValueError):
        truncation_for(-1.0)
    # In floating point no truncation clears the tail at 1e300.
    with pytest.raises(ValueError, match="too large"):
        truncation_for(1e300)


@pytest.mark.parametrize(
    "call, whole",
    [
        (lambda k: poisson_log_weights(1.0, k), 5),
        (lambda k: binomial_exponents(np.arange(4), k), 2),
        (lambda k: npd_povm(0.1, k, 10).click, 2),
        (lambda k: MechanismLogVector.at_truncation(np.zeros(2), k).truncation, 5),
        (lambda k: npd_povm(0.1, 1, 4).padded(k), 6),
    ],
    ids=[
        "poisson_log_weights",
        "binomial_exponents",
        "npd_povm",
        "at_truncation",
        "padded",
    ],
)
def test_count_arguments_are_whole_numbers(call, whole):
    # A whole float is the same count; a fraction or a bool is refused
    # rather than rounded by np.arange, read as order 1 or left to fail
    # with an IndexError or TypeError.
    np.testing.assert_array_equal(call(float(whole)), call(whole))
    for bad in (whole + 0.5, True):
        with pytest.raises(ValueError, match="whole number"):
            call(bad)


def test_kernels_refuse_out_of_range_arguments():
    with pytest.raises(ValueError, match="mean photon number"):
        poisson_log_pmf(np.arange(3), -1.0)
    with pytest.raises(ValueError, match="truncation"):
        poisson_log_weights(1.0, 0)
    # The message echoes the refused order.
    with pytest.raises(ValueError, match="-1"):
        binomial_exponents(np.arange(3), -1)
    with pytest.raises(ValueError, match="whole number"):
        binomial_exponents(np.arange(3), 2**53)
    with pytest.raises(ValueError, match="m >= 0"):
        binomial_exponents(np.array([-1, 2]), 1)


def test_value_classes_compare_their_arrays_by_value(tmp_path):
    # Distinct objects holding arrays of more than one element compare by
    # value: equal copies from a document, a CSV file, a replace or pickle
    # are equal, a changed element or length is not, another class is not,
    # and the fields kept out of the comparison (_survival, _data) take no
    # part.
    # Hashing stays as the dataclass makes it: an array field refuses it.
    truth = SCALED_PARAMS[20]
    probes = geometric_probe_grid(truth)
    record = simulate(ExperimentConfig(truth=truth, probes=probes, seed=3, trials=probes.trials))
    report = fit_params(probes, record, max_order=3)
    report_copy = dataclasses.replace(
        report, params=NonlinearSpdParams(report.params.p.copy()), _data=None
    )
    config = ExperimentConfig(truth=truth, probes=probes, seed=3, trials=probes.trials)
    write_click_data(tmp_path / "clicks.csv", probes, record)
    probes_read, record_read = read_click_data(tmp_path / "clicks.csv")
    povm = DiagonalPovm([0.0, 0.25, 0.5])
    design = MechanismLogVector.at_truncation(report.h, 40)
    copies = [
        (truth, NonlinearSpdParams.from_dict(truth.to_dict())),
        (povm, DiagonalPovm.from_dict(povm.to_dict())),
        (probes, probes_read),
        (record, record_read),
        (report, report_copy),
        (design, MechanismLogVector.at_truncation(report.h.copy(), 40)),
        (config, ExperimentConfig.from_dict(config.to_dict())),
    ]
    for value, copy in copies:
        assert value is not copy
        assert value == copy and not value != copy, type(value).__name__
        assert pickle.loads(pickle.dumps(value)) == value, type(value).__name__
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert report._data is not None and report_copy._data is None
    unequal = [
        (truth, NonlinearSpdParams(truth.p * 0.5)),
        (truth, NonlinearSpdParams(np.append(truth.p, 0.0))),
        (povm, DiagonalPovm([0.0, 0.25, 0.75])),
        (povm, DiagonalPovm([0.0, 0.25])),
        (probes, ProbeSet(probes.intensities[:-1], probes.trials)),
        (probes, ProbeSet(probes.intensities * 2.0, probes.trials)),
        (probes, ProbeSet(probes.intensities, probes.trials + 1)),
        (record, ClickRecord(record.clicks[:-1], record.trials)),
        (record, ClickRecord(np.minimum(record.clicks + 1, record.trials), record.trials)),
        (report, dataclasses.replace(report, objective=report.objective * 2)),
        (report, dataclasses.replace(report, kept_orders=(1,))),
        (design, MechanismLogVector.at_truncation(report.h, 41)),
    ]
    for value, other in unequal:
        assert value != other and not value == other, type(value).__name__
    assert truth.__eq__(DiagonalPovm(truth.p)) is NotImplemented
    assert truth != DiagonalPovm(truth.p) and truth != list(truth.p)


def test_value_classes_own_read_only_copies_of_their_arrays():
    # Each value class stores a read-only copy of every array it is given:
    # the caller's array stays writable, and a later edit of it does not
    # reach the value. ExperimentConfig holds its arrays through its truth
    # and probe set, and its own fields are frozen too.
    p = np.array([1e-3, 0.05, 2e-3])
    click = np.array([0.0, 0.25, 0.5])
    intensities = np.array([0.0, 1.0, 2.0])
    clicks = np.array([0, 40, 90], dtype=np.int64)
    h = np.array([-1e-3, -0.05])
    residuals = np.array([0.0, 1e-4, 2e-4])
    params = NonlinearSpdParams(p)
    probes = ProbeSet(intensities, 100)
    values = [
        (params, "p", p),
        (DiagonalPovm(click), "click", click),
        (probes, "intensities", intensities),
        (ClickRecord(clicks, 100), "clicks", clicks),
        (MechanismLogVector(h, 6), "h", h),
        (FitReport(NonlinearSpdParams(p[:2]), (0, 1), 3e-4, residuals, h), "h", h),
        (
            FitReport(NonlinearSpdParams(p[:2]), (0, 1), 3e-4, residuals, h),
            "per_probe_residuals",
            residuals,
        ),
    ]
    config = ExperimentConfig(truth=params, probes=probes, seed=5, trials=100)
    document = config.to_dict()
    kept = [getattr(value, name).copy() for value, name, _ in values]
    for (value, name, given), before in zip(values, kept):
        held = getattr(value, name)
        assert given.flags.writeable, (type(value).__name__, name)
        assert not held.flags.writeable and not np.shares_memory(held, given)
        with pytest.raises(ValueError, match="read-only"):
            held[0] = held[-1]
        given[0] = given[-1]
        np.testing.assert_array_equal(held, before)
    assert config.to_dict() == document
    for name in ("seed", "trials", "probes"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, None)
