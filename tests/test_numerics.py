"""Tests for the Poisson and binomial primitives.

The frozen reference values were produced with a 50-digit extended
precision evaluation of the same formulas; agreement is required at the
level float64 can represent.
"""

import math

import numpy as np
import pytest

from nlspd.numerics import binomial_exponents, design_matrix, poisson_log_weights
from nlspd.povm import truncation_for

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
    design = design_matrix(401, 7)
    for m, n in ((5, 2), (80, 4), (400, 6)):
        assert design[m, n] == math.comb(m, n)
        assert binomial_exponents(np.array([m]), n)[0] == math.comb(m, n)


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
