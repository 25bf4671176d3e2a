"""Tests for POVM construction and coherent-state responses."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc
from scipy.stats import poisson

from nlspd.exceptions import DataFormatError, TruncationError
from nlspd.numerics import poisson_log_weights
from nlspd.povm import (
    DiagonalPovm,
    NonlinearSpdParams,
    _carries,
    _chernoff_window,
    _coherent_clicks,
    _poisson_rows,
    coherent_click_probability,
    log_survival,
    nonlinear_povm,
    npd_povm,
    povm_click_probability,
    spd_povm,
    truncation_for,
)
from nlspd.reference import UNSCALED_PARAMS

# Extended-precision click probabilities for mechanisms (P0, P1, P2) =
# (0.01, 0.2, 0.05): click[m] = 1 - 0.99 * 0.8^m * 0.95^C(m,2).
PRODUCT_ORACLE = [
    (0, 0.01),
    (1, 0.208),
    (4, 0.701917297984),
    (10, 0.989429456871281409),
]

# Poisson average of the same detector at mean 2.5, extended precision.
COHERENT_ORACLE = 0.451915103717191486

PARAMS = NonlinearSpdParams([0.01, 0.2, 0.05])


@pytest.mark.parametrize("m, expected", PRODUCT_ORACLE)
def test_nonlinear_povm_matches_product_oracle(m, expected):
    povm = nonlinear_povm(PARAMS, 11)
    assert povm.click[m] == pytest.approx(expected, abs=1e-14)


def test_coherent_click_matches_oracle():
    assert coherent_click_probability(PARAMS, 2.5) == pytest.approx(
        COHERENT_ORACLE, abs=1e-12
    )


def test_coherent_click_is_poisson_average_of_povm():
    mean = 3.2
    n = truncation_for(mean)
    povm = nonlinear_povm(PARAMS, n)
    direct = float(poisson.pmf(np.arange(n), mean) @ povm.click)
    assert coherent_click_probability(PARAMS, mean) == pytest.approx(direct, abs=1e-12)
    assert povm_click_probability(povm, mean) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("mean", [30.0, 1e4])
def test_coherent_click_window_matches_full_sum(mean):
    # The Poisson-window sum against the same normalized sum over every
    # photon number 0..N-1, with N far past the window's end; the raw
    # 20 uA detector is far from saturation at both means.
    params = UNSCALED_PARAMS[20]
    n = truncation_for(mean) + 400
    weights = np.exp(poisson_log_weights(mean, n))
    survival = np.exp(log_survival(params.p, n))
    full = 1.0 - weights @ survival / weights.sum()
    assert abs(coherent_click_probability(params, mean) - full) <= 1e-15


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    means=st.lists(st.floats(0.0, 400.0), min_size=1, max_size=6),
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    cap=st.sampled_from(["none", "largest", "each"]),
)
def test_windowed_rows_match_dense_probe_rows(means, p, cap):
    # Windowed, normalized rows against the dense rows 0..N-1 up to the
    # largest window end: they differ by the mass beyond the windows and
    # truncations, under 1e-12 per entry. A click probability can differ by
    # all of a row's tail (below 1e-12) plus the dense row's own rounding
    # (measured worst over these examples: 5.5e-13 and 1.1e-12).
    means = np.array(means)
    largest = truncation_for(means.max())
    truncation = {"none": None, "largest": largest, "each": [truncation_for(mu) for mu in means]}
    m_values, matrix = _poisson_rows(means, truncation[cap]).union()
    n = int(m_values[-1]) + 1
    dense = np.exp(poisson_log_weights(means, n))
    windowed = np.zeros_like(dense)
    windowed[:, m_values] = matrix.toarray()
    assert np.abs(windowed - dense).max() <= 1e-12
    params = NonlinearSpdParams(np.array(p))
    clicks = _coherent_clicks(params, means)
    assert np.abs(clicks - dense @ nonlinear_povm(params, n).click).max() <= 2e-12
    assert np.array_equal(clicks, [coherent_click_probability(params, mu) for mu in means])


def _first_passing(passes, lo, hi):
    """Smallest m in (lo, hi] with ``passes(m)``, elementwise, by bisection;
    ``passes`` must be monotone in m, false at lo and true at hi."""
    while np.any(hi - lo > 1):
        mid = np.where(hi - lo > 1, (lo + hi) // 2, hi)
        passed = passes(mid)
        lo, hi = np.where(passed, lo, mid), np.where(passed, mid, hi)
    return hi


def test_chernoff_windows_bound_the_dropped_mass():
    # Each window leaves at most 1e-16 of the Poisson mass below m_lo and
    # at most 1e-16 at or above m_hi (gammaincc(m, mu) = P(M < m) and
    # gammainc(m, mu) = P(M >= m) as the oracle). Means of 1e10 and 1e12
    # lie where scipy's -1 branch of Lambert's W stalls at -1.
    means = np.concatenate(
        [[0.0, 5e-324, 1e-300, math.log(1e16)], np.geomspace(1e-6, 1e9, 2000), [1e10, 1e12]]
    )
    m_lo, m_hi = _chernoff_window(means, 1e-16)
    below = np.where(m_lo > 0, gammaincc(np.maximum(m_lo, 1.0), means), 0.0)
    assert below.max() <= 1e-16
    assert gammainc(m_hi, means).max() <= 1e-16
    # Up to 1e9, where gammainc is still accurate, each window is at most
    # 6 % plus 2 terms wider than the exact window found by bisection; the
    # exact m_lo is one below the first m with P(M < m) > 1e-16.
    means, m_lo, m_hi = means[:-2], m_lo[:-2], m_hi[:-2]
    floor = np.floor(means)
    exact_hi = _first_passing(lambda m: gammainc(m, means) <= 1e-16, floor, m_hi)
    exact_lo = _first_passing(lambda m: gammaincc(m, means) > 1e-16, m_lo, floor + 1) - 1
    assert np.all(m_hi - m_lo <= 1.06 * (exact_hi - exact_lo) + 2)
    # The probe rows span exactly these windows.
    small = means <= 1e4
    rows = _poisson_rows(means[small])
    assert np.array_equal(rows.m[rows.starts[:-1]], m_lo[small])
    assert np.array_equal(rows.m[rows.starts[1:] - 1] + 1, m_hi[small])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_means_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        truncation_for(bad)
    with pytest.raises(ValueError, match="finite"):
        _poisson_rows([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        coherent_click_probability(PARAMS, bad)


@pytest.mark.parametrize("mean", [1e3, 1e6, 1e9])
def test_coherent_click_dark_plus_linear_closed_form(mean):
    # Dark counts plus a linear mechanism: 1 - (1 - p0) exp(-p1 mu).
    p0, p1 = 1e-3, 1e-9
    exact = 1.0 - (1.0 - p0) * math.exp(-p1 * mean)
    got = coherent_click_probability(NonlinearSpdParams([p0, p1]), mean)
    assert abs(got - exact) <= 1e-13


def test_spd_closed_form():
    p1 = 0.13
    povm = spd_povm(p1, 20)
    m = np.arange(20)
    np.testing.assert_allclose(povm.click, 1.0 - (1.0 - p1) ** m, atol=1e-14)


def test_npd_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        pn = float(rng.uniform(0.0, 1.0))
        order = int(rng.integers(0, 5))
        n = int(rng.integers(max(order, 1) + 1, 40))
        povm = npd_povm(pn, order, n)
        m = np.arange(n)
        groups = np.array([float(math.comb(int(mm), order)) for mm in m])
        expected = 1.0 - (1.0 - pn) ** groups
        np.testing.assert_allclose(povm.click, expected, atol=1e-12)


def test_npd_ignores_overflowing_unused_orders():
    # C(m, n) overflows to inf below m = 2000 for some n < 230; those
    # orders have p = 0 and must not turn the overflow into nan.
    with np.errstate(over="ignore"):
        povm = npd_povm(0.5, 230, 2000)
    assert np.all(povm.click[:230] == 0.0)
    assert povm.click[230] == pytest.approx(0.5, rel=1e-12)
    assert povm.click[-1] == 1.0


def test_spd_is_order_one_npd():
    a = spd_povm(0.37, 25)
    b = npd_povm(0.37, 1, 25)
    np.testing.assert_array_equal(a.click, b.click)


def test_nonlinear_povm_is_mechanism_product():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(0.0, 0.8, size=4)
        params = NonlinearSpdParams(p)
        n = 30
        survival = np.ones(n)
        for order in range(4):
            survival *= 1.0 - npd_povm(p[order], order, n).click
        np.testing.assert_allclose(
            nonlinear_povm(params, n).click, 1.0 - survival, atol=1e-12
        )


def test_click_vector_monotone_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(25):
        order = int(rng.integers(1, 6))
        p = rng.uniform(0.0, 1.0, size=order)
        povm = nonlinear_povm(NonlinearSpdParams(p), 40)
        assert np.all(povm.click >= 0.0)
        assert np.all(povm.click <= 1.0)
        assert np.all(np.diff(povm.click) >= -1e-15)


def test_saturated_mechanism_gives_unit_clicks():
    povm = nonlinear_povm(NonlinearSpdParams([0.0, 1.0]), 6)
    # Every state with at least one photon clicks with certainty.
    assert povm.click[0] == 0.0
    np.testing.assert_array_equal(povm.click[1:], 1.0)


def test_povm_click_probability_requires_adequate_truncation():
    povm = spd_povm(0.1, 6)
    with pytest.raises(TruncationError):
        povm_click_probability(povm, 5.0)


def test_truncation_check_agrees_with_truncation_for():
    # povm_click_probability tests its truncation with one _carries call
    # instead of searching for truncation_for(mu). The two must agree at
    # every truncation within 2 of the bound, for mu from 0 to 1e7.
    means = np.concatenate([[0.0, 1.0, 30.0, 1e6], np.geomspace(1e-6, 1e7, 4010)])
    bounds = np.array([truncation_for(mu) for mu in means])
    pairs = 0
    for offset in range(-2, 3):
        truncations = bounds + offset
        valid = truncations >= 1
        np.testing.assert_array_equal(
            _carries(truncations[valid], means[valid]), offset >= 0
        )
        pairs += int(valid.sum())
    assert pairs >= 20000
    for mu in (0.0, 0.5, 30.0, 2500.0):
        n = truncation_for(mu)
        povm_click_probability(spd_povm(0.1, n), mu)
        if n > 1:
            with pytest.raises(TruncationError, match=f"needs >= {n}"):
                povm_click_probability(spd_povm(0.1, n - 1), mu)


def test_coherent_click_rejects_negative_mean():
    with pytest.raises(ValueError):
        coherent_click_probability(PARAMS, -0.5)


def test_diagonal_povm_validation():
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([0.0, 1.2]), truncation=2)
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([-0.1, 0.5]), truncation=2)
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([0.0, 0.5]), truncation=3)
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([0.0]), truncation=0)
    with pytest.raises(ValueError, match="whole number"):
        DiagonalPovm.from_dict({"truncation": 2.7, "click": [0.0, 0.5]})
    assert DiagonalPovm.from_dict({"truncation": 2.0, "click": [0.0, 0.5]}).truncation == 2


def test_diagonal_povm_clips_rounding_fuzz():
    povm = DiagonalPovm(click=np.array([0.0, 1.0 + 1e-13]), truncation=2)
    assert povm.click[1] == 1.0


def test_diagonal_povm_click_is_read_only():
    povm = spd_povm(0.2, 5)
    with pytest.raises(ValueError):
        povm.click[0] = 0.5


def test_diagonal_povm_dict_round_trip():
    povm = nonlinear_povm(PARAMS, 9)
    doc = povm.to_dict()
    assert set(doc) == {"truncation", "click"}
    again = DiagonalPovm.from_dict(doc)
    np.testing.assert_array_equal(again.click, povm.click)
    assert again.truncation == povm.truncation


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    click=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_povm_and_params_json_round_trips(click, p):
    povm = DiagonalPovm(click=np.array(click), truncation=len(click))
    doc = povm.to_dict()
    again = DiagonalPovm.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc
    np.testing.assert_array_equal(again.click, povm.click)
    params = NonlinearSpdParams(np.array(p))
    doc = params.to_dict()
    assert NonlinearSpdParams.from_dict(json.loads(json.dumps(doc))).to_dict() == doc


def test_diagonal_povm_from_dict_rejects_malformed():
    with pytest.raises(DataFormatError):
        DiagonalPovm.from_dict({"click": [0.0, 0.5]})
    with pytest.raises(DataFormatError):
        DiagonalPovm.from_dict({"truncation": 2})


def test_params_validation_and_order():
    params = NonlinearSpdParams([0.2])
    assert params.order == 1
    with pytest.raises(ValueError):
        NonlinearSpdParams([])
    with pytest.raises(ValueError):
        NonlinearSpdParams([0.5, 1.4])
    with pytest.raises(ValueError):
        NonlinearSpdParams([[0.1, 0.2]])


def test_params_dict_round_trip():
    doc = PARAMS.to_dict()
    assert set(doc) == {"p"}
    again = NonlinearSpdParams.from_dict(doc)
    np.testing.assert_array_equal(again.p, PARAMS.p)
    with pytest.raises(DataFormatError):
        NonlinearSpdParams.from_dict({})
