"""Tests for the binomial loss channel and its inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from nlspd import loss
from nlspd.exceptions import IllConditionedInversionError
from nlspd.loss import _loss_matrix, lossy_click_probability, scale_povm, unscale_povm
from nlspd.povm import (
    DiagonalPovm,
    NonlinearSpdParams,
    nonlinear_povm,
    npd_povm,
    povm_click_probability,
    spd_povm,
    truncation_for,
)

# Extended-precision binomial average of pi = [0, .1, .3, .6, 1, 1] at
# transmissivity 0.6: entry m is sum_k C(m,k) .6^k .4^(m-k) pi[k].
SCALE_ORACLE = np.array([0.0, 0.06, 0.156, 0.288, 0.456, 0.62112])


def test_scale_povm_matches_binomial_oracle():
    pi = DiagonalPovm(click=np.array([0.0, 0.1, 0.3, 0.6, 1.0, 1.0]), truncation=6)
    scaled = scale_povm(pi, 0.6)
    np.testing.assert_allclose(scaled.click, SCALE_ORACLE, atol=1e-14)


def test_loss_matrix_is_binomial_and_stochastic():
    matrix = _loss_matrix(0.35, 12)
    for m in range(12):
        row = binom.pmf(np.arange(12), m, 0.35)
        np.testing.assert_allclose(matrix[m], row, atol=1e-13)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


def test_matrix_application_equals_scale_povm():
    povm = nonlinear_povm(NonlinearSpdParams([0.02, 0.3, 0.1]), 25)
    np.testing.assert_allclose(
        _loss_matrix(0.55, 25) @ povm.click, scale_povm(povm, 0.55).click, atol=1e-13
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    click=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    a=st.floats(0.01, 1.0),
    b=st.floats(0.01, 1.0),
)
def test_semigroup_property(click, a, b):
    # Loss eta_1 then eta_2 is loss eta_1 eta_2. A nondecreasing click
    # vector stays nondecreasing, and more loss never adds clicks.
    povm = DiagonalPovm(click=np.sort(click), truncation=len(click))
    once = scale_povm(povm, a * b)
    twice = scale_povm(scale_povm(povm, a), b)
    np.testing.assert_allclose(twice.click, once.click, rtol=0, atol=1e-12)
    assert np.all(np.diff(once.click) >= -1e-15)
    weaker, stronger = scale_povm(povm, max(a, b)), scale_povm(povm, min(a, b))
    assert np.all(stronger.click <= weaker.click + 1e-15)
    assert np.all(weaker.click <= povm.click + 1e-15)


def _inside_conditioning_bound(eta):
    """Truncations up to 60 whose forward substitution at eta amplifies
    rounding by at most ``_DIRECT_SOLVE_TARGET`` (the bound of
    ``unscale_povm``'s direct solve)."""
    amplification = 3 * np.finfo(float).eps
    largest = 60 if eta == 1.0 else int(
        1 + np.log(loss._DIRECT_SOLVE_TARGET / amplification) / np.log((2.0 - eta) / eta)
    )
    return st.integers(1, min(60, largest))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    case=st.floats(0.5, 1.0).flatmap(
        lambda eta: st.tuples(
            st.just(eta),
            _inside_conditioning_bound(eta).flatmap(
                lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
            ),
        )
    )
)
def test_unscale_inverts_scale_inside_its_conditioning_bound(case):
    # Any click vector in [0, 1], monotone or not: its loss image lies in
    # [0, 1] too, so the inversion sees it unclipped.
    eta, click = case
    povm = DiagonalPovm(click=np.array(click), truncation=len(click))
    recovered, violation = unscale_povm(scale_povm(povm, eta), eta, return_violation=True)
    np.testing.assert_allclose(recovered.click, povm.click, rtol=0, atol=1e-8)
    assert violation <= 1e-8


def test_loss_maps_refuse_oversized_matrices():
    # N = 6,000: the N x N loss matrix takes 275 MiB and the (2N - 2) x N
    # stacked inversion 549 MiB, both above MAX_DENSE_BYTES (256 MiB).
    povm = DiagonalPovm(click=np.linspace(0.0, 1.0, 6000), truncation=6000)
    with pytest.raises(ValueError, match="MiB limit"):
        scale_povm(povm, 0.5)
    with pytest.raises(ValueError, match="MiB limit"):
        unscale_povm(povm, 0.5)


def test_identity_transmissivity_is_noop():
    povm = spd_povm(0.4, 15)
    np.testing.assert_array_equal(scale_povm(povm, 1.0).click, povm.click)


def test_dark_counts_survive_loss():
    # The vacuum element is untouched: losing photons from nothing is nothing.
    povm = nonlinear_povm(NonlinearSpdParams([0.07, 0.2]), 18)
    for eta in (0.1, 0.5, 0.9):
        assert scale_povm(povm, eta).click[0] == pytest.approx(0.07, abs=1e-15)


def test_single_photon_mechanism_eta_law_is_exact():
    # Binomial thinning folds exactly into the order-one efficiency.
    for p1, eta in ((0.3, 0.45), (0.9, 0.2)):
        scaled = scale_povm(spd_povm(p1, 30), eta)
        np.testing.assert_allclose(scaled.click, spd_povm(eta * p1, 30).click, atol=1e-12)


def test_probe_side_equals_detector_side():
    # Attenuating the probe and attenuating the detector give one response.
    params = NonlinearSpdParams([5e-3, 0.15, 0.08])
    mean = 4.0
    povm = nonlinear_povm(params, truncation_for(mean) + 20)
    for eta in (0.25, 0.6, 0.95):
        probe_side = lossy_click_probability(povm, eta, mean)
        detector_side = povm_click_probability(scale_povm(povm, eta), mean)
        assert probe_side == pytest.approx(detector_side, abs=1e-10)


def test_unscale_round_trip():
    instances = [
        spd_povm(0.6, 40),
        npd_povm(0.3, 2, 30),
        nonlinear_povm(NonlinearSpdParams([1e-2, 0.2, 0.05]), 60),
    ]
    for povm in instances:
        for eta in (0.5, 0.8, 1.0):
            recovered = unscale_povm(scale_povm(povm, eta), eta)
            np.testing.assert_allclose(recovered.click, povm.click, atol=1e-8)


def test_unscale_reports_clean_violation():
    povm, violation = unscale_povm(
        scale_povm(spd_povm(0.2, 30), 0.7), 0.7, return_violation=True
    )
    assert violation == 0.0
    assert isinstance(povm, DiagonalPovm)


def test_unscale_flags_ill_conditioned_inversion():
    # A hard step is far outside the image of a strong loss channel; its
    # exact inverse oscillates violently and must be refused, not clamped.
    step = DiagonalPovm(click=np.r_[np.zeros(50), np.ones(10)], truncation=60)
    with pytest.raises(IllConditionedInversionError) as excinfo:
        unscale_povm(step, 0.3)
    assert excinfo.value.violation > 0.1


def test_eta_validation():
    povm = spd_povm(0.3, 10)
    for eta in (0.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            scale_povm(povm, eta)
        with pytest.raises(ValueError):
            unscale_povm(povm, eta)
        with pytest.raises(ValueError):
            lossy_click_probability(povm, eta, 1.0)
