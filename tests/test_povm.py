"""Tests for POVM construction and coherent-state responses."""

import dataclasses
import json
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, lambertw
from scipy.stats import poisson

from nlspd import povm as povm_module
from nlspd.numerics import _bernstein_reach, _binomial_table, _poisson_log_pmf, poisson_log_weights
from nlspd.povm import (
    _SATURATED_LOG_SURVIVAL,
    DiagonalPovm,
    NonlinearSpdParams,
    _check_carries,
    _coherent_clicks,
    _LogSurvival,
    _poisson_rows,
    coherent_click_probability,
    log_survival,
    nonlinear_povm,
    npd_povm,
    povm_click_probability,
    spd_povm,
    truncation_for,
)
from nlspd.reference import SCALED_PARAMS, UNSCALED_PARAMS
from nlspd.simulator import geometric_probe_grid
from nlspd.tomography import ProbeSet

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
)
def test_windowed_rows_match_dense_probe_rows(means, p):
    # Windowed, normalized rows against the dense rows 0..N-1 up to the
    # largest window end: they differ by the mass beyond the windows,
    # under 1e-12 per entry. A click probability can differ by all of a
    # row's tail (below 1e-12) plus the dense row's own rounding
    # (measured worst over these examples: 5.5e-13 and 1.1e-12).
    means = np.array(means)
    rows = _poisson_rows(means)
    m_values, columns = np.unique(rows.m, return_inverse=True)
    assert np.all(np.diff(m_values) > 0) and np.array_equal(m_values[columns], rows.m)
    n = int(m_values[-1]) + 1
    dense = np.exp(poisson_log_weights(means, n))
    windowed = np.zeros_like(dense)
    windowed[np.arange(means.size).repeat(np.diff(rows.starts)), rows.m] = rows.weights
    assert np.abs(windowed - dense).max() <= 1e-12
    params = NonlinearSpdParams(np.array(p))
    clicks = _coherent_clicks(params, means)
    assert np.abs(clicks - dense @ nonlinear_povm(params, n).click).max() <= 2e-12
    assert np.array_equal(clicks, [coherent_click_probability(params, mu) for mu in means])


def test_poisson_rows_take_each_mean_log_once_to_the_same_bits():
    # One logarithm per row, repeated over its window, against one per term:
    # on the fig1b grid and the scaled and raw reference grids, each with
    # its vacuum probe, the weights agree bitwise once each is divided by
    # the same row sums.
    grids = [np.geomspace(1.0, 1e6, 121)] + [
        geometric_probe_grid(truth).intensities
        for truth in (*SCALED_PARAMS.values(), *UNSCALED_PARAMS.values())
    ]
    for means in grids:
        rows = _poisson_rows(means)
        sizes = np.diff(rows.starts)
        per_term = np.exp(_poisson_log_pmf(rows.m, means.repeat(sizes)))
        per_term /= np.add.reduceat(per_term, rows.starts[:-1]).repeat(sizes)
        np.testing.assert_array_equal(rows.weights, per_term)


def _first_passing(passes, lo, hi):
    """Smallest m in (lo, hi] with ``passes(m)``, elementwise, by bisection;
    ``passes`` must be monotone in m, false at lo and true at hi."""
    while np.any(hi - lo > 1):
        mid = np.where(hi - lo > 1, (lo + hi) // 2, hi)
        passed = passes(mid)
        lo, hi = np.where(passed, lo, mid), np.where(passed, mid, hi)
    return hi


def test_poisson_windows_bound_the_dropped_mass():
    # Each window, the photon numbers within Bernstein's reach of the mean,
    # leaves at most 1e-17 of the Poisson mass below m_lo and at most 1e-17
    # at or above m_hi (measured: 4.6e-18; gammaincc(m, mu) = P(M < m) and
    # gammainc(m, mu) = P(M >= m) as the oracle).
    means = np.concatenate(
        [[0.0, 5e-324, 1e-300, math.log(1e16)], np.geomspace(1e-6, 1e9, 2000), [1e10, 1e12]]
    )
    reach = _bernstein_reach(means, math.log(1e16))
    m_lo = np.maximum(np.ceil(means - reach), 0.0)
    m_hi = np.floor(means + reach) + 1.0
    below = np.where(m_lo > 0, gammaincc(np.maximum(m_lo, 1.0), means), 0.0)
    assert below.max() <= 1e-17
    assert gammainc(m_hi, means).max() <= 1e-17
    # Up to 1e9, where gammainc is still accurate, each window is at most
    # 6 % plus 26 terms wider than the exact 1e-16 window found by
    # bisection (measured: 25.3 terms over, the reach's floor of 2/3 ln 1e16
    # per side at small means); the exact m_lo is one below the first m
    # with P(M < m) > 1e-16.
    means, m_lo, m_hi = means[:-2], m_lo[:-2], m_hi[:-2]
    floor = np.floor(means)
    exact_hi = _first_passing(lambda m: gammainc(m, means) <= 1e-16, floor, m_hi)
    exact_lo = _first_passing(lambda m: gammaincc(m, means) > 1e-16, m_lo, floor + 1) - 1
    assert np.all(m_hi - m_lo <= 1.06 * (exact_hi - exact_lo) + 26)
    # The probe rows span exactly these windows.
    small = means <= 1e4
    rows = _poisson_rows(means[small])
    assert np.array_equal(rows.m[rows.starts[:-1]], m_lo[small])
    assert np.array_equal(rows.m[rows.starts[1:] - 1] + 1, m_hi[small])


def test_negative_means_are_refused_before_their_windows():
    # Bernstein's reach of a negative mean is the root of a negative
    # variance; a probe set refuses the mean before any window is built.
    with pytest.raises(ValueError, match=">= 0"):
        ProbeSet([0.0, -1e6], 10)


def _lambertw_window(mean_photons, mass):
    """The Chernoff window by scipy's Lambert W: the oracle of ``truncation_for``'s bisection.

    The bound equals ``mass`` at ``k = mu exp(1 + W(x))``,
    ``x = (ln(1/mass) - mu) / (e mu)``, on W's principal branch above mu
    and its -1 branch below, with the branch-point series for p < 1e-3.
    """
    log_mass = np.log(mass)
    mu = np.maximum(mean_photons, mass)
    x = (-log_mass - mu) / (np.e * mu)
    p = np.sqrt(-2.0 * log_mass / mu)
    lower = np.where(p < 1e-3, -p - p**2 / 3 - 11 / 72 * p**3, 1.0 + lambertw(x, -1).real)
    upper = np.where(p < 1e-3, p - p**2 / 3 + 11 / 72 * p**3, 1.0 + lambertw(x).real)
    m_lo = np.where(x < 0, np.floor(mu * np.exp(lower)) + 1.0, 0.0)
    return m_lo, np.ceil(mu * np.exp(upper))


def _exact_tail(n, mean):
    """P(M >= n) for a Poisson mean, summed term by term in 30-digit arithmetic."""
    with mpmath.workdps(30):
        mu = mpmath.mpf(float(mean))
        term = mpmath.exp(n * mpmath.log(mu) - mu - mpmath.loggamma(n + 1))
        total = mpmath.mpf(0)
        while term > total * mpmath.mpf(10) ** -20:
            total += term
            n += 1
            term *= mu / n
        return total


def test_truncation_for_matches_the_incomplete_gamma_bisection():
    # The oracle bisects gammainc(N, mu) = P(M >= N) between floor(mu) and
    # the Lambert W end of the Chernoff window at DEFAULT_TAIL_MASS. The
    # two agree at every mean up to 2.4e6. Above, gammainc's relative error
    # reaches 2e-6, enough to move its N by one to four at 92 of the 310
    # means from 1e6 to 1e7; at each, the exact tail picks truncation_for's
    # N, as it does at the first two here.
    means = np.concatenate([[0.0, 1.0, 30.0, 1e6], np.geomspace(1e-6, 1e7, 4010)])
    expected = _first_passing(
        lambda m: gammainc(m, means) < 1e-12, np.floor(means), _lambertw_window(means, 1e-12)[1]
    )
    got = np.array([truncation_for(mu) for mu in means])
    differ = np.flatnonzero(got != expected)
    assert means[differ].min() > 2e6
    for i in differ[:2]:
        assert _exact_tail(int(got[i]), means[i]) < 1e-12 <= _exact_tail(int(got[i]) - 1, means[i])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_means_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        truncation_for(bad)
    with pytest.raises(ValueError, match="finite"):
        ProbeSet([0.0, 1.0, bad], 10)
    with pytest.raises(ValueError, match="finite"):
        coherent_click_probability(PARAMS, bad)


@pytest.mark.parametrize("mean", [2.0**53 + 2, 1e20])
def test_means_above_2_53_are_refused(mean):
    # Above 2**53 no double holds every photon number whole.
    for call in (
        lambda: truncation_for(mean),
        lambda: ProbeSet([0.0, mean], 10),
        lambda: coherent_click_probability(PARAMS, mean),
        lambda: povm_click_probability(spd_povm(0.1, 20), mean),
    ):
        with pytest.raises(ValueError, match="too large"):
            call()


def _exact_coherent_click(p, mean):
    """Coherent click probability of mechanisms p, summed term by term in
    30-digit arithmetic until the Poisson terms fall under 1e-40."""
    with mpmath.workdps(30):
        mu = mpmath.mpf(float(mean))
        h = [mpmath.log1p(-mpmath.mpf(float(v))) for v in p]
        total, weight, m = mpmath.mpf(0), mpmath.exp(-mu), 0
        while m <= mu or weight >= mpmath.mpf(10) ** -40:
            log_survival = sum(mpmath.binomial(m, n) * h_n for n, h_n in enumerate(h))
            total += weight * -mpmath.expm1(log_survival)
            m += 1
            weight *= mu / m
        return float(total)


@pytest.mark.parametrize(
    "params, mean",
    [
        (UNSCALED_PARAMS[16], 1.0),
        (UNSCALED_PARAMS[16], 10.0),
        (UNSCALED_PARAMS[16], 100.0),
        (SCALED_PARAMS[16], 0.01),
        (SCALED_PARAMS[16], 0.1),
    ],
    ids=["raw16-1", "raw16-10", "raw16-100", "scaled16-0.01", "scaled16-0.1"],
)
def test_coherent_click_keeps_relative_precision(params, mean):
    # Click probabilities from 7.3e-8 up, where 1 - F s would lose the
    # digits that the complement cancels (2.5e-10 relative at raw 16 uA,
    # mu = 1): each term's click is formed by expm1 and summed through the
    # normalized rows.
    exact = _exact_coherent_click(params.p, mean)
    assert abs(coherent_click_probability(params, mean) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("bias", sorted(UNSCALED_PARAMS))
def test_coherent_clicks_on_the_fig1b_grid_stay_in_unit_interval(bias):
    # The raw detectors from mu = 1 to 1e6 rise to saturation. A probe
    # whose window starts saturated is exactly 1.0, so the curve never
    # steps down there, as a saturated window's sum of rounded weights may.
    clicks = _coherent_clicks(UNSCALED_PARAMS[bias], np.geomspace(1.0, 1e6, 121))
    assert np.all((clicks >= 0.0) & (clicks <= 1.0))
    assert np.all(np.diff(clicks) >= 0)
    assert clicks[-1] == 1.0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    means=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6),
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
)
def test_probes_that_start_saturated_build_no_window(means, p):
    # Every probe summed over its full window, as one row each: a probe
    # whose window starts at a survival above 2^-55 gets exactly that
    # sum, one that starts at or below it gets exactly 1.0, within two
    # ulps (eps) of the full sum.
    means, params = np.array(means), NonlinearSpdParams(np.array(p))
    rows = _poisson_rows(means)
    full = np.minimum(rows @ -np.expm1(_LogSurvival.of(params.p).at(rows.m)), 1.0)
    first = rows.m[rows.starts[:-1]]
    skipped = _LogSurvival.of(params.p).at(first) <= -55 * math.log(2)
    clicks = _coherent_clicks(params, means)
    np.testing.assert_array_equal(clicks[~skipped], full[~skipped])
    assert np.all(clicks[skipped] == 1.0)
    assert np.all(full[skipped] >= 1.0 - np.finfo(float).eps)


def _clicks_by_the_plain_formula(p, means):
    # The click path written out, with no constant kept between calls: a
    # probe whose window starts at a log survival of at most ln 2^-55 is
    # 1.0, and every other probe sums -expm1(log survival) through its
    # _poisson_rows row, the log survival being the binomial table's
    # used columns times log1p(-p) and -inf from the first saturated
    # order up, clipped at 1.
    p = np.asarray(p, dtype=float)
    used = (p != 0) & (p < 1)
    saturated = p >= 1

    def log_survival_at(m):
        out = _binomial_table(m, p.size)[:, used] @ np.log1p(-p[used])
        if saturated.any():
            out[m >= saturated.argmax()] = -np.inf
        return out

    means = np.asarray(means, dtype=float)
    reach = _bernstein_reach(means, math.log(1e16))
    first = np.maximum(np.ceil(means - reach), 0.0).astype(np.int64)
    built = log_survival_at(first) > -55 * math.log(2)
    clicks = np.ones(means.size)
    if built.any():
        rows = _poisson_rows(means[built])
        clicks[built] = np.minimum(rows @ -np.expm1(log_survival_at(rows.m)), 1.0)
    return clicks


BITWISE_GRIDS = {
    "fig1b": np.geomspace(1.0, 1e6, 121),
    "fig2a": np.geomspace(1e-2, 300.0, 121),
    "wide": np.geomspace(1e-3, 1e7, 6000),
    "few": np.array([0.0, 0.5, 3.0]),
}

BITWISE_DETECTORS = {
    **{f"raw{bias}": params for bias, params in UNSCALED_PARAMS.items()},
    **{f"scaled{bias}": params for bias, params in SCALED_PARAMS.items()},
    "zero-orders": NonlinearSpdParams([0.0, 0.0, 3e-6]),
    "unit-p0": NonlinearSpdParams([1.0, 0.1]),
    "unit-p2": NonlinearSpdParams([1e-3, 0.05, 1.0]),
    "unit-p1-then-p2": NonlinearSpdParams([0.0, 1.0, 0.2]),
    "order-6": NonlinearSpdParams([2e-4, 3e-3, 1e-5, 1e-7, 1e-9, 1e-11]),
    "order-6-gaps": NonlinearSpdParams([0.0, 1e-2, 0.0, 1e-6, 0.0, 1e-10]),
}


@pytest.mark.parametrize("detector", sorted(BITWISE_DETECTORS))
def test_coherent_clicks_are_bitwise_the_plain_formula(detector):
    # The kept constants, the unchecked table kernel and the starts taken
    # once change no bit of any click, one probe per call or the whole
    # grid at once. Both sides run here, on one machine's BLAS.
    params = BITWISE_DETECTORS[detector]
    for name, grid in BITWISE_GRIDS.items():
        whole = _coherent_clicks(params, grid)
        np.testing.assert_array_equal(whole, _clicks_by_the_plain_formula(params.p, grid), name)
        # The wide grid's larger windows cost the most one call at a time:
        # every 7th of its means is still 858 calls.
        singles = grid[::7] if name == "wide" else grid
        for mean in singles:
            expected = _clicks_by_the_plain_formula(params.p, [mean])[0]
            assert coherent_click_probability(params, float(mean)) == expected, (name, mean)


def test_one_probe_click_pays_only_for_its_window(monkeypatch):
    # Work counts, not times: a built probe makes one binomial table, its
    # window's, and one window; a probe whose window starts at or past
    # the detector's first saturated photon number makes neither. Only
    # the detector's first click searches for that number.
    tables, windows = [], []

    def counted(calls, kernel):
        return lambda *args: calls.append(args) or kernel(*args)

    monkeypatch.setattr(
        povm_module, "_binomial_table", counted(tables, povm_module._binomial_table)
    )
    monkeypatch.setattr(
        povm_module, "_checked_poisson_rows", counted(windows, povm_module._checked_poisson_rows)
    )
    params = NonlinearSpdParams(UNSCALED_PARAMS[20].p)
    coherent_click_probability(params, 1.0)
    assert len(tables) > 1 and len(windows) == 1
    start = params._survival.first_saturated
    assert start == 88_397
    # The window of 9e4 starts at 87,413, below it; that of 1e5 at 97,274.
    for mean, built in [(0.0, True), (1.0, True), (9e4, True), (1e5, False), (2.0**53, False)]:
        tables.clear()
        windows.clear()
        for _ in range(3):
            coherent_click_probability(params, mean)
        assert (len(tables), len(windows)) == ((3, 3) if built else (0, 0)), mean


# Detectors whose first saturated photon number the search must find:
# the reference ones, zero orders, unit efficiencies, dark counts alone
# and lone tiny high orders, whose first saturated photon number can lie
# past 2**53.
START_DETECTORS = [
    *(params.p for params in UNSCALED_PARAMS.values()),
    *(params.p for params in SCALED_PARAMS.values()),
    [0.0, 0.0, 0.0],
    [1.0],
    [0.0, 1.0],
    [1e-3, 0.05, 1.0],
    [0.3],
    [1.0 - 2.0**-53],
    [0.0, 0.0, 1e-30],
]
LONE_ORDERS = st.builds(
    lambda order, exponent: [0.0] * order + [10.0**exponent],
    st.integers(1, 6),
    st.integers(-300, -1),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(p=st.sampled_from(START_DETECTORS) | LONE_ORDERS, data=st.data())
def test_first_saturated_photon_number_is_the_saturation_test(p, data):
    # For every window start lo up to 2**53, lo < first_saturated exactly
    # where the log survival at lo is above ln 2^-55: the one integer
    # compare is the test it replaces, at one start per call or many.
    survival = NonlinearSpdParams(p)._survival
    start = survival.first_saturated
    near = st.integers(-2000, 2000).map(lambda d: min(max(start + d, 0), 2**53))
    starts = data.draw(st.lists(st.integers(0, 2**53) | near, min_size=1, max_size=20))
    starts = np.array(starts + [max(start - 1, 0), min(start, 2**53), 2**53], dtype=np.int64)
    above = survival.at(starts) > _SATURATED_LOG_SURVIVAL
    np.testing.assert_array_equal(starts < start, above)
    for lo, built in zip(starts, above):
        assert (survival.at(np.array([lo]))[0] > _SATURATED_LOG_SURVIVAL) == built, lo


def test_first_saturated_photon_number_past_2_53():
    # [0, 0, 1e-30] saturates just short of 2**53; dark counts and zero
    # orders never do, so every window start up to 2**53 is built.
    assert NonlinearSpdParams([0.0, 0.0, 1e-30])._survival.first_saturated == 8_731_906_427_670_534
    for p in ([1e-3], [0.0, 0.0, 0.0], [0.0, 0.0, 1e-300]):
        assert NonlinearSpdParams(p)._survival.first_saturated == 2**53 + 1
    assert NonlinearSpdParams([1.0, 0.1])._survival.first_saturated == 0
    assert NonlinearSpdParams([0.0, 0.5, 1.0])._survival.first_saturated == 2


def test_povm_click_probability_normalizes_its_weights():
    # A linear detector at mu = 37,330, where the full Poisson weights sum
    # to 1 + 7.7e-12: divided by that sum, the click probability is within
    # 2e-12 of the 30-digit sum over the same truncation (closed form by
    # the regularized incomplete gamma function, P(M < N) = Q(N, mu)).
    mean, efficiency = 37_330.0, 2e-5
    n = truncation_for(mean)
    with mpmath.workdps(30):
        mu, q = mpmath.mpf(mean), mpmath.mpf(efficiency)
        exact = float(
            mpmath.gammainc(n, mu, regularized=True)
            - mpmath.exp(-mu * q) * mpmath.gammainc(n, mu * (1 - q), regularized=True)
        )
    got = povm_click_probability(spd_povm(efficiency, n), mean)
    assert abs(got - exact) <= 2e-12 * exact
    # Both sums take the same reduction, so a saturated POVM stays at 1.
    assert povm_click_probability(spd_povm(1.0, n), mean) <= 1.0


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


def test_log_survival_truncation_is_a_whole_number():
    # A whole float is the same truncation; a fraction or a bool is refused
    # rather than rounded up by np.arange.
    p = PARAMS.p
    np.testing.assert_array_equal(log_survival(p, 6.0), log_survival(p, 6))
    for bad in (5.5, True):
        with pytest.raises(ValueError, match="whole number"):
            log_survival(p, bad)


def test_saturated_mechanism_gives_unit_clicks():
    povm = nonlinear_povm(NonlinearSpdParams([0.0, 1.0]), 6)
    # Every state with at least one photon clicks with certainty.
    assert povm.click[0] == 0.0
    np.testing.assert_array_equal(povm.click[1:], 1.0)


def test_povm_click_probability_requires_adequate_truncation():
    povm = spd_povm(0.1, 6)
    with pytest.raises(ValueError, match="too small for mean photon number"):
        povm_click_probability(povm, 5.0)


def _carried(truncation, mean_photons):
    try:
        _check_carries(truncation, mean_photons)
    except ValueError as err:
        assert "too small for mean photon number" in str(err)
        return False
    return True


def _refused(truncation, mean_photons):
    try:
        povm_click_probability(DiagonalPovm(click=np.full(truncation, 0.5)), mean_photons)
    except ValueError as err:
        assert "too small for mean photon number" in str(err)
        return True
    return False


def _offsets(mu):
    # Truncations relative to truncation_for(mu): the tail sum decides at
    # -1, 0 and +1, and the shortcut of _check_carries at 50 + sqrt(mu),
    # past its threshold at every mean (401 above at mu = 1e6); +50 lies
    # past it for means up to 1e4.
    return (-1, 0, 1, 50, 50 + math.ceil(math.sqrt(mu)))


@pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-6, 0.3, 15.0, 37.9, 1e3, 37_330.0, 1e6])
def test_chernoff_shortcut_refuses_exactly_below_truncation_for(mu):
    needed = truncation_for(mu)
    for offset in _offsets(mu):
        if needed + offset >= 1:
            assert _refused(needed + offset, mu) == (offset < 0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(mu=st.floats(0.0, 1e6), which=st.integers(0, 4))
def test_chernoff_shortcut_agrees_with_truncation_for(mu, which):
    offset = _offsets(mu)[which]
    truncation = truncation_for(mu) + offset
    if truncation >= 1:
        assert _refused(truncation, mu) == (offset < 0)


def test_truncation_check_agrees_with_truncation_for():
    # povm_click_probability, reconstruct_povm and fit_objective refuse a
    # truncation through _check_carries. It must refuse exactly those
    # below truncation_for(mu), at every truncation within 2 of the bound,
    # for mu from 0 to 1e7.
    means = np.concatenate([[0.0, 1.0, 30.0, 1e6], np.geomspace(1e-6, 1e7, 4010)])
    bounds = np.array([truncation_for(mu) for mu in means])
    pairs = 0
    for offset in range(-2, 3):
        truncations = bounds + offset
        valid = truncations >= 1
        carried = [_carried(int(n), mu) for n, mu in zip(truncations[valid], means[valid])]
        np.testing.assert_array_equal(carried, offset >= 0)
        pairs += int(valid.sum())
    assert pairs >= 20000
    for mu in (0.0, 0.5, 30.0, 2500.0):
        n = truncation_for(mu)
        povm_click_probability(spd_povm(0.1, n), mu)
        if n > 1:
            with pytest.raises(ValueError, match=f"needs >= {n}"):
                povm_click_probability(spd_povm(0.1, n - 1), mu)


def test_coherent_click_rejects_negative_mean():
    with pytest.raises(ValueError):
        coherent_click_probability(PARAMS, -0.5)


def test_diagonal_povm_validation():
    # The truncation is the click vector's length; a document must agree.
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([0.0, 1.2]))
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        DiagonalPovm(click=np.array([]))
    assert DiagonalPovm(click=np.array([0.0, 0.5])).truncation == 2
    with pytest.raises(ValueError, match="length 2, expected 3"):
        DiagonalPovm.from_dict({"truncation": 3, "click": [0.0, 0.5]})
    with pytest.raises(ValueError):
        DiagonalPovm.from_dict({"truncation": 0, "click": []})
    with pytest.raises(ValueError, match="whole number"):
        DiagonalPovm.from_dict({"truncation": 2.7, "click": [0.0, 0.5]})
    assert DiagonalPovm.from_dict({"truncation": 2.0, "click": [0.0, 0.5]}).truncation == 2


def test_povm_builders_refuse_out_of_range_arguments():
    with pytest.raises(ValueError, match="finite"):
        DiagonalPovm(click=np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="truncation"):
        log_survival(np.array([0.1]), 0)
    # Each efficiency is checked as NonlinearSpdParams checks it: not read
    # as 0 (NaN), as a saturated order (1.5) or as a gain (-0.5).
    for bad in (np.nan, -0.5, 1.5):
        with pytest.raises(ValueError, match="efficiencies"):
            log_survival(np.array([0.5, bad]), 4)
    with pytest.raises(ValueError, match="efficiencies"):
        npd_povm(1.5, 1, 5)
    with pytest.raises(ValueError, match="mechanism order"):
        npd_povm(0.1, -1, 5)
    with pytest.raises(ValueError, match="mean photon number"):
        povm_click_probability(spd_povm(0.1, 20), -1.0)


def test_diagonal_povm_clips_rounding_fuzz():
    povm = DiagonalPovm(click=np.array([0.0, 1.0 + 1e-13]))
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
    povm = DiagonalPovm(click=np.array(click))
    doc = povm.to_dict()
    again = DiagonalPovm.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc
    np.testing.assert_array_equal(again.click, povm.click)
    params = NonlinearSpdParams(np.array(p))
    doc = params.to_dict()
    assert NonlinearSpdParams.from_dict(json.loads(json.dumps(doc))).to_dict() == doc


def test_zero_click_probability_is_stored_as_positive_zero():
    # -expm1(0) is -0.0 and np.clip keeps the sign; a click vector holds +0.0.
    click = nonlinear_povm(SCALED_PARAMS[16], 10).click
    assert click[0] == 0.0
    assert not np.signbit(click[0])


def test_padded_refuses_a_length_below_the_truncation():
    povm = npd_povm(0.1, 1, 4)
    np.testing.assert_array_equal(povm.padded(4), povm.click)
    np.testing.assert_array_equal(povm.padded(6)[4:], povm.click[-1])
    with pytest.raises(ValueError, match="cannot pad a click vector of truncation 4 to length 3"):
        povm.padded(3)


def test_diagonal_povm_from_dict_rejects_malformed():
    with pytest.raises(ValueError, match="malformed POVM document"):
        DiagonalPovm.from_dict({"click": [0.0, 0.5]})
    with pytest.raises(ValueError, match="malformed POVM document"):
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
    with pytest.raises(ValueError, match="malformed parameter document"):
        NonlinearSpdParams.from_dict({})


def test_params_keep_their_survival_constants_out_of_sight():
    # The log-survival constants taken as the parameters are built are no
    # field a caller sees: the repr, the comparison and the document hold
    # p alone, and every copy, pickled or replaced, carries its own p's.
    params = NonlinearSpdParams([1e-3, 0.0, 1.0, 0.2])
    m = np.arange(12)
    assert repr(params) == f"NonlinearSpdParams(p={params.p!r})"
    assert [f.name for f in dataclasses.fields(params) if f.init or f.compare] == ["p"]
    assert params == params
    assert NonlinearSpdParams([0.5]) == NonlinearSpdParams([0.5])
    assert NonlinearSpdParams([0.5]) != NonlinearSpdParams([0.25])
    assert params.to_dict() == {"p": [1e-3, 0.0, 1.0, 0.2]}
    copies = NonlinearSpdParams.from_dict(params.to_dict()), pickle.loads(pickle.dumps(params))
    for copy in copies:
        np.testing.assert_array_equal(copy.p, params.p)
        np.testing.assert_array_equal(copy._survival.at(m), params._survival.at(m))
    replaced = dataclasses.replace(params, p=[0.3])
    assert replaced.order == 1
    np.testing.assert_array_equal(replaced._survival.at(m), np.log1p(-0.3) * np.ones(12))
    assert coherent_click_probability(replaced, 2.0) == coherent_click_probability(
        NonlinearSpdParams([0.3]), 2.0
    )


def test_log_survival_is_bitwise_the_plain_formula():
    # The numerics probe's input: raw 16 uA at truncation_for(1e6). The
    # kept constants change no bit of the table product.
    p, n = UNSCALED_PARAMS[16].p, truncation_for(1e6)
    used = (p != 0) & (p < 1)
    expected = _binomial_table(np.arange(n), p.size)[:, used] @ np.log1p(-p[used])
    np.testing.assert_array_equal(log_survival(p, n), expected)
