"""Tests for the deterministic click-statistics sampler and probe grids."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special._ufuncs import _binom_pmf, _binom_ppf
from scipy.stats import binom

from nlspd.exceptions import DataFormatError, SaturationCapError
from nlspd.povm import (
    DiagonalPovm,
    NonlinearSpdParams,
    coherent_click_probability,
    spd_povm,
)
from nlspd.reference import SCALED_PARAMS
from nlspd.simulator import (
    ExperimentConfig,
    _saturation_intensity,
    geometric_probe_grid,
    simulate,
)
from nlspd.tomography import ProbeSet

SPD = NonlinearSpdParams([0.0, 0.1])


def _config(truth, intensities, seed, trials=100_000):
    probes = ProbeSet(intensities=np.asarray(intensities, dtype=float), trials=trials)
    return ExperimentConfig(truth=truth, probes=probes, seed=seed, trials=trials)


def test_simulation_is_reproducible():
    config = _config(SPD, [0.0, 0.5, 2.0, 8.0], seed=42)
    first = simulate(config)
    second = simulate(config)
    np.testing.assert_array_equal(first.clicks, second.clicks)


def test_different_seeds_differ():
    a = simulate(_config(SPD, [0.0, 0.5, 2.0, 8.0], seed=1))
    b = simulate(_config(SPD, [0.0, 0.5, 2.0, 8.0], seed=2))
    assert np.any(a.clicks != b.clicks)


def test_sample_mean_matches_click_probability():
    # 200 independent records at a single intensity: the averaged count
    # must sit within 4 standard errors of the exact probability.
    mu = 3.5667
    q = coherent_click_probability(SPD, mu)
    counts = [
        simulate(_config(SPD, [0.0, mu], seed=seed)).clicks[1] for seed in range(200)
    ]
    standard_error = np.sqrt(q * (1.0 - q) * 100_000 / 200)
    assert abs(np.mean(counts) - q * 100_000) <= 4.0 * standard_error


def test_binomial_ufuncs_match_scipy_stats():
    # simulate and the loss matrix call the ufuncs behind binom.ppf and
    # binom.pmf directly; a scipy release that changes them fails here.
    rng = np.random.default_rng(5)
    u, q = rng.random(20_000), rng.random(20_000) ** 3
    np.testing.assert_array_equal(_binom_ppf(u, 100_000, q), binom.ppf(u, 100_000, q))
    # Edges: certain and impossible clicks, and u = 0, which binom.ppf maps
    # to -1 (below the support) and the ufunc to 0 clicks.
    for prob in (0.0, 1.0):
        for draw in (0.0, 0.4, 0.999):
            expected = max(binom.ppf(draw, 1000, prob), 0.0)
            assert _binom_ppf(draw, 1000, prob) == expected
    m, n = np.meshgrid(np.arange(300), np.arange(300))
    for eta in (0.1, 0.35, 0.5, 0.9, 1.0):
        expected = binom.pmf(m, n, eta)
        np.testing.assert_array_equal(np.where(m <= n, _binom_pmf(m, n, eta), 0.0), expected)


def test_zero_probability_rows_never_click():
    # A dark-count-free detector cannot click on vacuum.
    for seed in range(5):
        record = simulate(_config(SPD, [0.0, 1.0], seed=seed))
        assert record.clicks[0] == 0


def test_unit_probability_rows_always_click():
    always = DiagonalPovm(click=np.ones(40), truncation=40)
    record = simulate(_config(always, [0.0, 2.0], seed=3, trials=1000))
    np.testing.assert_array_equal(record.clicks, [1000, 1000])


def test_povm_truth_and_params_truth_agree_in_distribution():
    # A POVM built from the parameters must induce the same sampler
    # outcomes as the parameters themselves under one seed.
    params = NonlinearSpdParams([1e-3, 0.2])
    from nlspd.povm import nonlinear_povm, truncation_for

    povm = nonlinear_povm(params, truncation_for(8.0))
    grid = [0.0, 0.5, 2.0, 8.0]
    a = simulate(_config(params, grid, seed=11))
    b = simulate(_config(povm, grid, seed=11))
    np.testing.assert_array_equal(a.clicks, b.clicks)


def test_config_validation():
    probes = ProbeSet(intensities=np.array([0.0, 1.0]), trials=100)
    with pytest.raises(ValueError):
        ExperimentConfig(truth=SPD, probes=probes, seed=-1, trials=100)
    with pytest.raises(ValueError):
        ExperimentConfig(truth=SPD, probes=probes, seed=2**64, trials=100)
    with pytest.raises(ValueError):
        ExperimentConfig(truth=SPD, probes=probes, seed=0, trials=50)  # mismatch
    with pytest.raises(TypeError):
        ExperimentConfig(truth="spd", probes=probes, seed=0, trials=100)


def test_config_dict_round_trip():
    probes = ProbeSet(intensities=np.array([0.0, 1.0, 3.0]), trials=500)
    for truth in (NonlinearSpdParams([0.01, 0.2]), spd_povm(0.1, 30)):
        config = ExperimentConfig(truth=truth, probes=probes, seed=9, trials=500)
        again = ExperimentConfig.from_dict(config.to_dict())
        assert type(again.truth) is type(config.truth)
        assert again.seed == 9
        np.testing.assert_array_equal(again.probes.intensities, probes.intensities)
    with pytest.raises(DataFormatError):
        ExperimentConfig.from_dict({"seed": 1})


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    povm_truth=st.booleans(),
    positive=st.lists(
        st.floats(0.0, 1e12, exclude_min=True), min_size=1, max_size=10, unique=True
    ),
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 10**12),
)
def test_config_json_round_trip(values, povm_truth, positive, seed, trials):
    truth = (
        DiagonalPovm(click=np.array(values), truncation=len(values))
        if povm_truth
        else NonlinearSpdParams(np.array(values))
    )
    probes = ProbeSet(intensities=np.array([0.0] + sorted(positive)), trials=trials)
    config = ExperimentConfig(truth=truth, probes=probes, seed=seed, trials=trials)
    doc = config.to_dict()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(doc)))
    assert again.to_dict() == doc
    assert type(again.truth) is type(truth)


def test_sweep_grid_brackets_saturation():
    # analytic 99.9% crossing of 1 - exp(-0.1 mu)
    crossing = np.log(1000.0) / 0.1
    endpoint = _saturation_intensity(SPD)
    assert crossing <= endpoint <= 1.2 * crossing
    # the step before the endpoint is still below saturation
    q_before = coherent_click_probability(SPD, endpoint / 1.2)
    assert q_before <= 1.0 - 1e-3


def test_sweep_grid_matches_bisection_oracle():
    truth = SCALED_PARAMS[16]
    endpoint = geometric_probe_grid(truth).intensities[-1]
    oracle = brentq(
        lambda mu: coherent_click_probability(truth, mu) - (1.0 - 1e-3), 1.0, 1e6
    )
    assert oracle <= endpoint <= 1.2 * oracle


def test_sweep_grid_rejects_unsaturable_detector():
    with pytest.raises(SaturationCapError):
        geometric_probe_grid(NonlinearSpdParams([1e-3]))


def test_geometric_grid_shape():
    grid = geometric_probe_grid(SPD)
    assert len(grid) == 61
    assert grid.intensities[0] == 0.0
    assert grid.trials == 100_000
    body = grid.intensities[1:]
    assert body[0] == pytest.approx(0.01)
    assert body[-1] == pytest.approx(_saturation_intensity(SPD))
    # geometric spacing has a constant ratio
    ratios = body[1:] / body[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
