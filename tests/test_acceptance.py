"""Acceptance suite: one check per shipped guarantee, A1 through A8.

Each passing test prints a single summary line with the measured
margins; tolerances are pinned literals in the assertions. Two pruning
targets (A4 at 20 uA and 16 uA) are quantitatively out of reach of
100 000-trial records, as the published kept sets require orders whose
significance sits several decades below the shot-noise floor; those
tests are marked as strict expected failures rather than weakened, and
the companion test pins the facts that are stable at this noise level.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from nlspd import modelfit, tomography
from nlspd.exceptions import ConvergenceError
from nlspd.loss import lossy_click_probability, scale_povm, unscale_povm
from nlspd.modelfit import (
    MechanismLogVector,
    fit_objective,
    fit_params,
    loss_scaling_analysis,
    prune_mechanisms,
)
from nlspd.numerics import binomial_table, poisson_log_weights
from nlspd.povm import (
    MAX_DENSE_BYTES,
    NonlinearSpdParams,
    coherent_click_probability,
    nonlinear_povm,
    npd_povm,
    povm_click_probability,
    spd_povm,
    truncation_for,
)
from nlspd.reference import SCALED_PARAMS, UNSCALED_PARAMS
from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
from nlspd.tomography import (
    ClickRecord,
    ProbeSet,
    fidelity,
    reconstruct_povm,
    scaled_fit_workflow,
)


def dense_probe_rows(intensities, n):
    """Poisson rows ``e^-mu mu^m / m!`` over m = 0..n-1, one per intensity: the dense oracle.

    A scalar intensity gives one row. The rows come from the numerics
    kernel, not from the Poisson windows the solvers use.
    """
    return np.exp(poisson_log_weights(intensities, n))


def _dense_fit_terms(h, probes, record):
    """Normalized residual and its Jacobian in h, from the dense probe matrix.

    r = (C - F (1 - exp(G h))) / C and J = F diag(exp(G h)) G / C over the
    probes that clicked, where F holds the full Poisson rows 0..N-1 at the
    truncation N of ``h`` and G = ``h.binomial_design``. This shares no
    code with the fit's windowed probe rows, so certificates built on it do
    not depend on them; the dense rows miss the fit's row normalization
    only by their tail mass beyond N (below 1e-12).
    """
    design = h.binomial_design
    matrix = dense_probe_rows(probes.intensities, design.shape[0])
    frequencies = record.frequencies
    included = frequencies > 0
    frequencies = frequencies[included]
    survival = np.exp(design @ h.h)
    model = (matrix @ (1.0 - survival))[included]
    residual = (frequencies - model) / frequencies
    jacobian = (matrix @ (survival[:, None] * design))[included] / frequencies[:, None]
    return residual, jacobian


def fit_objective_gradient(h, probes, record):
    """Gradient 2 J^T r of ``fit_objective`` in h, from ``_dense_fit_terms``."""
    residual, jacobian = _dense_fit_terms(h, probes, record)
    return 2.0 * jacobian.T @ residual


def _recorded(monkeypatch, module, solver):
    """List that collects the record each call of ``module.solver`` returns."""
    records, solve = [], getattr(module, solver)

    def recording(*args):
        records.append(solve(*args))
        return records[-1]

    monkeypatch.setattr(module, solver, recording)
    return records


def _simulated(truth, probes, seed):
    config = ExperimentConfig(
        truth=truth, probes=probes, seed=seed, trials=probes.trials
    )
    return simulate(config)


def _kept_sets(bias, seeds):
    truth = SCALED_PARAMS[bias]
    base = geometric_probe_grid(truth)
    outcomes = []
    for seed in seeds:
        record = _simulated(truth, base, seed)
        report = fit_params(base, record, max_order=6)
        pruned = prune_mechanisms(report, base, record)
        outcomes.append((pruned.kept_orders, pruned.params.p))
    return truth, outcomes


def test_a1_scaling_convention():
    q30 = coherent_click_probability(SCALED_PARAMS[25], 30.0)
    assert 0.94 <= q30 <= 0.96
    print(f"A1 PASS: click probability at mean 30 is {q30:.4f} (window [0.94, 0.96])")


def test_a2_spd_analytic_oracle():
    from nlspd.tomography import ProbeSet

    mu = np.linspace(0.0, 100.0, 41)
    probes = ProbeSet(intensities=mu, trials=1)
    n = truncation_for(100.0)
    matrix = dense_probe_rows(probes.intensities, n)
    worst = 0.0
    for p1 in (1e-4, 1e-2, 0.5):
        pipeline = matrix @ spd_povm(p1, n).click
        closed_form = 1.0 - np.exp(-p1 * mu)
        worst = max(worst, float(np.max(np.abs(pipeline - closed_form))))
    assert worst <= 1e-10
    print(f"A2 PASS: pipeline vs closed form, worst gap {worst:.2e} (bound 1e-10)")


def _a3_records():
    for bias in (25, 20, 16):
        truth = SCALED_PARAMS[bias]
        base = geometric_probe_grid(truth)
        yield bias, truth, base, _simulated(truth, base, seed=101)


def test_a3_closed_loop_fidelity():
    margins = {}
    for bias, truth, base, record in _a3_records():
        n = truncation_for(float(base.intensities.max()))
        recon = reconstruct_povm(base, record, n)
        f = fidelity(recon, nonlinear_povm(truth, n))
        assert f > 0.998
        margins[bias] = f
    print(
        "A3 PASS: reconstruction fidelities "
        + ", ".join(f"{b} uA {f:.6f}" for b, f in margins.items())
        + " (floor 0.998)"
    )


def test_a4_pruning_25ua():
    truth, outcomes = _kept_sets(25, range(10))
    votes = Counter(kept for kept, _ in outcomes)
    majority, count = votes.most_common(1)[0]
    assert majority == (0, 1)
    assert count >= 6

    for order in majority:
        values = [p[order] for kept, p in outcomes if kept == majority]
        median = float(np.median(values))
        rel = abs(median - truth.p[order]) / truth.p[order]
        assert rel <= 0.20
    print(
        f"A4 PASS (25 uA): majority kept set {majority} in {count}/10 seeds, "
        "median recovery within 20%"
    )


@pytest.mark.xfail(
    strict=True,
    reason="published kept set {P_0..P_4} includes order 4, absent from the "
    "published 20 uA parameters; the paper's relative-residual fit with 1% "
    "pruning keeps order 3 only in 6/10 seeds at 1e7 trials per probe and "
    "10/10 at 1e8, not at 100 000",
)
def test_a4_pruning_20ua():
    _, outcomes = _kept_sets(20, range(10))
    majority, _ = Counter(kept for kept, _ in outcomes).most_common(1)[0]
    assert majority == (0, 1, 2, 3, 4)


@pytest.mark.xfail(
    strict=True,
    reason="the paper's relative-residual fit with 1% pruning reaches the "
    "published kept set {P_1..P_4} only at about 1e8 trials per probe "
    "(7/10 seeds at 1e8 and at 1e9), not at 100 000",
)
def test_a4_pruning_16ua():
    _, outcomes = _kept_sets(16, range(10))
    majority, _ = Counter(kept for kept, _ in outcomes).most_common(1)[0]
    assert majority == (1, 2, 3, 4)


def test_a4_pruning_stable_facts():
    # What the pruning pipeline does resolve at this noise level, pinned
    # so regressions stay visible alongside the expected failures above.
    _, outcomes20 = _kept_sets(20, range(10))
    for kept, _ in outcomes20:
        assert {1, 2} <= set(kept)
        assert 4 not in kept and 5 not in kept
    majority20, count20 = Counter(k for k, _ in outcomes20).most_common(1)[0]
    assert majority20 == (0, 1, 2) and count20 >= 6

    _, outcomes16 = _kept_sets(16, range(10))
    for kept, _ in outcomes16:
        assert 2 in kept
        assert 5 not in kept
    print(
        "A4 companion: 20 uA resolves {0, 1, 2} (majority "
        f"{count20}/10); 16 uA always keeps order 2"
    )


def test_a5_unscaling_validation():
    worst_max, worst_mean = 0.0, 0.0
    for bias in (25, 20, 16):
        truth = SCALED_PARAMS[bias]
        base = geometric_probe_grid(truth)
        for seed in (0, 1, 2):
            record = _simulated(truth, base, seed)
            k, scaled = scaled_fit_workflow(base, record)
            predicted = np.array(
                [
                    povm_click_probability(scaled, k * mu)
                    for mu in base.intensities
                ]
            )
            errors = np.abs(predicted - record.frequencies)
            worst_max = max(worst_max, float(errors.max()))
            worst_mean = max(worst_mean, float(errors.mean()))
    assert worst_max <= 0.014
    assert worst_mean <= 0.003
    print(
        f"A5 PASS: prediction error max {worst_max:.4%}, mean {worst_mean:.4%} "
        "(bounds 1.4% / 0.3%)"
    )


def _a6_records():
    """Records of one detector behind four losses, with loss-corrected probes."""
    truth = NonlinearSpdParams([5e-3, 0.1, 0.3, 0.05])
    base = geometric_probe_grid(truth)
    for j, eta in enumerate((1.0, 0.5, 0.25, 0.1)):
        yield eta, base.scaled_by(1.0 / eta), _simulated(truth, base, seed=j)


def test_a6_loss_scaling_law():
    pairs, kept_sets = [], []
    for eta, stated, record in _a6_records():
        report = fit_params(stated, record, max_order=4)
        pruned = prune_mechanisms(report, stated, record)
        pairs.append((eta, pruned.params))
        kept_sets.append(set(pruned.kept_orders))

    significant = sorted(set.intersection(*kept_sets))
    assert significant == [0, 1, 2]
    fit = loss_scaling_analysis(pairs)
    assert abs(fit.slopes[0]) <= 0.1
    for order in (1, 2):
        assert abs(fit.slopes[order] - order) <= 0.3
    print(
        "A6 PASS: slopes "
        + ", ".join(f"P_{n}: {fit.slopes[n]:+.3f}" for n in significant)
        + " (windows 0 +- 0.1, n +- 0.3)"
    )


def _a7_instance():
    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    record = _simulated(truth, base, seed=0)
    n = truncation_for(float(base.intensities.max()))
    matrix = dense_probe_rows(base.intensities, n)
    design = binomial_table(np.arange(n), 4)
    freq = record.frequencies
    included = freq > 0
    return base, record, n, matrix, design, freq, included


def test_a7_convexity_and_gradients():
    base, record, n, matrix, design, freq, included = _a7_instance()

    def underpredicts(h):
        model = matrix @ (1.0 - np.exp(design @ h))
        return np.all(model[included] <= freq[included])

    # The residual vector is componentwise convex in h, so the norm is
    # convex wherever every residual is nonnegative. Certify a box: the
    # underprediction region is upward-closed, hence a feasible corner
    # covers everything between it and zero.
    bounds = np.zeros(4)
    for coord in range(4):
        lo, hi = -20.0, 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            h = np.zeros(4)
            h[coord] = mid
            lo, hi = (lo, mid) if underpredicts(h) else (mid, hi)
        bounds[coord] = hi
    corner = bounds
    if not underpredicts(corner):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if underpredicts(mid * bounds) else (lo, mid)
        corner = lo * bounds
    assert underpredicts(corner)

    def norm_objective(h):
        return np.sqrt(
            fit_objective(MechanismLogVector.at_truncation(h, n), base, record)
        )

    rng = np.random.default_rng(2718)
    worst = -np.inf
    for _ in range(100):
        h_a = corner * rng.uniform(0.0, 1.0, size=4)
        h_b = corner * rng.uniform(0.0, 1.0, size=4)
        midpoint = norm_objective(0.5 * (h_a + h_b))
        chord = 0.5 * (norm_objective(h_a) + norm_objective(h_b))
        worst = max(worst, midpoint - chord)
    assert worst <= 1e-9

    # Gradient check over the magnitudes the solver traverses for this
    # dataset (the optimum sits near h_1 = -0.1); far deeper h saturates
    # the model, where the objective plateaus at ~1e10 and any finite
    # difference drowns in floating-point cancellation.
    rng = np.random.default_rng(31415)
    worst_rel = 0.0
    for _ in range(20):
        h = -rng.uniform(0.0, 0.2, size=4)
        grad = fit_objective_gradient(
            MechanismLogVector.at_truncation(h, n), base, record
        )
        step = 1e-6
        for coord in range(4):
            up, down = h.copy(), h.copy()
            up[coord] += step
            down[coord] -= step
            diff = (
                fit_objective(MechanismLogVector.at_truncation(up, n), base, record)
                - fit_objective(MechanismLogVector.at_truncation(down, n), base, record)
            ) / (2 * step)
            scale = max(abs(grad[coord]), abs(diff), 1e-10)
            worst_rel = max(worst_rel, abs(grad[coord] - diff) / scale)
    assert worst_rel <= 1e-5
    print(
        f"A7 PASS: midpoint convexity margin {worst:+.2e} (tolerance 1e-9), "
        f"gradient vs finite differences {worst_rel:.2e} (bound 1e-5)"
    )


def test_a8_invariant_suite():
    rng = np.random.default_rng(97)

    # POVM monotonicity and bounds
    for _ in range(20):
        order = int(rng.integers(1, 6))
        params = NonlinearSpdParams(rng.uniform(0.0, 1.0, size=order))
        povm = nonlinear_povm(params, 40)
        assert np.all(povm.click >= 0.0) and np.all(povm.click <= 1.0)
        assert np.all(np.diff(povm.click) >= -1e-15)

    # dark counts ignore the input: the vacuum element is the dark-count
    # efficiency itself and no loss can change it
    params = NonlinearSpdParams([0.03, 0.4, 0.1])
    povm = nonlinear_povm(params, 50)
    assert povm.click[0] == pytest.approx(0.03, abs=1e-15)
    for eta in (0.2, 0.7):
        assert scale_povm(povm, eta).click[0] == pytest.approx(0.03, abs=1e-15)

    # loss-channel semigroup
    for _ in range(10):
        click = np.sort(rng.uniform(0.0, 1.0, size=30))
        from nlspd.povm import DiagonalPovm

        candidate = DiagonalPovm(click=click)
        a, b = rng.uniform(0.3, 1.0, size=2)
        np.testing.assert_allclose(
            scale_povm(candidate, a * b).click,
            scale_povm(scale_povm(candidate, a), b).click,
            atol=1e-12,
        )

    # probe-side and detector-side loss agree
    mean = 3.0
    wide = nonlinear_povm(params, truncation_for(mean) + 25)
    for eta in (0.3, 0.8):
        assert lossy_click_probability(wide, eta, mean) == pytest.approx(
            povm_click_probability(scale_povm(wide, eta), mean), abs=1e-10
        )

    # scale/unscale round trip
    for candidate in (spd_povm(0.5, 45), npd_povm(0.25, 2, 35)):
        for eta in (0.5, 0.75, 1.0):
            recovered = unscale_povm(scale_povm(candidate, eta), eta)
            assert np.max(np.abs(recovered.click - candidate.click)) <= 1e-8

    # simulator reproducibility
    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    first = _simulated(truth, base, seed=5)
    second = _simulated(truth, base, seed=5)
    np.testing.assert_array_equal(first.clicks, second.clicks)

    print(
        "A8 PASS: monotonicity, bounds, dark-count independence, semigroup, "
        "loss equivalence, round trip, reproducibility"
    )


def _kkt_violation(x, gradient, lower, upper):
    """Largest breach of the first-order optimality conditions on a box.

    A minimizer has gradient >= 0 where x sits on its lower bound, <= 0 on
    its upper bound and = 0 in between. Coordinates within 1e-12 of a
    bound count as on it.
    """
    at_lower = x <= lower + 1e-12
    at_upper = x >= upper - 1e-12
    breach = np.where(at_lower, -gradient, np.where(at_upper, gradient, np.abs(gradient)))
    return max(float(breach.max()), 0.0)


def _reconstruction_kkt_breach(probes, record, weight=None, truncation=None):
    """KKT breach and relative Frank-Wolfe gap of ``reconstruct_povm`` on the full program.

    By default at the probe set's own truncation N. The objective
    f(x) = ||F x - C||^2 + w ||D x||^2 over all N photon numbers and its
    gradient g are built from the probe data alone, independent of the
    solver that produced x and of the Poisson windows it solves on: F is
    accumulated one ``dense_probe_rows`` row at a time, so no P x N
    matrix is held, and D^T D x is written out with ``np.diff``. Each
    row is divided by the sum of its law over 0..2N-1, which leaves out
    far less than rounding: the log weights lose digits to cancellation
    at large means (5.5e-10 of the sum at 1e6), nearly in common, and
    the division removes that as the solver's normalized windows do,
    while the up to 1e-12 of the mass beyond N stays left out, as it is
    from the solver's rows. The
    convex program's suboptimality on [0, 1]^N is bounded by the gap
    ``sum_m (g_m x_m - min(g_m, 0))`` (Frank & Wolfe 1956; Jaggi 2013),
    which is returned relative to f(x).
    """
    n = truncation or truncation_for(float(probes.intensities.max()))
    x = reconstruct_povm(probes, record, n, smoothing_weight=weight).click
    if weight is None:
        weight = 1e-3 * len(probes)
    steps = np.diff(x)
    gradient = 2.0 * weight * np.concatenate([[-steps[0]], -np.diff(steps), [steps[-1]]])
    objective = weight * (steps @ steps)
    for mu, frequency in zip(probes.intensities, record.frequencies):
        row = dense_probe_rows(mu, 2 * n)
        row = row[:n] / row.sum()
        residual = row @ x - frequency
        gradient += 2.0 * residual * row
        objective += residual * residual
    gap = float(np.sum(gradient * x - np.minimum(gradient, 0.0)))
    # A zero gap certifies even a zero objective (all-zero clicks).
    return _kkt_violation(x, gradient, 0.0, 1.0), gap / objective if gap > 0 else 0.0


def _two_photon_record():
    """A two-photon detector without dark counts (N = 2778), whose box binds."""
    truth = NonlinearSpdParams([0.0, 0.0, 3e-6])
    probes = geometric_probe_grid(truth)
    return probes, _simulated(truth, probes, seed=0)


def test_reconstruction_kkt_certificate():
    # A3's three records and the two-photon record, whose box binds, the
    # raw 25 uA record (N = 3296), whose minimizer lies inside the box, and
    # the raw 20 and 16 uA records (N = 38,697 and 113,821), solved on
    # their Poisson windows with gaps between them and certified here on
    # all N photon numbers. Measured relative gaps: A3 at most 2.3e-11,
    # raw 25 uA 2.9e-10, the two-photon record 2.9e-9, raw 20 uA 5.0e-8
    # and raw 16 uA 5.6e-7 (3.6-5.6e-7 on seeds 0-2); breaches at most
    # 7.7e-14. A gap sums rounding over all N elements. Without the
    # normalization of the oracle rows, off by 7.7e-12 in their sum at
    # mu = 37,330, the gaps read 2.4e-5 on raw 20 uA and 6.9e-4 on raw
    # 16 uA.
    records = [(base, record) for _, _, base, record in _a3_records()]
    for bias in (25, 20, 16):
        raw_truth = UNSCALED_PARAMS[bias]
        raw_probes = geometric_probe_grid(raw_truth)
        records.append((raw_probes, _simulated(raw_truth, raw_probes, seed=0)))
    records.append(_two_photon_record())
    results = [_reconstruction_kkt_breach(probes, record) for probes, record in records]
    worst = max(breach for breach, _ in results)
    worst_gap = max(gap for _, gap in results)
    assert worst <= 1e-9
    assert worst_gap <= 1e-5
    print(
        f"KKT PASS (reconstruction, A3, raw 25, 20 and 16 uA and two-photon records): "
        f"worst breach {worst:.2e} (bound 1e-9), relative gap {worst_gap:.2e} (bound 1e-5)"
    )


def test_reconstruction_up_to_a_million_photons():
    # 40 geometric probes up to mu = 1e6 on a linear detector: the dense
    # P x N probe matrix would take 307 MiB, above MAX_DENSE_BYTES, but the
    # probes' Poisson windows cover only 76,955 of the N photon numbers, in
    # 15 runs. The relative gap measured 1.1e-5 (0.98-1.5e-5 on seeds
    # 0-2), against f = 2.0e-7; without the normalization of the oracle
    # rows, which lose 5.5e-10 of their sum to cancellation at 1e6, it
    # reads 1.5e-3.
    truth = NonlinearSpdParams([0.0, 1e-5])
    grid = np.concatenate([[0.0], np.geomspace(0.01, 1e6, 39)])
    probes = ProbeSet(intensities=grid, trials=100_000)
    record = _simulated(truth, probes, seed=0)
    n = truncation_for(1e6)
    assert 8 * len(probes) * n > MAX_DENSE_BYTES
    povm = reconstruct_povm(probes, record)
    fid = fidelity(povm, spd_povm(1e-5, n))
    breach, gap = _reconstruction_kkt_breach(probes, record)
    assert fid > 0.998
    assert breach <= 1e-9
    assert gap <= 1e-4
    print(
        f"PASS (40 probes up to 1e6, N = {n}): fidelity {fid:.6f} (floor 0.998), "
        f"breach {breach:.2e} (bound 1e-9), relative gap {gap:.2e} (bound 1e-4)"
    )


def test_box_active_reconstruction_needs_no_fallback(monkeypatch):
    # The active-set solve alone must certify these reconstructions: the
    # 78 of the rescaled study (three detectors, seeds 0-12, each
    # reconstructed directly and through the scaled workflow; the box
    # binds on 60), the raw 25 uA records at seeds 0-2 and the two-photon
    # record (N = 2778). Their worst relative gap measured 2.9e-9 (the
    # two-photon record; the 78 rescaled ones at most 5.8e-11). The raw
    # 25 uA minimizers lie inside the box: the first step certifies them.
    def no_fallback(*args, **kwargs):
        raise AssertionError("bounded-variable fallback was called")

    monkeypatch.setattr("scipy.optimize.lsq_linear", no_fallback)
    instances = []
    for bias in (25, 20, 16):
        truth = SCALED_PARAMS[bias]
        base = geometric_probe_grid(truth)
        for seed in range(13):
            record = _simulated(truth, base, seed)
            k, _ = scaled_fit_workflow(base, record)
            instances += [(base, record), (base.scaled_by(k), record)]
    raw_truth = UNSCALED_PARAMS[25]
    raw_probes = geometric_probe_grid(raw_truth)
    instances += [
        (raw_probes, _simulated(raw_truth, raw_probes, seed)) for seed in range(3)
    ]
    instances.append(_two_photon_record())
    solves = _recorded(monkeypatch, tomography, "_active_set_minimizer")
    results = [_reconstruction_kkt_breach(probes, record) for probes, record in instances]
    worst = max(breach for breach, _ in results)
    worst_gap = max(gap for _, gap in results)
    assert worst <= 1e-9
    assert worst_gap <= 1e-6
    assert [solve.steps for solve in solves[78:81]] == [1, 1, 1]
    print(
        f"KKT PASS (active set alone, {len(instances)} reconstructions): "
        f"worst breach {worst:.2e} (bound 1e-9), relative gap {worst_gap:.2e} (bound 1e-6)"
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    means=st.lists(
        st.floats(0.05, 20.0), min_size=1, max_size=8, unique=True
    ).map(sorted),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
    extra=st.integers(0, 6),
    weight=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.1, 1.0, 10.0]),
)
def test_reconstruction_kkt_certificate_on_random_instances(
    means, fractions, extra, weight
):
    # Arbitrary click frequencies, monotone or not, so the box often binds;
    # the bounded-variable fallback may take over where the active-set
    # steps do not settle. The relative gap is not bounded here: two or
    # three probes can often be fitted almost exactly, and a gap of
    # rounding size over a near-zero objective reads up to 1e12 at w = 0
    # and 1.2e-7 at w = 1e-6.
    probes = ProbeSet(intensities=np.array([0.0] + means), trials=1000)
    clicks = np.rint(np.array(fractions[: len(probes)]) * probes.trials)
    record = ClickRecord(clicks=clicks, trials=probes.trials)
    n = truncation_for(means[-1]) + extra
    breach, _ = _reconstruction_kkt_breach(probes, record, weight, n)
    assert breach <= 1e-9


def test_reconstruction_without_smoothing_converges():
    # At w = 0 the bounded solve of this record needs 115 iterations, more
    # than scipy's default budget of one per unknown (N = 112). Its relative
    # gap measured 1.3e-5.
    truth = SCALED_PARAMS[20]
    base = geometric_probe_grid(truth)
    record = _simulated(truth, base, seed=7)
    breach, gap = _reconstruction_kkt_breach(base, record, weight=0.0)
    assert breach <= 1e-9
    assert gap <= 1e-4
    print(
        f"KKT PASS (reconstruction at w = 0, 20 uA seed 7): breach {breach:.2e}, "
        f"relative gap {gap:.2e}"
    )


def test_reconstruction_at_small_weight_is_certified(monkeypatch):
    # At w = 1e-8 the active-set steps of this record do not settle within
    # their budget, and the bounded-variable fallback finishes the solve.
    # Its relative gap measured 1.1e-10.
    truth = SCALED_PARAMS[20]
    base = geometric_probe_grid(truth)
    record = _simulated(truth, base, seed=7)
    solves = _recorded(monkeypatch, tomography, "_active_set_minimizer")
    breach, gap = _reconstruction_kkt_breach(base, record, weight=1e-8)
    assert breach <= 1e-9
    assert gap <= 1e-9
    (solve,) = solves
    assert solve.fallback and solve.steps == tomography._ACTIVE_SET_STEPS


@pytest.mark.parametrize("weight", [3e-8, 1e-8])
def test_raw_reconstruction_at_small_weight_needs_no_fallback(monkeypatch, weight):
    # Raw 25 uA seed 0 (N = 3296): the active-set steps certify it at these
    # weights within their budget. The bounded-variable fallback takes
    # minutes on the same problem (274 s at 3e-8, 382 s at 1e-8, one BLAS
    # thread).
    def no_fallback(*args, **kwargs):
        raise AssertionError("bounded-variable fallback was called")

    monkeypatch.setattr("scipy.optimize.lsq_linear", no_fallback)
    truth = UNSCALED_PARAMS[25]
    probes = geometric_probe_grid(truth)
    breach, _ = _reconstruction_kkt_breach(probes, _simulated(truth, probes, seed=0), weight)
    assert breach <= 1e-9


def _fit_records():
    """The 48 fit records: 39 rescaled (fit(6)), 9 raw (fit(4)).

    Seeds 0-12 of each rescaled reference detector, as in the rescaled
    study, and seeds 0-2 of each raw one (N = 3296, 38,697 and 113,821).
    """
    for params, seeds, max_order, kind in (
        (SCALED_PARAMS, range(13), 6, "scaled"),
        (UNSCALED_PARAMS, range(3), 4, "raw"),
    ):
        for bias in (25, 20, 16):
            probes = geometric_probe_grid(params[bias])
            for seed in seeds:
                record = _simulated(params[bias], probes, seed)
                yield f"{kind} {bias} uA seed {seed}", probes, record, max_order


def _scale_free_gradient(h, probes, record):
    """Cosine g_k / (2 |r| |J_k|) between the residual and each Jacobian column.

    The Jacobian columns of the raw records span ten decades (C(m, 2)
    reaches 7e8), so a gradient bound in absolute units means something
    different for every order and record; the cosine does not.
    """
    n = truncation_for(float(probes.intensities.max()))
    residual, jacobian = _dense_fit_terms(
        MechanismLogVector.at_truncation(h, n), probes, record
    )
    return jacobian.T @ residual / (
        np.linalg.norm(residual) * np.linalg.norm(jacobian, axis=0)
    )


def test_fit_kkt_certificate(monkeypatch):
    # The dense-matrix fit_objective_gradient over the fitted (unpinned)
    # orders on the box [-60, 0], at both the full fit and the pruned refit.
    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    instances = [(base, _simulated(truth, base, seed), 6) for seed in range(10)]
    instances += [(stated, record, 4) for _, stated, record in _a6_records()]
    worst = 0.0
    for probes, record, max_order in instances:
        n = truncation_for(float(probes.intensities.max()))
        report = fit_params(probes, record, max_order=max_order)
        for fitted in (report, prune_mechanisms(report, probes, record)):
            gradient = fit_objective_gradient(
                MechanismLogVector.at_truncation(fitted.h, n), probes, record
            )
            free = list(fitted.kept_orders)
            breach = _kkt_violation(fitted.h[free], gradient[free], -60.0, 0.0)
            worst = max(worst, breach)
    assert worst <= 1e-5

    # Every one of the 48 fit records in scale-free form. In absolute units
    # the breach reaches 5.8e-4 on the rescaled 16 uA seed 1 full fit and
    # 7e4 on the raw 16 uA seed 0 refit, where one unit of h_3 moves the
    # exponent by C(m, 3), up to 2e14. Each of their 233 solves, fits and
    # pruning refits, stops within 13 Newton iterations.
    scale_free = {"scaled": 0.0, "raw": 0.0}
    solves = _recorded(monkeypatch, modelfit, "_solve")
    for label, probes, record, max_order in _fit_records():
        report = fit_params(probes, record, max_order=max_order)
        for fitted in (report, prune_mechanisms(report, probes, record)):
            cosine = _scale_free_gradient(fitted.h, probes, record)
            free = list(fitted.kept_orders)
            breach = _kkt_violation(fitted.h[free], cosine[free], -60.0, 0.0)
            kind = label.split()[0]
            scale_free[kind] = max(scale_free[kind], breach)
        if label in ("raw 16 uA seed 1", "raw 16 uA seed 2"):
            # These full fits end on the upper bound h_1 = 0 (P_1 = 0), held
            # there by the gradient: the objective falls only toward P_1 < 0.
            cosine = _scale_free_gradient(report.h, probes, record)
            assert report.h[1] == 0.0 and cosine[1] < -0.01
    assert max(scale_free.values()) <= 1e-6
    assert max(solve.iterations for solve in solves) <= 13
    print(
        f"KKT PASS (fit, A4 25 uA seeds and A6 records): worst breach {worst:.2e} "
        "(bound 1e-5); scale-free breach on the 48 fit records "
        f"{scale_free['scaled']:.2e} rescaled, {scale_free['raw']:.2e} raw (bound 1e-6)"
    )


def test_fit_hessian_matches_gradient_differences():
    # The Newton solve's exact Hessian against central differences of the
    # dense gradient oracle, at the flat start and at the fit. At the flat
    # start the Hessian is indefinite on all 9 raw fit records and on none
    # of the 39 rescaled ones; of the three records here, only the fits of
    # 25 uA seed 8 and 16 uA seed 6 are indefinite. Each step moves G h by
    # at most 1e-4; where h_k lies within one step of its bound 0 the
    # difference is the one-sided second-order form
    # (3 g(h) - 4 g(h - e) + g(h - 2e)) / 2.
    worst, lowest = 0.0, np.inf
    for bias, seed in ((25, 8), (20, 0), (16, 6)):
        truth = SCALED_PARAMS[bias]
        probes = geometric_probe_grid(truth)
        record = _simulated(truth, probes, seed)
        n = truncation_for(float(probes.intensities.max()))
        data = modelfit._fit_data(probes, record, 6)
        steps = 1e-4 / binomial_table(np.arange(n), 6)[-1]

        def gradient(h):
            return fit_objective_gradient(
                MechanismLogVector.at_truncation(h, n), probes, record
            )

        start = np.full(6, modelfit._NEAR_ZERO_H)
        fitted = fit_params(probes, record, max_order=6).h
        for h in (start, fitted):
            _, hessian = modelfit._derivatives(data, h, modelfit._residual(data, h))
            differences = np.empty_like(hessian)
            for k, step in enumerate(steps):
                e = np.zeros(6)
                e[k] = step
                if h[k] <= -step:
                    differences[:, k] = (gradient(h + e) - gradient(h - e)) / (2 * step)
                else:
                    differences[:, k] = (
                        3 * gradient(h) - 4 * gradient(h - e) + gradient(h - 2 * e)
                    ) / (2 * step)
            column_scale = np.abs(hessian).max(axis=0)
            worst = max(worst, float(np.max(np.abs(hessian - differences) / column_scale)))
            lowest = min(lowest, float(np.linalg.eigvalsh(hessian).min() / column_scale.max()))
    assert worst <= 1e-5
    assert lowest < -1e-3
    print(
        f"Hessian PASS: worst column-relative gap to differences {worst:.2e} "
        f"(bound 1e-5); most negative eigenvalue {lowest:+.2e} of the largest column"
    )


def _trust_region_solve(data, h0, pinned, what):
    """The fit's bounded solve by scipy's trust-region reflective method.

    The oracle for the Newton solve: the same residual and Jacobian, the
    variables scaled by the Jacobian's column norms, and tolerances of
    1e-15 on the cost, the step and the gradient. Like ``modelfit._solve``
    it returns a ``_NewtonSolve``, here with its Jacobian evaluations as
    the iterations, and raises ``ConvergenceError`` if it runs out of
    evaluations.
    """
    free = ~pinned

    def expand(z):
        h = np.zeros(pinned.size)
        h[free] = z
        return h

    def jacobian(z):
        h = expand(z)
        return modelfit._derivatives(data, h, modelfit._residual(data, h))[0][:, free]

    def record(h, iterations):
        r = modelfit._residual(data, h)
        return modelfit._NewtonSolve(h, r, float(r @ r), iterations)

    if not np.any(free):
        return record(expand(()), 0)
    result = least_squares(
        lambda z: modelfit._residual(data, expand(z)),
        np.clip(h0[free], -60.0, 0.0),
        jac=jacobian,
        bounds=(-60.0, 0.0),
        method="trf",
        x_scale="jac",
        ftol=1e-15,
        xtol=1e-15,
        gtol=1e-15,
        max_nfev=100_000,
    )
    if result.status == 0:
        raise ConvergenceError(f"{what}: trust-region reflective ran out of evaluations")
    return record(expand(result.x), result.njev)


def test_fit_matches_trust_region_oracle(monkeypatch):
    # The A4 25 uA records (fit(6)) and the raw 20 uA record (N = 38,697,
    # fit(4)): Newton must reach the trust-region optimum, full fit and
    # pruned refit, and prune to the same orders.
    truth = SCALED_PARAMS[25]
    base = geometric_probe_grid(truth)
    instances = [(base, _simulated(truth, base, seed), 6) for seed in range(10)]
    raw_truth = UNSCALED_PARAMS[20]
    raw_probes = geometric_probe_grid(raw_truth)
    instances.append((raw_probes, _simulated(raw_truth, raw_probes, seed=0), 4))

    def fit_and_prune(probes, record, max_order):
        report = fit_params(probes, record, max_order=max_order)
        return report, prune_mechanisms(report, probes, record)

    newton = [fit_and_prune(*instance) for instance in instances]
    monkeypatch.setattr(modelfit, "_solve", _trust_region_solve)
    oracle = [fit_and_prune(*instance) for instance in instances]
    worst = -np.inf
    for (fit, pruned), (oracle_fit, oracle_pruned) in zip(newton, oracle):
        assert pruned.kept_orders == oracle_pruned.kept_orders
        for mine, theirs in ((fit, oracle_fit), (pruned, oracle_pruned)):
            assert mine.objective <= theirs.objective * (1 + 1e-12)
            worst = max(worst, mine.objective / theirs.objective - 1)
    print(
        f"Oracle PASS: Newton objectives at most {worst:+.2e} relative to "
        "trust-region reflective (bound 1e-12), same kept orders"
    )
