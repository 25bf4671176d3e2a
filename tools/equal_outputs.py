"""Write the outputs of nlspd's reference problems to JSON, or compare two such files.

    PYTHONPATH=src python tools/equal_outputs.py write OUT.json
    python tools/equal_outputs.py compare A.json B.json

``write`` runs the 48 reference fit records: seeds 0-12 of each rescaled
reference detector and seeds 0-2 of each raw one, on the detector's
``geometric_probe_grid``. For each it writes, as values, not digests:

- the probe grid and the simulated clicks;
- ``fit_params`` (6 orders rescaled, 4 raw) and ``prune_mechanisms``:
  p, h, objective, per-probe residuals and kept orders;
- ``scaled_fit_workflow``'s k and POVM, and that POVM through
  ``scale_povm`` and back through ``unscale_povm`` at eta = 0.5, with the
  violation (or the refusal, where the inversion is ill-conditioned);
- ``reconstruct_povm`` of every record whose default truncation is below
  4,000 photon numbers: the rescaled ones and raw 25 uA.

It also writes the fig1b and fig2a click curves of the three reference
detectors, for the whole grid in one call, as ``nlspd figure`` evaluates
them, and one probe per ``coherent_click_probability`` call.

Last come the calls of the public kernels that the benchmark times
directly, at sizes that keep the file under about 2 MB: ``log_survival``
and ``nonlinear_povm`` of the six reference detectors at truncations 77
and 1,231 (those of means 30 and 1e3); ``spd_povm(0.4, 15)`` and
``npd_povm`` at orders 0-3 with efficiencies 0 and 1; ``poisson_log_weights``
of means from 0 to 1e4, each at its own default truncation; and
``binomial_exponents(np.arange(1231), n)`` for n = 0-3.

``nlspd`` is imported from the Python path, so the same script writes the
outputs of any checkout: put that checkout's ``src`` first on
``PYTHONPATH``. ``compare`` prints how many outputs are bitwise equal and,
per kind of output, the largest relative difference. It exits 0 when
every output of either file is in the other and bitwise equal, and 1
otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

import numpy as np

ETA = 0.5

# Records whose default truncation reaches this many photon numbers (raw
# 20 and 16 uA) are not reconstructed directly.
_RECONSTRUCT_BELOW = 4000


def _value(item):
    """A JSON value of an output: a list for an array, a float, an int list or a string."""
    if isinstance(item, np.ndarray):
        return item.tolist()
    if isinstance(item, tuple):
        return [int(n) for n in item]
    if isinstance(item, str):
        return item
    return float(item)


def write(path: str) -> None:
    # Imported here, so that ``compare`` runs without nlspd on the path.
    import nlspd
    from nlspd import reference
    from nlspd.exceptions import IllConditionedInversionError
    from nlspd.loss import scale_povm, unscale_povm
    from nlspd.modelfit import fit_params, prune_mechanisms
    from nlspd.numerics import binomial_exponents, poisson_log_weights
    from nlspd.povm import _coherent_clicks, coherent_click_probability, log_survival
    from nlspd.povm import nonlinear_povm, npd_povm, spd_povm, truncation_for
    from nlspd.simulator import ExperimentConfig, geometric_probe_grid, simulate
    from nlspd.tomography import reconstruct_povm, scaled_fit_workflow

    outputs = {}
    for kind, params, seeds, max_order in (
        ("scaled", reference.SCALED_PARAMS, range(13), 6),
        ("raw", reference.UNSCALED_PARAMS, range(3), 4),
    ):
        for bias in reference.BIAS_CURRENTS_UA:
            truth = params[bias]
            probes = geometric_probe_grid(truth)
            outputs[f"{kind} {bias} uA/grid"] = probes.intensities
            reconstructed = truncation_for(float(probes.intensities.max())) < _RECONSTRUCT_BELOW
            for seed in seeds:
                name = f"{kind} {bias} uA seed {seed}"
                record = simulate(
                    ExperimentConfig(truth=truth, probes=probes, seed=seed, trials=probes.trials)
                )
                outputs[f"{name}/clicks"] = record.clicks
                report = fit_params(probes, record, max_order=max_order)
                pruned = prune_mechanisms(report, probes, record)
                for stage, fitted in (("fit", report), ("prune", pruned)):
                    outputs[f"{name}/{stage}.p"] = fitted.params.p
                    outputs[f"{name}/{stage}.h"] = fitted.h
                    outputs[f"{name}/{stage}.objective"] = fitted.objective
                    outputs[f"{name}/{stage}.residuals"] = fitted.per_probe_residuals
                    outputs[f"{name}/{stage}.kept_orders"] = fitted.kept_orders
                k, scaled = scaled_fit_workflow(probes, record)
                outputs[f"{name}/k"] = k
                outputs[f"{name}/scaled_povm"] = scaled.click
                lossy = scale_povm(scaled, ETA)
                outputs[f"{name}/lossy_povm"] = lossy.click
                try:
                    unscaled, violation = unscale_povm(lossy, ETA, return_violation=True)
                except IllConditionedInversionError as err:
                    outputs[f"{name}/unscaled_povm"] = f"{type(err).__name__}: {err}"
                else:
                    outputs[f"{name}/unscaled_povm"] = unscaled.click
                    outputs[f"{name}/violation"] = violation
                if reconstructed:
                    outputs[f"{name}/povm"] = reconstruct_povm(probes, record).click
    figures = {
        "fig1b": (reference.UNSCALED_PARAMS, np.geomspace(1.0, 1e6, 121)),
        "fig2a": (reference.SCALED_PARAMS, np.geomspace(1e-2, 300.0, 121)),
    }
    for figure, (detectors, grid) in figures.items():
        for bias, params in detectors.items():
            outputs[f"{figure} {bias} uA/curve.whole"] = _coherent_clicks(params, grid)
            outputs[f"{figure} {bias} uA/curve.per_call"] = np.array(
                [coherent_click_probability(params, float(mu)) for mu in grid]
            )
    truncations = [truncation_for(30.0), truncation_for(1e3)]
    for kind, detectors in (
        ("scaled", reference.SCALED_PARAMS),
        ("raw", reference.UNSCALED_PARAMS),
    ):
        for bias, params in detectors.items():
            for n in truncations:
                outputs[f"{kind} {bias} uA N {n}/log_survival"] = log_survival(params.p, n)
                outputs[f"{kind} {bias} uA N {n}/nonlinear_povm"] = nonlinear_povm(params, n).click
    outputs["p1 0.4/spd_povm"] = spd_povm(0.4, 15).click
    for order in range(4):
        for pn in (0.0, 1.0):
            outputs[f"order {order} pn {pn:g}/npd_povm"] = npd_povm(pn, order, 15).click
    for mean in (0.0, 0.5, 30.0, 1e3, 1e4):
        outputs[f"mean {mean:g}/poisson_log_weights"] = poisson_log_weights(
            mean, truncation_for(mean)
        )
    for order in range(4):
        outputs[f"order {order}/binomial_exponents"] = binomial_exponents(
            np.arange(truncations[1]), order
        )
    with open(path, "w") as handle:
        json.dump({name: _value(item) for name, item in outputs.items()}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(outputs)} outputs of {nlspd.__file__} to {path}")


def _relative_difference(a, b) -> float:
    """Largest elementwise |a - b| / max(|a|, |b|); 0 where both are equal, inf where
    the two cannot be compared (a string, another shape or a NaN on one side)."""
    try:
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    except ValueError:
        return 0.0 if a == b else math.inf
    if x.shape != y.shape:
        return math.inf
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return 0.0
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    return float(np.nan_to_num(gap[~same], nan=math.inf).max())


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    names = sorted(a.keys() | b.keys())
    kinds = defaultdict(lambda: [0, 0, 0.0])
    for name in names:
        tally = kinds[name.rsplit("/", 1)[-1]]
        tally[0] += 1
        if name not in a or name not in b:
            print(f"only in {path_a if name in a else path_b}: {name}")
            tally[2] = math.inf
        elif json.dumps(a[name]) == json.dumps(b[name]):
            tally[1] += 1
        else:
            tally[2] = max(tally[2], _relative_difference(a[name], b[name]))
    equal = sum(t[1] for t in kinds.values())
    print(f"{equal} of {len(names)} outputs bitwise equal")
    print(f"{'kind':<20} {'outputs':>7} {'equal':>7}  largest relative difference")
    for kind, (count, same, largest) in sorted(kinds.items()):
        print(f"{kind:<20} {count:>7} {same:>7}  {largest:.3g}")
    return 0 if equal == len(names) else 1


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
