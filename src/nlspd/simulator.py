"""Synthetic click-statistics experiments for a known detector.

Mirrors the measurement procedure in silico: for each coherent probe the
detector's click probability is computed exactly, then a finite number of
trials is drawn from the corresponding binomial law. Sampling is pure
inversion from a counter-based generator, so a record is a deterministic
function of the configuration alone, independent of execution order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# The binomial inverse cdf that scipy.stats.binom.ppf wraps, without
# importing scipy.stats; tests pin it against binom.ppf.
from scipy.special._ufuncs import _binom_ppf

from .numerics import _freeze, _whole_number
from .povm import DiagonalPovm, NonlinearSpdParams, _coherent_clicks, _detector_from_dict
from .povm import povm_click_probability
from .reference import TRIALS_PER_PROBE
from .tomography import ClickRecord, ProbeSet

__all__ = [
    "ExperimentConfig",
    "geometric_probe_grid",
    "simulate",
]

# The canonical probe grid: _GRID_POINTS intensities from _GRID_START up
# to where the click probability passes 1 - _SATURATION_TOLERANCE, found
# by steps of _SWEEP_GROWTH below _INTENSITY_CAP, at TRIALS_PER_PROBE
# trials each.
_GRID_POINTS = 60
_GRID_START = 1e-2
_SATURATION_TOLERANCE = 1e-3
_SWEEP_GROWTH = 1.2
_INTENSITY_CAP = 1e6


def _noiseless_clicks(truth, intensities) -> np.ndarray:
    """Exact click probabilities of the truth at each mean photon number.

    Mechanism parameters take one Poisson-window row per probe whose
    window does not start saturated, all from a single
    ``povm._coherent_clicks`` call; a probe whose window does is exactly 1.
    """
    if isinstance(truth, DiagonalPovm):
        return np.array([povm_click_probability(truth, float(mu)) for mu in intensities])
    if isinstance(truth, NonlinearSpdParams):
        return _coherent_clicks(truth, intensities)
    raise TypeError(
        f"truth must be a DiagonalPovm or NonlinearSpdParams, got {type(truth).__name__}"
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully reproducible description of one synthetic experiment.

    ``truth`` is either an explicit POVM or mechanism parameters; the two
    serialize to disjoint JSON shapes, so no type tag is needed. ``trials``
    duplicates ``probes.trials`` for the JSON mirror and must agree with it.
    """

    truth: object
    probes: ProbeSet
    seed: int
    trials: int

    def __post_init__(self):
        if not isinstance(self.truth, (DiagonalPovm, NonlinearSpdParams)):
            raise TypeError(
                f"truth must be a DiagonalPovm or NonlinearSpdParams, "
                f"got {type(self.truth).__name__}"
            )
        if not isinstance(self.probes, ProbeSet):
            raise TypeError(f"probes must be a ProbeSet, got {type(self.probes).__name__}")
        seed = _whole_number(self.seed, "seed", 0, 2**64 - 1)
        trials = _whole_number(self.trials, "trials")
        if trials != self.probes.trials:
            raise ValueError(
                f"config trials {trials} disagree with probe trials {self.probes.trials}"
            )
        _freeze(self, seed=seed, trials=trials)

    def to_dict(self) -> dict:
        return {
            "truth": self.truth.to_dict(),
            "probes": {
                "intensities": [float(mu) for mu in self.probes.intensities],
                "trials": int(self.probes.trials),
            },
            "seed": int(self.seed),
            "trials": int(self.trials),
        }

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        try:
            truth_doc = document["truth"]
            probes_doc = document["probes"]
            seed = document["seed"]
            trials = document["trials"]
            intensities = np.asarray(probes_doc["intensities"], dtype=float)
            probe_trials = probes_doc.get("trials", trials)
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed experiment config: {err}") from err
        truth = _detector_from_dict(truth_doc, "truth document")
        probes = ProbeSet(intensities=intensities, trials=probe_trials)
        return cls(truth=truth, probes=probes, seed=seed, trials=trials)


def simulate(config: ExperimentConfig) -> ClickRecord:
    """Draw one click record for the configured detector and probes.

    Each probe's click count is Binomial(trials, q) sampled by inversion,
    where q is the exact click probability of the truth at that intensity.
    For mechanism parameters every probe's q comes from one
    ``povm._coherent_clicks`` call: a probe whose Poisson window starts
    saturated is exactly 1.0 and builds no window, so a saturated probe
    costs the same at any mean up to 2**53; each other probe's row drops
    at most 1e-16 of its Poisson mass on either side. All probes are then
    drawn by one vectorized binomial inverse cdf on their uniforms. Each q
    already lies in [0, 1]: both click kernels return values there.

    Probe i's uniform is the first variate of its own substream, the
    counter-based generator keyed by the seed with i in counter word 2:
    ``Philox(key=seed).jumped(i)``. One generator walks them all: drawing
    probe i's variate leaves its counter at [1, 0, i, 0], and
    ``advance(2**128 - 1)`` moves it to [0, 0, i + 1, 0], where probe
    i + 1's substream starts, and drops the rest of the block. A uniform
    depends only on (seed, i), so identical configs give bitwise-identical
    records, and no probe's draw depends on the others'.

    Raises ``ValueError`` if the inverse cdf finds no count for some probe:
    near 2**53 trials its search can give up and return NaN.
    """
    probes = config.probes
    q = _noiseless_clicks(config.truth, probes.intensities)
    bit_generator = np.random.Philox(key=config.seed)
    generator = np.random.Generator(bit_generator)
    uniforms = np.empty(len(probes))
    for i in range(len(probes)):
        uniforms[i] = generator.random()
        bit_generator.advance(2**128 - 1)
    # The inverse cdf maps u = 0 to 0 clicks (binom.ppf gives -1 there).
    # Where its search gives up, boost warns and returns NaN; the NaN is
    # refused below, so the warning, an exception under -W error, is muted.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        counts = _binom_ppf(uniforms, config.trials, q)
    if np.isnan(counts).any():
        raise ValueError(f"the binomial inverse cdf found no click count at {config.trials} trials")
    return ClickRecord(clicks=counts.astype(np.int64), trials=config.trials)


def _saturation_intensity(truth) -> float:
    """Intensity at which a geometric march first saturates the detector.

    Marches mean photon numbers upward by a fixed ratio from
    ``_GRID_START`` until the noiseless click probability exceeds
    ``1 - _SATURATION_TOLERANCE``, mimicking the lab procedure of raising
    the probe power until the response stops changing. A detector that
    cannot saturate (e.g. dark counts only) would march forever, so
    passing ``_INTENSITY_CAP`` raises ``RuntimeError``.
    """
    mu = _GRID_START
    while _noiseless_clicks(truth, [mu])[0] <= 1 - _SATURATION_TOLERANCE:
        mu *= _SWEEP_GROWTH
        if mu > _INTENSITY_CAP:
            raise RuntimeError(
                f"click probability stayed below {1 - _SATURATION_TOLERANCE:g} "
                f"up to the intensity cap {_INTENSITY_CAP:g}"
            )
    return mu


def geometric_probe_grid(truth) -> ProbeSet:
    """Geometric grid from 0.01 photons to the saturation point.

    The march of ``_saturation_intensity`` locates where the detector
    saturates (click probability above 0.999); the returned set then spans
    [0.01, saturation] with 60 geometrically spaced intensities plus the
    vacuum probe, at 100,000 trials each. This is the canonical grid for
    simulation-driven fits, dense enough at low intensity to pin the
    small-order mechanisms.
    """
    grid = np.geomspace(_GRID_START, _saturation_intensity(truth), _GRID_POINTS)
    return ProbeSet(intensities=np.concatenate([[0.0], grid]), trials=TRIALS_PER_PROBE)
