"""Synthetic click-statistics experiments for a known detector.

Mirrors the measurement procedure in silico: for each coherent probe the
detector's click probability is computed exactly, then a finite number of
trials is drawn from the corresponding binomial law. Sampling is pure
inversion from a counter-based generator, so a record is a deterministic
function of the configuration alone, independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The binomial inverse cdf that scipy.stats.binom.ppf wraps, without
# importing scipy.stats; tests pin it against binom.ppf.
from scipy.special._ufuncs import _binom_ppf

from .exceptions import DataFormatError, SaturationCapError
from .povm import (
    DiagonalPovm,
    NonlinearSpdParams,
    _coherent_clicks,
    _whole_number,
    povm_click_probability,
)
from .tomography import ClickRecord, ProbeSet

__all__ = [
    "ExperimentConfig",
    "geometric_probe_grid",
    "simulate",
]

# The canonical probe grid: _GRID_POINTS intensities from _GRID_START up
# to where the click probability passes 1 - _SATURATION_TOLERANCE, found
# by steps of _SWEEP_GROWTH below _INTENSITY_CAP, at _TRIALS trials each.
_GRID_POINTS = 60
_GRID_START = 1e-2
_SATURATION_TOLERANCE = 1e-3
_SWEEP_GROWTH = 1.2
_INTENSITY_CAP = 1e6
_TRIALS = 100_000


def _noiseless_clicks(truth, intensities) -> np.ndarray:
    """Exact click probabilities of the truth at each mean photon number.

    Mechanism parameters take one Poisson-window row per probe, all from a
    single ``povm._coherent_clicks`` call.
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
        seed = _whole_number(self.seed, "seed")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        trials = _whole_number(self.trials, "trials")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if trials != self.probes.trials:
            raise ValueError(
                f"config trials {trials} disagree with probe trials {self.probes.trials}"
            )
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "trials", trials)

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
            raise DataFormatError(f"malformed experiment config: {err}") from err
        if isinstance(truth_doc, dict) and "click" in truth_doc:
            truth = DiagonalPovm.from_dict(truth_doc)
        elif isinstance(truth_doc, dict) and "p" in truth_doc:
            truth = NonlinearSpdParams.from_dict(truth_doc)
        else:
            raise DataFormatError(
                "truth document must be an object with either 'click' (POVM) or 'p' (parameters)"
            )
        probes = ProbeSet(intensities=intensities, trials=probe_trials)
        return cls(truth=truth, probes=probes, seed=seed, trials=trials)


def _probe_uniform(seed: int, index: int) -> float:
    """One U[0,1) variate from the probe's dedicated substream.

    Each probe advances a counter-based generator by a fixed jump count, so
    the variate depends only on (seed, index) and concurrent simulation of
    probes cannot reorder draws.
    """
    stream = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    return float(stream.random())


def simulate(config: ExperimentConfig) -> ClickRecord:
    """Draw one click record for the configured detector and probes.

    Each probe's click count is Binomial(trials, q) sampled by inversion,
    where q is the exact click probability of the truth at that intensity.
    For mechanism parameters every probe's q comes from one call of the
    Poisson-window row operator, each row dropping at most 1e-16 of its
    Poisson mass on either side; all probes are then drawn by one vectorized
    binomial inverse cdf on their uniforms. Identical configs give
    bitwise-identical records.
    """
    probes = config.probes
    # Clipping only absorbs rounding: each q is a normalized average of
    # probabilities in [0, 1].
    q = np.clip(_noiseless_clicks(config.truth, probes.intensities), 0.0, 1.0)
    uniforms = np.array([_probe_uniform(config.seed, i) for i in range(len(probes))])
    # The inverse cdf maps u = 0 to 0 clicks (binom.ppf gives -1 there).
    clicks = _binom_ppf(uniforms, config.trials, q).astype(np.int64)
    return ClickRecord(clicks=clicks, trials=config.trials)


def _saturation_intensity(truth) -> float:
    """Intensity at which a geometric march first saturates the detector.

    Marches mean photon numbers upward by a fixed ratio from
    ``_GRID_START`` until the noiseless click probability exceeds
    ``1 - _SATURATION_TOLERANCE``, mimicking the lab procedure of raising
    the probe power until the response stops changing. A detector that
    cannot saturate (e.g. dark counts only) would march forever, so
    passing ``_INTENSITY_CAP`` raises ``SaturationCapError``.
    """
    mu = _GRID_START
    while _noiseless_clicks(truth, [mu])[0] <= 1 - _SATURATION_TOLERANCE:
        mu *= _SWEEP_GROWTH
        if mu > _INTENSITY_CAP:
            raise SaturationCapError(
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
    return ProbeSet(intensities=np.concatenate([[0.0], grid]), trials=_TRIALS)
