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
from .povm import DiagonalPovm, NonlinearSpdParams, _coherent_clicks, povm_click_probability
from .tomography import ClickRecord, ProbeSet

__all__ = [
    "ExperimentConfig",
    "geometric_probe_grid",
    "simulate",
    "sweep_probe_grid",
]

_DEFAULT_TRIALS = 100_000
_DEFAULT_INTENSITY_CAP = 1e6
_SWEEP_GROWTH = 1.2


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
        seed = int(self.seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        trials = int(self.trials)
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
            seed = int(document["seed"])
            trials = int(document["trials"])
            intensities = np.asarray(probes_doc["intensities"], dtype=float)
            probe_trials = int(probes_doc.get("trials", trials))
        except (KeyError, TypeError) as err:
            raise DataFormatError(f"malformed experiment config: {err}") from err
        if "click" in truth_doc:
            truth = DiagonalPovm.from_dict(truth_doc)
        elif "p" in truth_doc:
            truth = NonlinearSpdParams.from_dict(truth_doc)
        else:
            raise DataFormatError(
                "truth document must contain either 'click' (POVM) or 'p' (parameters)"
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
    Poisson-window row operator, each row ending at its own
    ``truncation_for(mu)``; all probes are then drawn by one vectorized
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


def sweep_probe_grid(
    truth,
    start: float = 1e-2,
    saturation_tolerance: float = 1e-3,
    *,
    trials: int = _DEFAULT_TRIALS,
    intensity_cap: float = _DEFAULT_INTENSITY_CAP,
) -> ProbeSet:
    """Geometric intensity sweep ending where the detector saturates.

    Marches mean photon numbers upward by a fixed ratio from ``start``
    until the noiseless click probability exceeds
    ``1 - saturation_tolerance``, mimicking the lab procedure of raising
    the probe power until the response stops changing. The vacuum probe is
    prepended. A detector that cannot saturate (e.g. dark counts only)
    would march forever, so exceeding ``intensity_cap`` raises
    ``SaturationCapError``.
    """
    if start <= 0:
        raise ValueError(f"start intensity must be > 0, got {start}")
    if not 0 < saturation_tolerance < 1:
        raise ValueError(
            f"saturation tolerance must lie in (0, 1), got {saturation_tolerance}"
        )
    if intensity_cap <= start:
        raise ValueError("intensity cap must exceed the start intensity")
    grid = []
    mu = float(start)
    while True:
        grid.append(mu)
        if _noiseless_clicks(truth, [mu])[0] > 1 - saturation_tolerance:
            break
        mu *= _SWEEP_GROWTH
        if mu > intensity_cap:
            raise SaturationCapError(
                f"click probability stayed below {1 - saturation_tolerance:g} "
                f"up to the intensity cap {intensity_cap:g}"
            )
    return ProbeSet(intensities=np.concatenate([[0.0], grid]), trials=trials)


def geometric_probe_grid(
    truth,
    *,
    points: int = 60,
    start: float = 1e-2,
    saturation_tolerance: float = 1e-3,
    trials: int = _DEFAULT_TRIALS,
    intensity_cap: float = _DEFAULT_INTENSITY_CAP,
) -> ProbeSet:
    """Fixed-size geometric grid from ``start`` to the saturation point.

    The sweep locates where the detector saturates; the returned set then
    spans [start, saturation] with ``points`` geometrically spaced
    intensities plus the vacuum probe. This is the canonical grid for
    simulation-driven fits, dense enough at low intensity to pin the
    small-order mechanisms.
    """
    if points < 2:
        raise ValueError(f"at least 2 grid points are required, got {points}")
    swept = sweep_probe_grid(
        truth,
        start,
        saturation_tolerance,
        trials=trials,
        intensity_cap=intensity_cap,
    )
    endpoint = float(swept.intensities[-1])
    grid = np.geomspace(start, endpoint, points)
    return ProbeSet(intensities=np.concatenate([[0.0], grid]), trials=trials)
