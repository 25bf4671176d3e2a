"""Characterization toolkit for binary click detectors.

Models photon detectors whose click statistics mix breakdown mechanisms of
different photon orders, reconstructs their diagonal POVMs from coherent
probe data, fits the mechanism efficiencies, and transforms everything
consistently under optical loss.

Public names resolve on first access, each by importing the module that
defines it. Every module but ``loss`` and ``simulator`` needs numpy
alone; the reconstruction's bounded-variable fallback imports
``scipy.optimize`` where it runs. So ``import nlspd``, ``import
nlspd.cli``, a reconstruction and a mechanism fit load no scipy: an
``nlspd`` command loads only the scipy it runs. ``loss`` and
``simulator`` import scipy at module level, so a process that imports
them pays for scipy then, not inside a solver's first call.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exceptions": ("ConvergenceError", "IllConditionedInversionError"),
    "loss": ("lossy_click_probability", "scale_povm", "unscale_povm"),
    "modelfit": (
        "FitReport",
        "MechanismLogVector",
        "ScalingLawFit",
        "fit_objective",
        "fit_params",
        "loss_scaling_analysis",
        "prune_mechanisms",
    ),
    "povm": (
        "DiagonalPovm",
        "NonlinearSpdParams",
        "coherent_click_probability",
        "log_survival",
        "nonlinear_povm",
        "npd_povm",
        "povm_click_probability",
        "spd_povm",
        "truncation_for",
    ),
    "simulator": ("ExperimentConfig", "geometric_probe_grid", "simulate"),
    "tomography": (
        "ClickRecord",
        "ProbeSet",
        "fidelity",
        "read_click_data",
        "reconstruct_povm",
        "scaled_fit_workflow",
        "write_click_data",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
