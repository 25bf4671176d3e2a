"""Characterization toolkit for binary click detectors.

Models photon detectors whose click statistics mix breakdown mechanisms of
different photon orders, reconstructs their diagonal POVMs from coherent
probe data, fits the mechanism efficiencies, and transforms everything
consistently under optical loss.
"""

from .exceptions import (
    ConvergenceError,
    DataFormatError,
    DegenerateDataError,
    IllConditionedInversionError,
    SaturationCapError,
    TargetUnreachableError,
    TruncationError,
    UndefinedFidelityError,
)
from .loss import LossChannel, lossy_click_probability, scale_povm, unscale_povm
from .modelfit import (
    FitReport,
    MechanismLogVector,
    ScalingLawFit,
    fit_objective,
    fit_params,
    loss_scaling_analysis,
    prune_mechanisms,
)
from .numerics import design_matrix
from .povm import (
    DiagonalPovm,
    NonlinearSpdParams,
    coherent_click_probability,
    log_survival,
    nonlinear_povm,
    npd_povm,
    povm_click_probability,
    spd_povm,
    truncation_for,
)
from .simulator import (
    ExperimentConfig,
    geometric_probe_grid,
    simulate,
    sweep_probe_grid,
)
from .tomography import (
    ClickRecord,
    ProbeSet,
    build_probe_matrix,
    fidelity,
    read_click_data,
    reconstruct_povm,
    scaled_fit_workflow,
    write_click_data,
)

__version__ = "0.1.0"

__all__ = [
    "ClickRecord",
    "ConvergenceError",
    "DataFormatError",
    "DegenerateDataError",
    "DiagonalPovm",
    "ExperimentConfig",
    "FitReport",
    "IllConditionedInversionError",
    "LossChannel",
    "MechanismLogVector",
    "NonlinearSpdParams",
    "ProbeSet",
    "SaturationCapError",
    "ScalingLawFit",
    "TargetUnreachableError",
    "TruncationError",
    "UndefinedFidelityError",
    "build_probe_matrix",
    "coherent_click_probability",
    "design_matrix",
    "fidelity",
    "fit_objective",
    "fit_params",
    "geometric_probe_grid",
    "log_survival",
    "loss_scaling_analysis",
    "lossy_click_probability",
    "nonlinear_povm",
    "npd_povm",
    "povm_click_probability",
    "prune_mechanisms",
    "read_click_data",
    "reconstruct_povm",
    "scale_povm",
    "scaled_fit_workflow",
    "simulate",
    "spd_povm",
    "sweep_probe_grid",
    "truncation_for",
    "unscale_povm",
    "write_click_data",
    "__version__",
]
