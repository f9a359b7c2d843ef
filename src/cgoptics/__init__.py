"""Gaussian-beam (complex geometric optics) construction for symmetric hyperbolic systems."""

from .beams import BeamParams, BeamSolution, build_beam
from .errors import CGOError, ConfigError, NumericsError
from .extension import ComplexCovector, eikonal_defect
from .fields import Cutoff, FieldGrid, assemble_field, eval_initial_data, initial_mismatch
from .phase import PhaseJet, build_phase_jet, eval_phase, solve_riccati
from .rays import InitialData, RayBundle, WaveComponent, evolve_frame, flow_out
from .scenarios import BUNDLED_SCENARIOS, ScenarioConfig, bundled_scenario
from .systems import (
    Domain,
    Mode,
    ModeDecomposition,
    SystemSpec,
    builtin_system,
    check_assumptions,
    eigen_decompose,
    load_system,
)
from .verification import (
    RateFit,
    SweepResult,
    l2_error_curve,
    rate_fit,
    reference_solve,
    residual_sup,
)

__all__ = [
    "BeamParams",
    "BeamSolution",
    "build_beam",
    "CGOError",
    "ConfigError",
    "NumericsError",
    "ComplexCovector",
    "eikonal_defect",
    "Cutoff",
    "FieldGrid",
    "assemble_field",
    "eval_initial_data",
    "initial_mismatch",
    "PhaseJet",
    "build_phase_jet",
    "eval_phase",
    "solve_riccati",
    "InitialData",
    "RayBundle",
    "WaveComponent",
    "evolve_frame",
    "flow_out",
    "BUNDLED_SCENARIOS",
    "ScenarioConfig",
    "bundled_scenario",
    "Domain",
    "Mode",
    "ModeDecomposition",
    "SystemSpec",
    "builtin_system",
    "check_assumptions",
    "eigen_decompose",
    "load_system",
    "RateFit",
    "SweepResult",
    "l2_error_curve",
    "rate_fit",
    "reference_solve",
    "residual_sup",
]

__version__ = "0.1.0"
