"""Multi-object trajectory smoothing.

Forward Poisson multi-Bernoulli filtering over object sets, backward
simulation of trajectory sets through the smoothing kernel, an exact
enumeration oracle for desk-scale problems, and GOSPA evaluation.
"""

from .assignment import Assignment, murty, solve_lap
from .backward import (
    BackwardKernel,
    ContinuedSmoothed,
    EndedAtK,
    FirstDetected,
    LocalHypothesis,
    Particle,
    ParticleSet,
    SmootherParams,
    backward_simulate,
    best_particle,
    build_backward_kernel,
    sample_bernoulli,
    sample_global,
    split_y,
)
from .errors import (
    ConfigError,
    ContractError,
    InfeasibleAssignmentError,
    SettingError,
    SingularMatrixError,
    SizeCapError,
    TrajsmoothError,
)
from .forward import (
    BernoulliComponent,
    FilterLog,
    FilterParams,
    PMBDensity,
    extract_estimates,
    predict_pmb,
    prune_pmb,
    run_forward,
    update_pmb,
)
from .gaussians import (
    GaussianDensity,
    GaussianMixture,
    LinearMotionModel,
    make_cv_model,
    sample_gaussian,
)
from .metrics import (
    GospaResult,
    ParticleStats,
    gospa,
    gospa_over_time,
    particle_stats,
)
from .models import BirthModel, ClutterModel, MeasurementModel, make_position_measurement
from .oracle import (
    ExactPosterior,
    TrajectorySetHypothesis,
    exact_smooth,
    structure_probability,
    structure_signature,
)
from .simulate import (
    GroundTruth,
    Scenario,
    ScenarioConfig,
    generate_measurements,
    generate_truth,
    load_scenario_config,
    simulate_scenario,
)
from .trajectory import Trajectory, states_at_time

__all__ = [
    "Assignment",
    "murty",
    "solve_lap",
    "BackwardKernel",
    "ContinuedSmoothed",
    "EndedAtK",
    "FirstDetected",
    "LocalHypothesis",
    "Particle",
    "ParticleSet",
    "SmootherParams",
    "backward_simulate",
    "best_particle",
    "build_backward_kernel",
    "sample_bernoulli",
    "sample_global",
    "split_y",
    "ConfigError",
    "ContractError",
    "InfeasibleAssignmentError",
    "SettingError",
    "SingularMatrixError",
    "SizeCapError",
    "TrajsmoothError",
    "BernoulliComponent",
    "FilterLog",
    "FilterParams",
    "PMBDensity",
    "predict_pmb",
    "prune_pmb",
    "run_forward",
    "update_pmb",
    "GaussianDensity",
    "GaussianMixture",
    "LinearMotionModel",
    "make_cv_model",
    "sample_gaussian",
    "GospaResult",
    "ParticleStats",
    "extract_estimates",
    "gospa",
    "gospa_over_time",
    "particle_stats",
    "BirthModel",
    "ClutterModel",
    "MeasurementModel",
    "make_position_measurement",
    "ExactPosterior",
    "TrajectorySetHypothesis",
    "exact_smooth",
    "structure_probability",
    "structure_signature",
    "GroundTruth",
    "Scenario",
    "ScenarioConfig",
    "generate_measurements",
    "generate_truth",
    "load_scenario_config",
    "simulate_scenario",
    "Trajectory",
    "states_at_time",
]
__version__ = "0.1.0"
