"""Spectral simulation and verification of second-order-in-time stochastic
PDEs driven by spatially homogeneous Gaussian noise."""

from .covariance import SpectralMeasure, admissibility_integral, admissible
from .greens import GreenMultiplier, j_field, j_functional
from .lattice import Grid, LatticeField, h_neg_k_norm, l2_norm, read_field, write_field
from .noise import NoisePath, sample_path, sample_slice
from .solver import (
    MomentSummary,
    Nonlinearity,
    SolveConfig,
    SolveReport,
    deterministic_part,
    deterministic_velocity,
    energy_trajectory,
    explicit_sweep,
    moment_track,
    picard_iterate,
)
from .stochint import (
    IntegrandProcess,
    Mollifier,
    convolution_moment_mc,
    isometry_alternative,
    isometry_bound,
    isometry_functional,
    ladder_distance,
    stochastic_convolution,
    truncation_distance,
)
from .weighted import (
    Weight,
    annuli_norms,
    equivalence_constants,
    weighted_isometry_bound,
    weighted_wave_solve,
)

__version__ = "0.1.0"

__all__ = [
    "SpectralMeasure",
    "admissibility_integral",
    "admissible",
    "GreenMultiplier",
    "j_field",
    "j_functional",
    "Grid",
    "LatticeField",
    "h_neg_k_norm",
    "l2_norm",
    "read_field",
    "write_field",
    "NoisePath",
    "sample_path",
    "sample_slice",
    "MomentSummary",
    "Nonlinearity",
    "SolveConfig",
    "SolveReport",
    "deterministic_part",
    "deterministic_velocity",
    "energy_trajectory",
    "explicit_sweep",
    "moment_track",
    "picard_iterate",
    "IntegrandProcess",
    "Mollifier",
    "convolution_moment_mc",
    "isometry_alternative",
    "isometry_bound",
    "isometry_functional",
    "ladder_distance",
    "stochastic_convolution",
    "truncation_distance",
    "Weight",
    "annuli_norms",
    "equivalence_constants",
    "weighted_isometry_bound",
    "weighted_wave_solve",
]
