"""Quadratic-exponential moments, MGF norm bounds, and tail-probability
bounds for quantum stochastic systems with position-momentum commutation
structure, including the full time-dependent pipeline for open quantum
harmonic oscillators."""

from .ccr import (
    CcrMatrix,
    J2,
    SymplecticBasis,
    aux_covariance,
    log_det_cos,
    matrix_function,
    mode_matrix,
    symplectic_eigenbasis,
    validate_ccr,
)
from .classical import (
    ClassicalGaussian,
    IdentityCheck,
    classical_gaussian_qem,
    classical_qem_mc,
    empirical_tail,
    randomized_identity_check,
)
from .errors import QemBoundError
from .oqho import (
    GramianResult,
    OqhoModel,
    dynamics_matrices,
    gramian_finite,
    gramian_infinite,
    propagate_mgf,
    qem_bound_time,
)
from .qem import (
    ExactEngine,
    QemValue,
    ScalarBoundEngine,
    TailBound,
    critical_mu,
    exact_cgf,
    qem_exact,
    qem_randomized_mc,
    qem_upper_bound,
    qem_upper_bound_scalar_opt,
    scalar_bound_cgf,
    scalar_weight_limit,
    tail_bound,
)
from .states import (
    GaussianState,
    MixtureMgf,
    WeightMatrix,
    as_mixture,
    log_scalar_norm,
    log_weighted_norm,
    mgf_eval,
)

__version__ = "0.1.0"

__all__ = [
    "CcrMatrix",
    "ClassicalGaussian",
    "ExactEngine",
    "GaussianState",
    "GramianResult",
    "IdentityCheck",
    "J2",
    "MixtureMgf",
    "OqhoModel",
    "QemBoundError",
    "QemValue",
    "ScalarBoundEngine",
    "SymplecticBasis",
    "TailBound",
    "WeightMatrix",
    "as_mixture",
    "aux_covariance",
    "classical_gaussian_qem",
    "classical_qem_mc",
    "critical_mu",
    "dynamics_matrices",
    "empirical_tail",
    "exact_cgf",
    "gramian_finite",
    "gramian_infinite",
    "log_det_cos",
    "log_scalar_norm",
    "log_weighted_norm",
    "matrix_function",
    "mgf_eval",
    "mode_matrix",
    "propagate_mgf",
    "qem_bound_time",
    "qem_exact",
    "qem_randomized_mc",
    "qem_upper_bound",
    "qem_upper_bound_scalar_opt",
    "randomized_identity_check",
    "scalar_bound_cgf",
    "scalar_weight_limit",
    "symplectic_eigenbasis",
    "tail_bound",
    "validate_ccr",
]
