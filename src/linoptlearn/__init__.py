"""Learning linear optical circuits from coherent-state training data.

The library simulates supervised learning of M-mode linear optical circuits:
closed-form Gaussian overlaps drive empirical-risk minimization over raw
transfer-matrix entries, staged discovery of the acted-on mode subset, and
numerical verification of generalization bounds, with a truncated Fock-space
brute force as an independent oracle.
"""

from .core import (
    ComplexTransfer,
    JuntaSpec,
    SymplecticOrthogonal,
    complexify,
    embed_junta,
    fidelity,
    from_json,
    frobenius_distance_squared,
    haar_unitary,
    random_junta,
    random_linear_optical,
    realify,
    spectral_distance,
    symplectic_form,
    to_json,
)
from .training import Scheme, TrainingSet, marginal_density, sample_sphere, sample_training_set
from .risk import (
    RiskReport,
    SeriesResult,
    ShotModel,
    empirical_risk,
    empirical_risk_gradient,
    full_risk_mc,
    series_full_risk,
    swap_test_risk,
)
from .optimize import OptimConfig, OptimResult, minimize, polar_project
from .junta import JuntaReport, StagePolicy, identify_junta, learn_junta
from .bounds import (
    C1,
    BoundParams,
    BoundReport,
    gap_bound,
    gap_bound_erm1,
    gap_bound_erm1_prime,
    gap_bound_erm2,
    generalization_experiment,
    lipschitz_check,
    minimal_sufficient_size,
)
from .fock import FockSpace, coherent_vector, fock_space, gaussian_unitary, oracle_fidelity

__version__ = "0.1.0"

__all__ = [
    "C1",
    "BoundParams",
    "BoundReport",
    "ComplexTransfer",
    "FockSpace",
    "JuntaReport",
    "JuntaSpec",
    "OptimConfig",
    "OptimResult",
    "RiskReport",
    "Scheme",
    "SeriesResult",
    "ShotModel",
    "StagePolicy",
    "SymplecticOrthogonal",
    "TrainingSet",
    "coherent_vector",
    "complexify",
    "embed_junta",
    "empirical_risk",
    "empirical_risk_gradient",
    "fidelity",
    "fock_space",
    "from_json",
    "frobenius_distance_squared",
    "full_risk_mc",
    "gap_bound",
    "gap_bound_erm1",
    "gap_bound_erm1_prime",
    "gap_bound_erm2",
    "gaussian_unitary",
    "generalization_experiment",
    "haar_unitary",
    "identify_junta",
    "learn_junta",
    "lipschitz_check",
    "marginal_density",
    "minimal_sufficient_size",
    "minimize",
    "oracle_fidelity",
    "polar_project",
    "random_junta",
    "random_linear_optical",
    "realify",
    "sample_sphere",
    "sample_training_set",
    "series_full_risk",
    "spectral_distance",
    "swap_test_risk",
    "symplectic_form",
    "to_json",
]
