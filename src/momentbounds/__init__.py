"""Certified bounds on the worst-case Bayes error under moment constraints.

Given class priors and the first n raw moments of each class-conditional
distribution, this package computes a lower bound on the largest Bayes error
any moment-feasible set of distributions can produce (with an explicit
discrete witness certifying it), an upper bound from the minimax threshold
classifier, and the Gaussian-assumption baseline for comparison.
"""

from .errors import InfeasibleSequenceError
from .gaussian import GaussianPair, gaussian_pair_bayes_error, normal_cdf
from .lowerbound import (
    BoundMethod,
    ClassSpec,
    LowerBoundResult,
    first_moment_bound,
    lower_bound,
    objective,
    optimal_shift_numeric,
    optimal_shift_two_class,
    overlap_fraction,
)
from .moments import (
    DEFAULT_TOL,
    DiscreteMeasure,
    FeasibilityReason,
    FeasibilityVerdict,
    HankelSystem,
    build_hankel,
    is_feasible,
    max_shared_mass,
    moments_of,
    recover_atoms,
    shift_moments,
)
from .upperbound import UpperBoundResult, trivial_upper_bound, upper_bound
from .witness import (
    WitnessReport,
    build_witness,
    discrete_bayes_error,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundMethod",
    "ClassSpec",
    "DEFAULT_TOL",
    "DiscreteMeasure",
    "FeasibilityReason",
    "FeasibilityVerdict",
    "GaussianPair",
    "HankelSystem",
    "InfeasibleSequenceError",
    "LowerBoundResult",
    "UpperBoundResult",
    "WitnessReport",
    "build_hankel",
    "build_witness",
    "discrete_bayes_error",
    "first_moment_bound",
    "gaussian_pair_bayes_error",
    "is_feasible",
    "lower_bound",
    "max_shared_mass",
    "moments_of",
    "normal_cdf",
    "objective",
    "optimal_shift_numeric",
    "optimal_shift_two_class",
    "overlap_fraction",
    "recover_atoms",
    "shift_moments",
    "trivial_upper_bound",
    "upper_bound",
    "verify_witness",
]
