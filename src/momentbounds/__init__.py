"""Certified bounds on the worst-case Bayes error under moment constraints.

Given class priors and the first n raw moments of each class-conditional
distribution, this package computes a lower bound on the largest Bayes error
any moment-feasible set of distributions can produce (with an explicit
discrete witness certifying it), an upper bound from the minimax threshold
classifier, and the Gaussian-assumption baseline for comparison. The
lower-level machinery is imported from its own module, for example
``momentbounds.moments``.
"""

from .errors import InfeasibleSequenceError
from .gaussian import GaussianPair, gaussian_pair_bayes_error
from .lowerbound import BoundMethod, ClassSpec, LowerBoundResult, lower_bound
from .moments import DiscreteMeasure
from .upperbound import UpperBoundResult, upper_bound
from .witness import WitnessReport, verify_witness

__version__ = "0.1.0"

__all__ = [
    "BoundMethod",
    "ClassSpec",
    "DiscreteMeasure",
    "GaussianPair",
    "InfeasibleSequenceError",
    "LowerBoundResult",
    "UpperBoundResult",
    "WitnessReport",
    "gaussian_pair_bayes_error",
    "lower_bound",
    "upper_bound",
    "verify_witness",
]
