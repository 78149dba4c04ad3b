"""Each public entry point refuses malformed input with a ValueError that says why."""

import math
import re

import pytest

from momentbounds import ClassSpec, DiscreteMeasure, GaussianPair, lower_bound, upper_bound
from momentbounds._search import grid_golden_max
from momentbounds.lowerbound import optimal_shift_numeric
from momentbounds.moments import is_feasible, max_shared_mass, moments_of, shared_mass
from momentbounds.witness import build_witness, discrete_bayes_error

PAIR = [ClassSpec(0.5, 0.0, 1.0), ClassSpec(0.5, 2.0, 5.0)]
POINT = DiscreteMeasure(((0.0, 1.0),))

CASES = {
    "higher_without_gamma2": (lambda: ClassSpec(0.5, 0.0, higher=(1.0,)),
                              "higher moments require gamma2"),
    "from_no_moments": (lambda: ClassSpec.from_moments(0.5, []), "need at least the first moment"),
    "sigma2_without_gamma2": (lambda: ClassSpec(0.5, 0.0).sigma2,
                              "second moment unknown for this class"),
    "sequence_past_n_moments": (lambda: PAIR[0].moment_sequence(3),
                                "class provides 2 moments, asked for 3"),
    "lower_one_class": (lambda: lower_bound(PAIR[:1], 2), "need at least two classes"),
    "lower_zero_moments": (lambda: lower_bound(PAIR, 0), "n_moments must be at least 1"),
    "lower_class_short": (lambda: lower_bound([PAIR[0], ClassSpec(0.5, 1.0)], 2),
                          "class 1 provides only 1 moments"),
    "numeric_one_class": (lambda: optimal_shift_numeric(PAIR[:1], None),
                          "need at least two classes"),
    "negative_order": (lambda: moments_of(POINT, -1), "moment order must be nonnegative"),
    "mass_not_one": (lambda: max_shared_mass([2.0, 0.0, 2.0]),
                     "shared-mass query expects a probability sequence (g0 = 1)"),
    "shared_mass_short": (lambda: shared_mass([1.0, 0.0]),
                          "need at least the first and second moments"),
    "feasible_2d": (lambda: is_feasible([[1.0, 0.0, 1.0]]),
                    "a moment sequence is a non-empty 1-D list of reals"),
    "feasible_non_finite": (lambda: is_feasible([1.0, math.nan, 1.0]), "moments must be finite"),
    "atom_non_finite": (lambda: DiscreteMeasure(((math.inf, 1.0),)), "atoms must be finite"),
    "witness_epsilon_count": (lambda: build_witness(PAIR, 1.0, [0.5], 2),
                              "need one epsilon per class"),
    "witness_epsilon_range": (lambda: build_witness(PAIR, 1.0, [0.5, 1.5], 2),
                              "epsilon must lie in [0, 1], got 1.5"),
    "bayes_error_counts": (lambda: discrete_bayes_error([POINT, POINT], [1.0]),
                           "need one prior per measure"),
    "bayes_error_priors": (lambda: discrete_bayes_error([POINT, POINT], [0.3, 0.3]),
                           "priors must lie in (0, 1) and sum to 1"),
    "gaussian_prior": (lambda: GaussianPair(0.0, 1.0, 1.0, 1.0, p1=1.0, p2=0.0),
                       "priors must lie in (0, 1)"),
    "upper_prior_sum": (lambda: upper_bound(ClassSpec(0.3, 0.0, 1.0), ClassSpec(0.3, 1.0, 2.0)),
                        "the two class priors must sum to 1"),
    "empty_interval": (lambda: grid_golden_max(lambda x: x, 1.0, 0.0, []),
                       "empty search interval"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
