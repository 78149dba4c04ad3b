"""Exact two-class Bayes error when both class conditionals are Gaussian."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GaussianPair:
    """Two Gaussian class conditionals with priors."""

    mu1: float
    mu2: float
    sigma1sq: float
    sigma2sq: float
    p1: float = 0.5
    p2: float = 0.5

    def __post_init__(self):
        if self.sigma1sq <= 0.0 or self.sigma2sq <= 0.0:
            raise ValueError("variances must be positive")
        if not (0.0 < self.p1 < 1.0 and 0.0 < self.p2 < 1.0):
            raise ValueError("priors must lie in (0, 1)")
        if abs(self.p1 + self.p2 - 1.0) > 1e-12:
            raise ValueError("priors must sum to 1")


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 absolute."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _crossings(a: float, b: float, c: float) -> list[float]:
    """Sorted crossings of q = a x^2 + b x + c: linear exactly when a == 0."""
    if a == 0.0:
        return [-c / b] if b else []
    # 4ac can overflow; units 2^e keep the roots
    e = max(math.frexp(a)[1], math.frexp(b)[1], math.frexp(c)[1])
    a_e, b, c = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e)
    disc = b * b - 4.0 * a_e * c
    if disc <= 0.0:
        # tangency or no real crossing: one class dominates everywhere
        return []
    r = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(r, b)) if b != 0.0 else 0.5 * r
    # an a that underflows in units 2^e puts the far root past the doubles
    return sorted((q / a_e if a_e else math.copysign(math.inf, q * a), c / q))


def gaussian_pair_bayes_error(g: GaussianPair) -> float:
    """Bayes error of the optimal rule for two weighted Gaussian densities.

    Solves p1 N(x; mu1, s1^2) = p2 N(x; mu2, s2^2) (linear when a = 0 below,
    as for equal variances), assigns each interval between crossings to the
    class with the larger weighted density, and integrates the winning
    densities with the normal CDF. Class 1 wins where q = a x^2 + b x + c is
    nonnegative: right of every crossing exactly when the leading nonzero
    coefficient of q is positive (c >= 0 when a = b = 0), and q changes sign
    at each crossing.
    """
    return _bayes_error(g.mu1, g.mu2, g.sigma1sq, g.sigma2sq, g.p1, g.p2)


def _bayes_error(mu1: float, mu2: float, v1: float, v2: float, p1: float, p2: float) -> float:
    """``gaussian_pair_bayes_error`` of unchecked variances v1, v2 > 0 and priors.
    q is scaled by f = 2^-e, 1 unless 0.5 / v overflows, and a variance ratio
    past the doubles has its log taken as a difference of logs."""
    small = min(v1, v2)
    f = 1.0 if small >= 2.0 ** -1024 else 2.0 ** (1023 + math.frexp(small)[1])
    ratio = v2 / v1
    log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(v2) - math.log(v1)
    a = 0.5 * f / v2 - 0.5 * f / v1
    b = (mu1 / v1 - mu2 / v2) * f
    c = ((mu2 * mu2) / (2.0 * v2) - (mu1 * mu1) / (2.0 * v1)
         + math.log(p1 / p2) + 0.5 * log_ratio) * f
    roots = _crossings(a, b, c)
    class1_wins = a > 0.0 if a else (b > 0.0 if b else c >= 0.0)
    if len(roots) % 2:
        class1_wins = not class1_wins  # the winner of the leftmost interval
    edges = [-math.inf] + roots + [math.inf]
    sd1, sd2, root2 = math.sqrt(v1), math.sqrt(v2), math.sqrt(2.0)
    winning_mass = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        mu, sd, p = (mu1, sd1, p1) if class1_wins else (mu2, sd2, p2)
        # normal_cdf(right) - normal_cdf(left), in its arithmetic
        winning_mass += p * (0.5 * math.erfc(-((right - mu) / sd) / root2)
                             - 0.5 * math.erfc(-((left - mu) / sd) / root2))
        class1_wins = not class1_wins
    return min(max(1.0 - winning_mass, 0.0), 1.0)
