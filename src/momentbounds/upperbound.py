"""Worst-case error of the best threshold classifier in one dimension.

For a half-line S and a distribution with known mean and variance, the largest
probability any such distribution can place on S is 1 / (1 + c) with
c = (s - mu)^2 / sigma^2 when the mean lies outside S, and 1 otherwise (a
sharpened Chebyshev-Cantelli inequality). Minimizing the resulting worst-case
two-class error over the threshold location upper-bounds the supremum Bayes
error of any pair of distributions with the given moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lowerbound import ClassSpec


@dataclass(frozen=True)
class UpperBoundResult:
    """Upper bound value, optimal threshold and whether a ceiling bound it.

    ``clipped`` is True when no interior threshold attains the infimum: the
    reported value is the limiting error of a threshold pushed to infinity
    (the opposing class prior) or the trivial ceiling of 1. ``s_star`` is
    +/-inf in that case.
    """

    value: float
    s_star: float
    clipped: bool


def _ordered(c1: ClassSpec, c2: ClassSpec):
    # the class with the smaller mean claims the left half-line
    return (c1, c2) if c1.gamma1 <= c2.gamma1 else (c2, c1)


def _worst_error_vec(c1: ClassSpec, c2: ClassSpec, s: np.ndarray) -> np.ndarray:
    """Worst-case error of each threshold in ``s`` over all moment-feasible pairs.

    The class with the smaller mean is assigned the left half-line, so its
    error region is [s, inf) and the other class's is (-inf, s].
    """
    lo, hi = _ordered(c1, c2)

    def tail(mu, sigma2, errs_right):
        inside = (mu >= s) if errs_right else (mu <= s)
        if sigma2 <= 0.0:
            return np.where(inside, 1.0, 0.0)
        gap2 = (s - mu) ** 2
        return np.where(inside, 1.0, 1.0 / (1.0 + gap2 / sigma2))

    return (lo.prior * tail(lo.gamma1, max(lo.sigma2, 0.0), True)
            + hi.prior * tail(hi.gamma1, max(hi.sigma2, 0.0), False))


def upper_bound(c1: ClassSpec, c2: ClassSpec) -> UpperBoundResult:
    """Upper bound on the supremum Bayes error of a two-class problem.

    The infimum of the worst-case threshold error over the extended line.
    Between the means it is p_lo sigma_lo^2 / D_lo + p_hi sigma_hi^2 / D_hi,
    D = sigma^2 + (s - mu)^2, stationary at the real roots of the quintic
    p_lo sigma_lo^2 (s - mu_lo) D_hi^2 + p_hi sigma_hi^2 (s - mu_hi) D_lo^2
    (companion-matrix eigenvalues). A zero-variance class has its infimum,
    not attained, one ulp inside its mean. Outside the means the error never
    beats the s -> +/-inf limits (the class priors), candidates along with the
    ceiling 1. A finite ``s_star`` is a threshold whose error is the value.
    Equal variances and priors give min{4 sigma^2 / (4 sigma^2 + gap^2), 1/2}.
    """
    if abs(c1.prior + c2.prior - 1.0) > 1e-12:
        raise ValueError("the two class priors must sum to 1")
    lo_c, hi_c = _ordered(c1, c2)
    candidates = [(lo_c.prior, -math.inf, True),
                  (hi_c.prior, math.inf, True),
                  (1.0, math.nan, True)]
    gap = hi_c.gamma1 - lo_c.gamma1
    if gap > 0.0:
        sd_lo, sd_hi = math.sqrt(max(lo_c.sigma2, 0.0)), math.sqrt(max(hi_c.sigma2, 0.0))
        unit = max(gap, sd_lo, sd_hi)
        # x: distance from the narrower class a toward b, in units that keep
        # every coefficient of order one and a's q_a^2 clear of g^2
        (a, q_a, toward), (b, q_b, _) = sorted(
            [(lo_c, sd_lo / unit, 1.0), (hi_c, sd_hi / unit, -1.0)], key=lambda t: t[1])
        g = gap / unit
        d_a = np.array([q_a * q_a, 0.0, 1.0])  # q_a^2 + x^2
        d_b = np.array([q_b * q_b + g * g, -2.0 * g, 1.0])  # q_b^2 + (x - g)^2
        poly = (a.prior * q_a * q_a * np.convolve([0.0, 1.0], np.convolve(d_b, d_b))
                + b.prior * q_b * q_b * np.convolve([-g, 1.0], np.convolve(d_a, d_a)))
        x = np.roots(poly[::-1]).real
        # next to a class of negligible variance the error dips within about
        # q_a^(2/3) of its mean, too close for the eigenvalues once q_a < 1e-32
        x = np.append(x[(x > 0.0) & (x < g)], np.cbrt(q_a) ** 2)
        s = np.append(a.gamma1 + toward * unit * x,
                      [np.nextafter(lo_c.gamma1, math.inf), np.nextafter(hi_c.gamma1, -math.inf)])
        errors = _worst_error_vec(c1, c2, s)
        i = int(np.argmin(errors))
        candidates.insert(0, (float(errors[i]), float(s[i]), False))
    value, s_star, clipped = min(candidates, key=lambda t: (t[0], t[2]))
    return UpperBoundResult(float(value), s_star, clipped)


def trivial_upper_bound(G: int) -> float:
    """Ceiling (G - 1) / G that holds with no moment information at all."""
    if G < 2:
        raise ValueError("need at least two classes")
    return (G - 1) / G
