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

from ._search import _columns, _real_roots
from .lowerbound import ClassSpec


@dataclass(frozen=True)
class UpperBoundResult:
    """Upper bound value, optimal threshold and whether a ceiling bound it.

    ``clipped`` is True when no interior threshold attains the infimum: the
    reported value is the limiting error of a threshold pushed to infinity,
    a class prior. ``s_star`` is +/-inf in that case.
    """

    value: float
    s_star: float
    clipped: bool


def _worst_error_vec(c1: ClassSpec, c2: ClassSpec, s: np.ndarray) -> np.ndarray:
    """Worst-case error of each threshold in ``s`` over all moment-feasible pairs.

    The class with the smaller mean (c1 on a tie) is assigned the left
    half-line, so its error region is [s, inf) and the other class's is
    (-inf, s]. Per row when the moments are columns.
    """
    left = c1.gamma1 <= c2.gamma1
    # a subnormal variance: gap^2 / var = inf, and a tail of 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t1, t2 = (np.where(np.where(errs_right, c.gamma1 >= s, c.gamma1 <= s), 1.0,
                           np.where(c.sigma2 > 0.0, 1.0 / (1.0 + (s - c.gamma1) ** 2 / c.sigma2),
                                    0.0))
                  for c, errs_right in ((c1, left), (c2, np.logical_not(left))))
    return c1.prior * t1 + c2.prior * t2


def _upper_rows(c1: ClassSpec, c2: ClassSpec):
    """``upper_bound``'s value, threshold and clipped flag for every row at
    once, as columns; ``gamma1`` and ``gamma2`` may be (rows, 1) columns."""
    if abs(c1.prior + c2.prior - 1.0) > 1e-12:
        raise ValueError("the two class priors must sum to 1")
    one, two = ((c.prior, c.gamma1, np.maximum(c.sigma2, 0.0)) for c in (c1, c2))
    p1, mu1, var1, p2, mu2, var2 = _columns(*one, *two)
    left = mu1 <= mu2
    p_lo, mu_lo, var_lo, p_hi, mu_hi, var_hi = (
        np.where(left, x, y) for x, y in zip((p1, mu1, var1, p2, mu2, var2),
                                             (p2, mu2, var2, p1, mu1, var1)))
    gap = mu_hi - mu_lo
    inner = gap > 0.0
    sd_lo, sd_hi = np.sqrt(var_lo), np.sqrt(var_hi)
    # equal means leave no interior threshold: unit 1 keeps their rows finite
    unit = np.where(inner, np.maximum(np.maximum(gap, sd_lo), sd_hi), 1.0)
    # x: distance from the narrower class a toward b, in units that keep
    # every coefficient of order one and a's q_a^2 clear of g^2
    q_lo, q_hi, g = sd_lo / unit, sd_hi / unit, gap / unit
    a_lo = q_lo <= q_hi
    q_a, q_b = np.where(a_lo, q_lo, q_hi), np.where(a_lo, q_hi, q_lo)
    p_a, p_b = np.where(a_lo, p_lo, p_hi), np.where(a_lo, p_hi, p_lo)
    # p_a q_a^2 x D_b^2 + p_b q_b^2 (x - g) D_a^2, D_a = q_a^2 + x^2 and
    # D_b = b0 + b1 x + x^2, each coefficient rounded as np.convolve rounds it
    a0, b0, b1 = q_a * q_a, q_b * q_b + g * g, -2.0 * g
    w_a, w_b = p_a * q_a * q_a, p_b * q_b * q_b
    poly = np.concatenate([w_a * u + w_b * v for u, v in zip(
        (0.0, b0 * b0, 2.0 * (b0 * b1), (b0 + b1 * b1) + b0, 2.0 * b1, 1.0),
        (-g * (a0 * a0), a0 * a0, -g * (2.0 * a0), 2.0 * a0, -g, 1.0))], axis=1)
    x = _real_roots(np.where(inner, poly, 0.0))
    # next to a class of negligible variance the error dips within about
    # q_a^(2/3) of its mean, too close for the eigenvalues once q_a < 1e-32
    x = np.concatenate([np.where((x > 0.0) & (x < g), x, np.nan), np.cbrt(q_a) ** 2], axis=1)
    s = np.concatenate([np.where(a_lo, mu_lo, mu_hi) + np.where(a_lo, 1.0, -1.0) * unit * x,
                        np.nextafter(mu_lo, math.inf), np.nextafter(mu_hi, -math.inf)], axis=1)
    errors = _worst_error_vec(c1, c2, s)
    i = np.arange(len(s)), np.where(np.isnan(s), np.inf, errors).argmin(axis=1)
    err, s_in = errors[i][:, None], s[i][:, None]
    # a threshold at -inf (+inf) gives the line to the upper (lower) class and
    # errs by the other's prior; an interior threshold wins ties
    limit = np.minimum(p_lo, p_hi)
    interior = inner & (err <= limit)
    s_limit = np.where(p_lo <= p_hi, -math.inf, math.inf)
    return np.where(interior, err, limit), np.where(interior, s_in, s_limit), ~interior


def upper_bound(c1: ClassSpec, c2: ClassSpec) -> UpperBoundResult:
    """Upper bound on the supremum Bayes error of a two-class problem.

    The infimum of the worst-case threshold error over the extended line.
    Between the means it is p_lo sigma_lo^2 / D_lo + p_hi sigma_hi^2 / D_hi,
    D = sigma^2 + (s - mu)^2, stationary at the real roots of the quintic
    p_lo sigma_lo^2 (s - mu_lo) D_hi^2 + p_hi sigma_hi^2 (s - mu_hi) D_lo^2
    (companion-matrix eigenvalues). A zero-variance class has its infimum,
    not attained, one ulp inside its mean. Outside the means the error never
    beats the s -> +/-inf limits, the class priors, which are candidates too.
    A finite ``s_star`` is a threshold whose error is the value. Equal
    variances and priors give min{4 sigma^2 / (4 sigma^2 + gap^2), 1/2}.
    """
    value, s_star, clipped = _upper_rows(c1, c2)
    return UpperBoundResult(float(value[0, 0]), float(s_star[0, 0]), bool(clipped[0, 0]))
