"""Worst-case error of the best threshold classifier in one dimension.

For a half-line S and a distribution with known mean and variance, the largest
probability any such distribution can place on S is 1 when the mean lies in
S, and otherwise the two-moment ``moments.shared_mass`` at its endpoint (a
sharpened Chebyshev-Cantelli inequality). Minimizing the resulting worst-case
two-class error over the threshold location upper-bounds the supremum Bayes
error of any pair of distributions with the given moments. The lower bound's
map has these means and variances, so lower <= upper exactly for n = 2 and 3.
A pair whose tails at each other's means outweigh the smaller prior skips the quintic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments as mm
from ._search import _real_roots
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


def _worst_error_vec(priors, s: np.ndarray, mass: mm.SharedMass) -> np.ndarray:
    """Worst-case error of each threshold in ``s`` over all moment-feasible pairs,
    per row, from ``mass``, the classes' two-moment shared-mass map, and their
    ``priors``. The class with the smaller mean (the first on a tie) is assigned
    the left half-line, so its error region is [s, inf) and the other class's is
    (-inf, s]."""
    (mu1, mu2), (m1, m2) = mass.mean, mass(s)
    left = mu1 <= mu2
    t1 = np.where(np.where(left, mu1 >= s, mu1 <= s), 1.0, m1)
    t2 = np.where(np.where(left, mu2 <= s, mu2 >= s), 1.0, m2)
    return priors[0] * t1 + priors[1] * t2


def _upper_rows(priors, mean, var):
    """``upper_bound``'s value, threshold and clipped flag for every row at
    once, as columns, from the checked ``priors`` and the two classes' ``mean``
    and ``var`` columns (a class axis first): each class's half-line tail is
    the two-moment map of those, a point mass's atom its mean.

    A row is decided, the limit, before its quintic is formed when the floor
    p1 eps1(mu2) + p2 eps2(mu1), in the map's arithmetic, clears it by 32 ulps:
    rounding is monotone, so every candidate between the means, or rounded a
    few ulps past b's mean, errs by more. Past it, near = q_a^(2/3) errs by
    p_b + p_a eps_a, eps_a >= near / (4 + 4 near) as rounding at most doubles
    its distance from a's mean. Unless near > 128 ulps that can tie a limit
    p_b, a tie the interior wins, so the row is decided only if near < g.
    """
    mean, var = (np.reshape(x, (2, -1, 1)) for x in (mean, var))
    (mu1, mu2), (p1, p2) = mean, priors
    left = mu1 <= mu2
    gap = np.abs(mu2 - mu1)
    inner = gap > 0.0
    sd1, sd2 = sd = np.sqrt(var)
    # equal means have no interior threshold: their sds keep the unused coefficients finite
    unit = np.maximum(np.maximum(gap, sd1), sd2)
    unit = np.where(unit > 0.0, unit, 1.0)
    # x: distance from the narrower class a toward b, in units that keep
    # every coefficient of order one and a's q_a^2 clear of g^2
    (q1, q2), g = sd / unit, gap / unit
    # next to a class of negligible variance the error dips within about
    # q_a^(2/3) of its mean, too close for the eigenvalues once q_a < 1e-32
    near = np.cbrt(np.minimum(q1, q2)) ** 2
    # a threshold at -inf (+inf) gives the line to the upper (lower) class and
    # errs by the other's prior; an interior threshold wins ties
    limit = min(p1, p2)
    s_limit = np.where(np.where(left, p1 <= p2, p2 <= p1), -math.inf, math.inf)
    with np.errstate(all="ignore"):  # an overflowing gap^2 gives 0, below the map's tail
        m1, m2 = var / (var + gap * gap)
    decided = ~inner | ((p1 * m1 + p2 * m2 > max(limit, mm._TINY) * (1.0 + 32.0 * mm._EPS))
                        & ((near < g) | (near > 128.0 * mm._EPS)))
    if decided.all():
        return np.full_like(gap, limit), s_limit, decided
    a1 = np.where(left, q1 <= q2, q1 < q2)  # class 1 is a: the narrower, the lower mean on a tie
    q_a, q_b = np.where(a1, q1, q2), np.where(a1, q2, q1)
    p_a, p_b = np.where(a1, p1, p2), np.where(a1, p2, p1)
    # p_a q_a^2 x D_b^2 + p_b q_b^2 (x - g) D_a^2, D_a = q_a^2 + x^2 and
    # D_b = b0 + b1 x + x^2, each coefficient rounded as np.convolve rounds it
    a0, b0, b1 = q_a * q_a, q_b * q_b + g * g, -2.0 * g
    w_a, w_b = p_a * q_a * q_a, p_b * q_b * q_b
    poly = np.concatenate([w_a * u + w_b * v for u, v in zip(
        (0.0, b0 * b0, 2.0 * (b0 * b1), (b0 + b1 * b1) + b0, 2.0 * b1, 1.0),
        (-g * (a0 * a0), a0 * a0, -g * (2.0 * a0), 2.0 * a0, -g, 1.0))], axis=1)
    x = _real_roots(np.where(decided, 0.0, poly))
    x = np.concatenate([np.where((x > 0.0) & (x < g), x, np.nan), near], axis=1)
    s = np.concatenate([np.where(a1, mu1, mu2) + np.where(a1 == left, 1.0, -1.0) * unit * x,
                        np.nextafter(np.minimum(mu1, mu2), math.inf),
                        np.nextafter(np.maximum(mu1, mu2), -math.inf)], axis=1)
    errors = _worst_error_vec(priors, s, mm._two_moment_map(mean, var))
    i = np.arange(len(s)), np.where(np.isnan(s), np.inf, errors).argmin(axis=1)
    err, s_in = errors[i][:, None], s[i][:, None]
    interior = inner & (err <= limit)
    return np.where(interior, err, limit), np.where(interior, s_in, s_limit), ~interior


def upper_bound(c1: ClassSpec, c2: ClassSpec) -> UpperBoundResult:
    """Upper bound on the supremum Bayes error of a two-class problem.

    The infimum of the worst-case threshold error over the extended line.
    Between the means it is p_lo sigma_lo^2 / D_lo + p_hi sigma_hi^2 / D_hi,
    D = sigma^2 + (s - mu)^2, stationary at the real roots of the quintic
    p_lo sigma_lo^2 (s - mu_lo) D_hi^2 + p_hi sigma_hi^2 (s - mu_hi) D_lo^2
    (companion-matrix eigenvalues). A zero-variance class has its infimum,
    not attained, one ulp inside its mean. Outside the means the error never
    beats the s -> +/-inf limits, the class priors, which are candidates too,
    lose ties to an interior threshold and win unsolved where the error between
    the means is at least a floor above them (``_upper_rows``). A finite
    ``s_star`` is a threshold whose error is the value. Equal
    variances and priors give min{4 sigma^2 / (4 sigma^2 + gap^2), 1/2}.
    """
    if c1.gamma2 is None or c2.gamma2 is None:
        raise ValueError("second moment unknown for this class")
    g1, g2 = g = np.array([[c1.gamma1, c2.gamma1], [c1.gamma2, c2.gamma2]], dtype=float)
    if not np.isfinite(g).all():
        raise ValueError("moments must be finite")
    if abs(c1.prior + c2.prior - 1.0) > 1e-12:
        raise ValueError("the two class priors must sum to 1")
    with np.errstate(over="ignore"):  # g1^2 beyond g2: a point mass, as in moments.shared_mass
        var = np.maximum(g2 - g1 * g1, 0.0)
    value, s_star, clipped = _upper_rows((c1.prior, c2.prior), g1, var)
    return UpperBoundResult(float(value[0, 0]), float(s_star[0, 0]), bool(clipped[0, 0]))
