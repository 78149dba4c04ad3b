"""Tests for the Gaussian-assumption Bayes error baseline."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from momentbounds import ClassSpec, GaussianPair, gaussian_pair_bayes_error, upper_bound
from momentbounds.gaussian import _crossings, normal_cdf


# classes 1e8 apart with tiny variances: 4ac of the crossing quadratic
# overflows, and the Bayes error is 0 in doubles
FAR_PAIRS = [GaussianPair(0.0, 1e8, 1e-300, 1e-10), GaussianPair(0.0, 1e8, 1e-300, 2.0)]


def crossings(g):
    """Where the weighted densities cross: the sign changes of
    log(p1 N(x; mu1, s1^2)) - log(p2 N(x; mu2, s2^2)) = a x^2 + b x + c."""
    a = 0.5 / g.sigma2sq - 0.5 / g.sigma1sq
    b = g.mu1 / g.sigma1sq - g.mu2 / g.sigma2sq
    c = (g.mu2 * g.mu2) / (2.0 * g.sigma2sq) - (g.mu1 * g.mu1) / (2.0 * g.sigma1sq) \
        + math.log(g.p1 / g.p2) + 0.5 * math.log(g.sigma2sq / g.sigma1sq)
    return _crossings(a, b, c)


def quadrature_bayes_error(g, epsabs=1e-12):
    """Oracle: integrate the pointwise minimum of the weighted densities."""
    def density(x, mu, var):
        return math.exp(-(x - mu) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)

    def integrand(x):
        return min(g.p1 * density(x, g.mu1, g.sigma1sq),
                   g.p2 * density(x, g.mu2, g.sigma2sq))

    sd = math.sqrt(max(g.sigma1sq, g.sigma2sq))
    lo = min(g.mu1, g.mu2) - 40 * sd
    hi = max(g.mu1, g.mu2) + 40 * sd
    pts = [x for x in crossings(g) if lo < x < hi]
    val, _ = quad(integrand, lo, hi, points=pts or None, limit=400, epsabs=epsabs)
    return val


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert abs(normal_cdf(40.0) - 1.0) < 1e-12
    assert abs(normal_cdf(-40.0)) < 1e-12
    # quadrature oracle for Phi(-1)
    oracle, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                     -40, -1.0, limit=200, epsabs=1e-14)
    assert normal_cdf(-1.0) == pytest.approx(oracle, abs=1e-12)


def test_identical_classes_give_half():
    g = GaussianPair(0.0, 0.0, 1.0, 1.0)
    assert gaussian_pair_bayes_error(g) == pytest.approx(0.5, abs=1e-15)
    # unequal priors: the larger one wins everywhere, and the error is 1 - 0.7
    assert gaussian_pair_bayes_error(GaussianPair(0.0, 0.0, 1.0, 1.0, 0.3, 0.7)) == 1.0 - 0.7


def test_equal_variance_spot_value():
    g = GaussianPair(0.0, 2.0, 1.0, 1.0)
    err = gaussian_pair_bayes_error(g)
    assert err == pytest.approx(normal_cdf(-1.0), abs=1e-12)
    assert err == pytest.approx(quadrature_bayes_error(g), abs=1e-10)


def test_equal_means_different_variances():
    g = GaussianPair(0.0, 0.0, 1.0, 5.0)
    err = gaussian_pair_bayes_error(g)
    assert err == pytest.approx(quadrature_bayes_error(g), abs=1e-8)
    assert err == pytest.approx(0.315, abs=5e-4)
    # no crossing: the wide class 2 wins everywhere (a < 0), and mirrored
    # the wide class 1 does (a > 0)
    for g in (GaussianPair(0.0, 0.0, 1.0, 5.0, 0.1, 0.9),
              GaussianPair(0.0, 0.0, 5.0, 1.0, 0.9, 0.1)):
        assert crossings(g) == []
        assert gaussian_pair_bayes_error(g) == 1.0 - 0.9


def test_agrees_with_quadrature_randomized():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = GaussianPair(rng.uniform(-3, 3), rng.uniform(-3, 3),
                         rng.uniform(0.2, 6.0), rng.uniform(0.2, 6.0),
                         *(lambda p: (p, 1 - p))(rng.uniform(0.2, 0.8)))
        assert gaussian_pair_bayes_error(g) == pytest.approx(
            quadrature_bayes_error(g), abs=1e-8)


@pytest.mark.parametrize("g", FAR_PAIRS, ids=["s2_1e-10", "s2_2"])
def test_far_pair_with_overflowing_discriminant(g):
    assert len(crossings(g)) == 2
    assert gaussian_pair_bayes_error(g) == 0.0


def test_variances_an_ulp_apart_cross_once():
    # 0.5 / s rounds alike for both variances, so the leading coefficient is
    # 0: one crossing, and the equal-variance error
    g = GaussianPair(0.0, 1.0, 1.9999999999999998, 1.9999999999999996)
    assert len(crossings(g)) == 1
    assert gaussian_pair_bayes_error(g) == pytest.approx(
        gaussian_pair_bayes_error(GaussianPair(0.0, 1.0, 2.0, 2.0)), abs=1e-15)
    assert _crossings(0.0, 0.0, 1.0) == [] and _crossings(0.0, 2.0, -1.0) == [0.5]


def test_translation_and_scale_invariance():
    base = gaussian_pair_bayes_error(GaussianPair(0.0, 1.5, 1.0, 3.0))
    for c in (-11.0, 4.2):
        assert gaussian_pair_bayes_error(
            GaussianPair(c, 1.5 + c, 1.0, 3.0)) == pytest.approx(base, abs=1e-12)
    for t in (0.2, 7.0):
        assert gaussian_pair_bayes_error(
            GaussianPair(0.0, 1.5 * t, t * t, 3.0 * t * t)) == pytest.approx(base, abs=1e-12)


def test_equal_priors_range():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = GaussianPair(rng.uniform(-3, 3), rng.uniform(-3, 3),
                         rng.uniform(0.2, 6.0), rng.uniform(0.2, 6.0))
        err = gaussian_pair_bayes_error(g)
        assert 0.0 < err <= 0.5 + 1e-12


def test_gaussian_error_below_upper_bound():
    rng = np.random.default_rng(43)
    pairs = list(FAR_PAIRS)
    for _ in range(30):
        mu = sorted(rng.uniform(-4, 4, size=2))
        var = rng.uniform(0.2, 5.0, size=2)
        p1 = rng.uniform(0.2, 0.8)
        pairs.append(GaussianPair(mu[0], mu[1], var[0], var[1], p1, 1 - p1))
    for g in pairs:
        classes = [ClassSpec(g.p1, g.mu1, g.mu1 ** 2 + g.sigma1sq),
                   ClassSpec(g.p2, g.mu2, g.mu2 ** 2 + g.sigma2sq)]
        assert gaussian_pair_bayes_error(g) <= upper_bound(*classes).value + 1e-9


def test_pair_validation():
    with pytest.raises(ValueError):
        GaussianPair(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPair(0.0, 1.0, 1.0, 1.0, 0.7, 0.7)
