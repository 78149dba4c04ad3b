"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test records a pass/fail line that is printed in the terminal summary;
``pytest tests/test_acceptance.py -v`` additionally shows one PASSED/FAILED
line per criterion.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from momentbounds import (
    ClassSpec,
    GaussianPair,
    gaussian_pair_bayes_error,
    lower_bound,
    upper_bound,
    verify_witness,
)
from momentbounds.gaussian import _crossings, normal_cdf
from momentbounds.lowerbound import _objective_vec, optimal_shift_numeric
from momentbounds.moments import is_feasible, max_shared_mass, moments_of, shared_mass
from momentbounds.witness import build_witness, discrete_bayes_error


def make_class(prior, mean, var):
    return ClassSpec(prior, mean, mean * mean + var)


def check(registry, number, description, body):
    try:
        body()
    except BaseException as exc:
        registry.append((number, False, f"{description} [{exc}]"))
        raise
    registry.append((number, True, description))


def test_criterion_1_equal_variance_closed_form(acceptance_registry):
    def body():
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            sd = rng.uniform(0.1, 3.0)
            gap = rng.uniform(0.0, 10.0)
            m = rng.uniform(-5.0, 5.0)
            classes = [make_class(0.5, m, sd * sd), make_class(0.5, m + gap, sd * sd)]
            mass = shared_mass([c.moment_sequence(2) for c in classes])
            d = optimal_shift_numeric(classes, mass)
            numeric = float(_objective_vec([0.5, 0.5], np.array([d]), mass)[0])
            closed = 2.0 * sd * sd / (4.0 * sd * sd + gap * gap)
            assert abs(numeric - closed) <= 1e-9, (sd, gap, numeric, closed)
            assert abs(lower_bound(classes, 2).value - closed) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    check(acceptance_registry, 1,
          "equal-variance closed form matches the numeric optimizer "
          "(200 random pairs, 1e-9, < 1s)", body)


def test_criterion_2_upper_is_twice_lower(acceptance_registry):
    def body():
        rng = np.random.default_rng(102)
        for _ in range(200):
            sd = rng.uniform(0.1, 3.0)
            gap = rng.uniform(2.01 * sd, 12.0 * sd)
            if 4.0 / (4.0 + gap * gap / (sd * sd)) >= 0.5:
                continue
            m = rng.uniform(-5.0, 5.0)
            classes = [make_class(0.5, m, sd * sd), make_class(0.5, m + gap, sd * sd)]
            up = upper_bound(*classes).value
            low = lower_bound(classes, 2).value
            assert abs(up - 2.0 * low) <= 1e-9, (sd, gap, up, low)

    check(acceptance_registry, 2,
          "upper bound equals twice the lower bound whenever "
          "4/(4+d^2/s^2) < 1/2 (1e-9)", body)


def test_criterion_3_sweep_reproduction(acceptance_registry):
    def body():
        start = time.perf_counter()
        mu2_grid = [round(0.1 * i, 10) for i in range(251)]
        for sigma2sq in (1.0, 5.0):
            lowers, uppers, gaussians = [], [], []
            for mu2 in mu2_grid:
                c1 = ClassSpec(0.5, 0.0, 1.0)
                c2 = ClassSpec(0.5, mu2, mu2 * mu2 + sigma2sq)
                low = lower_bound([c1, c2], 2).value
                up = upper_bound(c1, c2).value
                gau = gaussian_pair_bayes_error(
                    GaussianPair(0.0, mu2, 1.0, sigma2sq))
                assert gau <= low + 1e-9, (mu2, sigma2sq, gau, low)
                assert low <= up + 1e-9, (mu2, sigma2sq, low, up)
                lowers.append(low)
                uppers.append(up)
                gaussians.append(gau)
            if sigma2sq == 1.0:
                assert abs(lowers[0] - 0.5) <= 1e-9
                assert abs(uppers[0] - 0.5) <= 1e-9
                assert abs(gaussians[0] - 0.5) <= 1e-9
            assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(gaussians, gaussians[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    check(acceptance_registry, 3,
          "figure sweep: gaussian <= lower <= upper on both panels, all 0.5 "
          "at the origin, monotone decay (< 5s)", body)


def test_criterion_4_unequal_variance_spot(acceptance_registry):
    def body():
        classes = [ClassSpec(0.5, 0.0, 1.0), ClassSpec(0.5, 4.0, 21.0)]
        res = lower_bound(classes, 2)
        # independent dense-grid supremum oracle, one million points
        xs = np.linspace(0.0 - 10.0 * math.sqrt(5.0), 4.0 + 10.0 * math.sqrt(5.0),
                         1_000_000)
        vals = _objective_vec([0.5, 0.5], xs, shared_mass([c.moment_sequence(2) for c in classes]))
        i = int(np.argmax(vals))
        assert abs(res.delta_star - (math.sqrt(5.0) - 1.0)) <= 1e-6
        assert abs(res.delta_star - xs[i]) <= 1e-4
        assert abs(res.value - vals[i]) <= 1e-6
        assert abs(res.value - 0.197796) <= 1e-6

    check(acceptance_registry, 4,
          "unequal-variance spot: delta* = sqrt(5)-1, lower ~ 0.197796 "
          "against a 1e6-point grid oracle (1e-6)", body)


def test_criterion_5_feasibility_soundness(acceptance_registry):
    def body():
        rng = np.random.default_rng(105)
        for _ in range(500):
            k = int(rng.integers(1, 5))
            locs = rng.uniform(-4.0, 4.0, size=k)
            masses = rng.uniform(0.1, 1.0, size=k)
            masses = masses / masses.sum()
            seq = [float(sum(w * x ** j for x, w in zip(locs, masses)))
                   for j in range(5)]
            verdict = is_feasible(seq)
            assert verdict.feasible, (locs, masses, verdict)
        for _ in range(500):
            g1 = rng.uniform(-3.0, 3.0)
            margin = rng.uniform(1e-3, 1.0)
            seq = [1.0, g1, g1 * g1 - margin,
                   rng.uniform(-10, 10), rng.uniform(0, 30)]
            verdict = is_feasible(seq)
            assert not verdict.feasible, seq
            assert verdict.reason.value == "NOT_PSD", verdict

    check(acceptance_registry, 5,
          "feasibility: 500 random discrete measures all feasible, 500 "
          "variance-violating sequences all rejected", body)


def test_criterion_6_shared_mass_query(acceptance_registry):
    def body():
        rng = np.random.default_rng(106)
        for _ in range(200):
            g1 = rng.uniform(-3.0, 3.0)
            var = rng.uniform(0.05, 9.0)
            g2 = g1 * g1 + var
            expect = 1.0 - g1 * g1 / g2
            eps2, _ = max_shared_mass([1.0, g1, g2])
            assert abs(eps2 - expect) <= 1e-9
            eps3, attained3 = max_shared_mass([1.0, g1, g2, rng.uniform(-20, 20)])
            assert abs(eps3 - expect) <= 1e-9
            assert not attained3
        # standard-normal sequence: det A(2) = 3(1 - eps) - 1 vanishes at 2/3
        eps4, _ = max_shared_mass([1.0, 0.0, 1.0, 0.0, 3.0])
        assert abs(eps4 - 2.0 / 3.0) <= 1e-9

    check(acceptance_registry, 6,
          "shared mass: closed form 1 - g1^2/g2 for n in {2,3}, the Christoffel "
          "function hits 2/3 on the normal sequence (1e-9)", body)


def test_criterion_7_witness_certification(acceptance_registry):
    def body():
        rng = np.random.default_rng(107)
        for trial in range(100):
            if trial % 3 == 0:
                G = 3
                priors = rng.uniform(0.2, 1.0, size=G)
                priors = priors / priors.sum()
            elif trial % 3 == 1:
                G, priors = 2, [0.5, 0.5]
            else:
                G = 2
                p1 = rng.uniform(0.15, 0.85)
                priors = [p1, 1.0 - p1]
            classes = [make_class(p, rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
                       for p in priors]
            report = verify_witness(classes, 2)
            assert report.moment_mismatch <= 1e-9, (classes, report)
            assert report.bayes_error >= report.bound.value - 1e-6, (classes, report)

    check(acceptance_registry, 7,
          "witness certification on 100 random two-moment instances "
          "(moments 1e-9, error >= bound - 1e-6)", body)


def test_criterion_8_first_moment_bound(acceptance_registry):
    def body():
        rng = np.random.default_rng(108)
        for _ in range(50):
            G = int(rng.integers(2, 6))
            priors = rng.uniform(0.2, 1.0, size=G)
            priors = priors / priors.sum()
            means = rng.uniform(-5.0, 5.0, size=G)
            classes = [ClassSpec(p, m) for p, m in zip(priors, means)]
            res = lower_bound(classes, 1)
            assert abs(res.value - (1.0 - priors.max())) <= 1e-12
            assert not res.attained
            eps = 1.0 - 1e-6
            measures = build_witness(classes, 0.0, [eps] * G, n_moments=1)
            for c, m in zip(classes, measures):
                got = moments_of(m, 1)
                assert abs(got[1] - c.gamma1) <= 1e-9 * (1.0 + abs(c.gamma1))
            error = discrete_bayes_error(measures, priors)
            assert error >= (1.0 - priors.max()) * eps - 1e-12, (priors, error)

    check(acceptance_registry, 8,
          "first-moment bound 1 - max prior; its witness at eps = 1 - 1e-6 "
          "achieves error >= (1 - max prior) * eps", body)


def test_criterion_9_gaussian_baseline(acceptance_registry):
    def quadrature_error(g):
        def density(x, mu, var):
            return math.exp(-(x - mu) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)

        def integrand(x):
            return min(g.p1 * density(x, g.mu1, g.sigma1sq),
                       g.p2 * density(x, g.mu2, g.sigma2sq))

        sd = math.sqrt(max(g.sigma1sq, g.sigma2sq))
        lo = min(g.mu1, g.mu2) - 40 * sd
        hi = max(g.mu1, g.mu2) + 40 * sd
        a = 0.5 / g.sigma2sq - 0.5 / g.sigma1sq  # the log ratio of the weighted densities
        b = g.mu1 / g.sigma1sq - g.mu2 / g.sigma2sq
        c = (g.mu2 * g.mu2) / (2.0 * g.sigma2sq) - (g.mu1 * g.mu1) / (2.0 * g.sigma1sq) \
            + math.log(g.p1 / g.p2) + 0.5 * math.log(g.sigma2sq / g.sigma1sq)
        pts = [x for x in _crossings(a, b, c) if lo < x < hi]
        val, _ = quad(integrand, lo, hi, points=pts or None, limit=400, epsabs=1e-12)
        return val

    def body():
        spot = gaussian_pair_bayes_error(GaussianPair(0.0, 2.0, 1.0, 1.0))
        assert abs(spot - normal_cdf(-1.0)) <= 1e-12
        assert abs(spot - 0.158655) <= 1e-6
        rng = np.random.default_rng(109)
        for _ in range(100):
            p1 = rng.uniform(0.2, 0.8)
            g = GaussianPair(rng.uniform(-3, 3), rng.uniform(-3, 3),
                             rng.uniform(0.2, 6.0), rng.uniform(0.2, 6.0),
                             p1, 1.0 - p1)
            assert abs(gaussian_pair_bayes_error(g) - quadrature_error(g)) <= 1e-8

    check(acceptance_registry, 9,
          "gaussian baseline matches adaptive quadrature on 100 random pairs "
          "(1e-8) and the Phi(-1) spot value", body)
