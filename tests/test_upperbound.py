"""Tests for the minimax threshold upper bound."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentbounds import ClassSpec, DiscreteMeasure, lower_bound, upper_bound
from momentbounds import upperbound
from momentbounds.moments import moments_of, shared_mass
from momentbounds.upperbound import _upper_rows, _worst_error_vec


def make_class(prior, mean, var):
    return ClassSpec(prior, mean, mean * mean + var)


def worst_error_vec(c1, c2, s):
    """``_worst_error_vec`` at the thresholds ``s`` from the classes' two-moment
    map, with one row, as ``upper_bound`` reads it."""
    tails = shared_mass([[c1.moment_sequence(2)], [c2.moment_sequence(2)]])
    return _worst_error_vec((c1.prior, c2.prior), s, tails)


def worst_error(c1, c2, s):
    return float(worst_error_vec(c1, c2, np.array([s]))[0, 0])


def tail_prob(mu, var, s, errs_right):
    """Largest mass a (mu, var) class can put on its error half-line at s.

    Read off a two-class evaluation at equal priors whose other class is a
    point mass placed so that it contributes exactly 0: right of s when the
    class errs on [s, inf), left of s when it errs on (-inf, s].
    """
    c = make_class(0.5, mu, var)
    x = max(mu, s) + 1.0 if errs_right else min(mu, s) - 1.0
    return worst_error(c, make_class(0.5, x, 0.0), s) / 0.5


def test_halfline_prob_is_achieved_by_two_point_measure():
    mu, var, s = 0.0, 1.0, 1.0
    bound = tail_prob(mu, var, s, errs_right=True)
    assert bound == pytest.approx(0.5)
    # the classical extremal measure: mass 1/(1+c) at s, rest at mu - var/(s-mu)
    c = (s - mu) ** 2 / var
    alpha = 1.0 / (1.0 + c)
    other = mu - var / (s - mu)
    nu = DiscreteMeasure(((s, alpha), (other, 1.0 - alpha)))
    g0, g1, g2 = moments_of(nu, 2)
    assert g0 == pytest.approx(1.0)
    assert g1 == pytest.approx(mu)
    assert g2 - g1 * g1 == pytest.approx(var)
    mass_right = sum(w for x, w in nu.atoms if x >= s)
    assert mass_right == pytest.approx(bound)


def test_halfline_prob_mean_inside():
    assert tail_prob(2.0, 3.0, 1.0, errs_right=True) == 1.0
    assert tail_prob(0.5, 3.0, 1.0, errs_right=False) == 1.0


def test_halfline_prob_degenerate():
    assert tail_prob(0.0, 0.0, 1.0, errs_right=True) == 0.0
    assert tail_prob(0.0, 0.0, -1.0, errs_right=True) == 1.0


def test_linear_boundary_spot_value():
    c1, c2 = make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 1.0)
    assert worst_error(c1, c2, 2.0) == pytest.approx(0.2)


def test_linear_boundary_at_a_mean():
    c1, c2 = make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 1.0)
    assert worst_error(c1, c2, 0.0) >= 0.5
    assert worst_error(c1, c2, 4.0) >= 0.5


def test_linear_boundary_symmetry():
    c1, c2 = make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 1.0)
    for offset in (0.3, 0.9, 1.7):
        left = worst_error(c1, c2, 2.0 - offset)
        right = worst_error(c1, c2, 2.0 + offset)
        assert left == pytest.approx(right, abs=1e-12)


def test_upper_bound_spot_value():
    res = upper_bound(make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 1.0))
    assert res.value == pytest.approx(0.2, abs=1e-9)
    assert res.s_star == pytest.approx(2.0, abs=1e-6)
    assert not res.clipped


def test_upper_bound_equal_means_clips_to_half():
    res = upper_bound(make_class(0.5, 0.0, 1.0), make_class(0.5, 0.0, 1.0))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.clipped
    assert math.isinf(res.s_star)


def test_upper_bound_closed_form_equal_variances():
    rng = np.random.default_rng(31)
    for _ in range(40):
        sd = rng.uniform(0.2, 3.0)
        gap = rng.uniform(0.0, 10.0)
        m = rng.uniform(-4, 4)
        res = upper_bound(make_class(0.5, m, sd * sd), make_class(0.5, m + gap, sd * sd))
        closed = min(4.0 / (4.0 + gap * gap / (sd * sd)), 0.5)
        assert res.value == pytest.approx(closed, abs=1e-9)


def test_upper_is_twice_lower_in_separated_regime():
    rng = np.random.default_rng(32)
    for _ in range(30):
        sd = rng.uniform(0.2, 2.0)
        gap = rng.uniform(2.05 * sd, 12.0 * sd)
        classes = [make_class(0.5, 0.0, sd * sd), make_class(0.5, gap, sd * sd)]
        up = upper_bound(*classes).value
        low = lower_bound(classes, 2).value
        assert up == pytest.approx(2.0 * low, abs=1e-9)


def test_upper_bound_dominates_lower_bound():
    rng = np.random.default_rng(33)
    for _ in range(60):
        p1 = rng.uniform(0.15, 0.85)
        classes = [make_class(p1, rng.uniform(-5, 5), rng.uniform(0.05, 9.0)),
                   make_class(1 - p1, rng.uniform(-5, 5), rng.uniform(0.05, 9.0))]
        up = upper_bound(*classes)
        low = lower_bound(classes, 2)
        assert up.value >= low.value - 1e-9
        assert up.value <= 1.0


@pytest.mark.parametrize("n", [2, 3])
def test_lower_bound_never_exceeds_upper_bound_over_wide_ranges(n):
    # both bounds read one rounded two-moment shared-mass map, which shrinks
    # as |x - mu| grows: the ordering holds with no slack. The normal third
    # moment keeps n = 3 feasible.
    rng = np.random.default_rng(2011)
    for _ in range(500):
        p = float(rng.uniform(0.05, 0.95))
        classes = []
        for prior in (p, 1.0 - p):
            m = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 12.0))
            v = float(10.0 ** rng.uniform(-30.0, 20.0))
            classes.append(ClassSpec(prior, m, m * m + v, (m * m * m + 3.0 * m * v,)))
        if not all(math.isfinite(c.gamma2) for c in classes):
            continue
        assert lower_bound(classes, n).value <= upper_bound(*classes).value, classes


def test_wide_pair_reads_one_value_for_both_bounds():
    # class 2 is a point mass: the best threshold, one ulp inside its mean,
    # errs by class 1's tail there, which rounds as its shared mass does
    classes = [ClassSpec.from_moments(0.4672549868179575, [-1.0839707938327052,
                                                           169643070070.3915]),
               ClassSpec.from_moments(0.5327450131820425, [880.5433394024017,
                                                           775356.5725659331])]
    assert lower_bound(classes, 2).value == upper_bound(*classes).value == 0.46725284596962174


def test_upper_bound_translation_invariance():
    rng = np.random.default_rng(34)
    base = [make_class(0.5, -1.0, 2.0), make_class(0.5, 3.0, 0.7)]
    ref = upper_bound(*base)
    for _ in range(10):
        c = rng.uniform(-20, 20)
        moved = [make_class(0.5, -1.0 + c, 2.0), make_class(0.5, 3.0 + c, 0.7)]
        res = upper_bound(*moved)
        assert res.value == pytest.approx(ref.value, abs=1e-9)
        assert res.s_star == pytest.approx(ref.s_star + c, abs=1e-6)


def test_upper_bound_scale_covariance():
    base = [make_class(0.5, -1.0, 2.0), make_class(0.5, 3.0, 0.7)]
    ref = upper_bound(*base)
    for t in (0.25, 2.0, 11.0):
        scaled = [make_class(0.5, -1.0 * t, 2.0 * t * t),
                  make_class(0.5, 3.0 * t, 0.7 * t * t)]
        res = upper_bound(*scaled)
        assert res.value == pytest.approx(ref.value, abs=1e-9)


def test_upper_bound_never_exceeds_smaller_prior():
    # a threshold pushed to infinity errs only on the opposing class
    res = upper_bound(make_class(0.8, 0.0, 1.0), make_class(0.2, 0.1, 4.0))
    assert res.value <= 0.2 + 1e-12


def test_upper_bound_point_mass_against_spread_class():
    # a zero-variance class errs nowhere once s leaves its mean, so the
    # infimum 0.5 / (1 + 2^2) is approached, not attained, as s -> 0+
    res = upper_bound(make_class(0.5, 0.0, 0.0), make_class(0.5, 2.0, 1.0))
    assert res.value == pytest.approx(0.1, abs=1e-15)
    assert not res.clipped
    assert worst_error(make_class(0.5, 0.0, 0.0), make_class(0.5, 2.0, 1.0),
                       res.s_star) == res.value


def test_upper_bound_subnormal_variance_is_silent():
    # gap^2 / sigma^2 overflows to inf for a subnormal variance; the tail it
    # gives, 0, is right and must come without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = upper_bound(ClassSpec(0.5, 0.0, 1e-316), ClassSpec(0.5, 1.0, 2.0))
    assert res.value == 0.25


@pytest.mark.parametrize("c1,c2", [
    (make_class(0.5, 0.0, 1e-80), make_class(0.5, 1.0, 1.0)),
    (make_class(0.5, -9.366481015493536, 20.962238851568 ** 2),
     make_class(0.5, 5.016013560997727, 1.9544077100434775e-06 ** 2)),
    (make_class(0.5682092928975694, -0.03552054410227518, 0.016378936836681596 ** 2),
     make_class(0.4317907071024306, 0.027689177297679494, 1.6584693274924482e-08 ** 2)),
])
def test_upper_bound_next_to_a_narrow_class(c1, c2):
    # the error dips within a few (sd^2 * gap)^(1/3) of the narrow class's
    # mean: scan offsets from it on a log scale
    narrow, wide = (c1, c2) if c1.sigma2 < c2.sigma2 else (c2, c1)
    toward = math.copysign(1.0, wide.gamma1 - narrow.gamma1)
    s = narrow.gamma1 + toward * np.logspace(-40.0, 1.0, 400_001)
    res = upper_bound(c1, c2)
    assert res.value <= float(worst_error_vec(c1, c2, s).min()) + 1e-12
    assert worst_error(c1, c2, res.s_star) == res.value


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 0.9), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.just(0.0) | st.floats(0.01, 9.0), st.just(0.0) | st.floats(0.01, 9.0))
@example(0.5, 1.8713963843095027e-119, 0.0, 0.0, 1.0)  # gap^2 underflows
@example(0.5, 2.437710860274994e-266, 0.0, 0.0, 0.0)
def test_upper_bound_is_never_beaten_by_a_grid(p1, m1, m2, v1, v2):
    c1, c2 = make_class(p1, m1, v1), make_class(1.0 - p1, m2, v2)
    res = upper_bound(c1, c2)
    sd_lo, sd_hi = (math.sqrt(v1), math.sqrt(v2)) if m1 <= m2 else (math.sqrt(v2), math.sqrt(v1))
    s = np.linspace(min(m1, m2) - 10.0 * sd_lo, max(m1, m2) + 10.0 * sd_hi, 200_001)
    assert res.value <= float(worst_error_vec(c1, c2, s).min()) + 1e-12
    if not res.clipped:
        assert worst_error(c1, c2, res.s_star) == res.value


def test_upper_bound_tie_goes_to_the_interior_threshold():
    # q_a^(2/3) = 1e-16 lies past the wide class's mean, where the error
    # 0.5 + 0.5 * 1e-16 rounds to the limit 0.5: the interior threshold wins
    res = upper_bound(ClassSpec(0.5, 0.0, 1e-48), ClassSpec(0.5, 1e-19, 1.0))
    assert (res.value, res.s_star, res.clipped) == (0.5, 1.0000000000000001e-16, False)


@pytest.mark.parametrize("c1,c2,expected,solves", [
    # floor 0.3 / 5 + 0.7 * 5 / 9 = 0.449 > 0.3: the limit wins unsolved
    (ClassSpec(0.3, 0.0, 1.0), ClassSpec(0.7, 2.0, 9.0), (0.3, -math.inf, True), 0),
    # N(0,1) against N(2,1): the floor 0.2 is below 0.5, and s = 1 ties it
    (make_class(0.5, 0.0, 1.0), make_class(0.5, 2.0, 1.0), (0.5, 0.9999999999999997, False), 1),
])
def test_upper_bound_solves_the_quintic_only_when_a_threshold_can_win(
        monkeypatch, c1, c2, expected, solves):
    calls = []
    real_roots = upperbound._real_roots
    monkeypatch.setattr(upperbound, "_real_roots", lambda c: calls.append(c) or real_roots(c))
    res = upper_bound(c1, c2)
    assert (res.value, res.s_star, res.clipped) == expected
    assert len(calls) == solves


def test_upper_bound_does_not_depend_on_the_class_order():
    # either order takes the narrower class (the lower mean on a tie) as a, so
    # it forms the same quintic and candidates; with equal means the limit's
    # side follows the first class's prior
    rng = np.random.default_rng(2011)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-20.0, 20.0)
        p, (m1, m2) = rng.uniform(0.02, 0.98), rng.normal(size=2) * scale
        v1, v2 = scale * scale * 10.0 ** rng.uniform(-60.0, 2.0, 2)
        u = rng.random(4)
        v1, v2 = 0.0 if u[0] < 0.05 else v1, 0.0 if u[1] < 0.05 else v2  # point masses
        m2 = m1 if u[2] < 0.05 else m2
        if u[3] < 0.1:  # (-m1)^2 + v1 rounds as m1^2 + v1 does: equal variances
            m2, v2 = -m1, v1
        a, b = make_class(p, m1, v1), make_class(1.0 - p, m2, v2)
        ab, ba = upper_bound(a, b), upper_bound(b, a)
        assert (ab.value, ab.clipped) == (ba.value, ba.clipped), (a, b)
        assert m1 == m2 or ab.s_star == ba.s_star, (a, b)


PRIOR_PAIRS = [(0.5, 0.5), (0.3, 0.7), (0.7, 0.3), (0.1, 0.9)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(PRIOR_PAIRS), st.floats(-20.0, 20.0), st.floats(-1.0, 1.0),
       st.just(None) | st.floats(-20.0, 1.0), st.booleans(),
       st.lists(st.just(None) | st.floats(-60.0, 6.0), min_size=2, max_size=2))
@example((0.5, 0.5), 0.0, 0.0, -19.0, True, [-48.0, 0.0])  # the tie above
def test_upper_rows_decide_a_row_as_a_batch_does(priors, scale, center, gap, up, variances):
    # a decided row returns early alone; in a batch with an open row its
    # quintic is zeroed and its other candidates still evaluated
    unit = 10.0 ** scale
    m1 = center * unit
    m2 = m1 if gap is None else m1 + math.copysign(10.0 ** gap * unit, 1.0 if up else -1.0)
    v = [0.0 if e is None else 10.0 ** e * unit * unit for e in variances]
    alone = _upper_rows(priors, [m1, m2], v)
    batch = _upper_rows(priors, [[0.0, m1], [100.0, m2]], [[1.0, v[0]], [1.0, v[1]]])
    assert not batch[2][0, 0]  # the open row
    for one, rows in zip(alone, batch):
        assert one[0, 0] == rows[1, 0]
