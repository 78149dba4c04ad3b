"""Tests for the shared-mass lower bound and its shift optimization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentbounds import (
    BoundMethod,
    ClassSpec,
    DiscreteMeasure,
    InfeasibleSequenceError,
    lower_bound,
)
from momentbounds._search import GRID_POINTS, PASS_POINTS, _linspace, grid_golden_max
from momentbounds.lowerbound import (
    _objective_vec,
    optimal_shift_numeric,
    optimal_shift_two_class,
)
from momentbounds.moments import is_feasible, moments_of, shared_mass, shift_moments


def make_class(prior, mean, var, rng=None):
    return ClassSpec(prior, mean, mean * mean + var)


def random_two_class(rng, equal_priors=True):
    p1 = 0.5 if equal_priors else rng.uniform(0.15, 0.85)
    m1, m2 = rng.uniform(-5, 5, size=2)
    v1, v2 = rng.uniform(0.05, 9.0, size=2)
    return [make_class(p1, m1, v1), make_class(1.0 - p1, m2, v2)]


def grid_sup_objective(classes, mass, num=200_001, margin=10.0):
    """Dense-grid oracle for the supremum of the shift objective; ``mass``
    is the classes' shared-mass map."""
    means = [c.gamma1 for c in classes]
    smax = max(math.sqrt(max(c.sigma2, 0.0)) for c in classes)
    xs = np.linspace(min(means) - margin * smax, max(means) + margin * smax, num)
    vals = _objective_vec(classes, xs, mass)
    i = int(np.argmax(vals))
    return float(xs[i]), float(vals[i])


def test_overlap_fraction_peaks_at_mean():
    c = make_class(0.5, 1.7, 2.3)
    assert shared_mass(c.moment_sequence(2))(1.7) == 1.0


def test_overlap_fraction_half_and_algebraic_form():
    c = make_class(0.5, 0.0, 1.0)
    mass = shared_mass(c.moment_sequence(2))
    assert mass(1.0) == pytest.approx(0.5)
    # same value through 1 - (g1 - d)^2 / (g2 + d^2 - 2 d g1)
    for d in (-2.0, -0.3, 0.4, 1.0, 5.0):
        direct = float(mass(d))
        alt = 1.0 - (c.gamma1 - d) ** 2 / (c.gamma2 + d * d - 2 * d * c.gamma1)
        assert direct == pytest.approx(alt, abs=1e-12)


def test_overlap_fraction_point_mass():
    mass = shared_mass(ClassSpec(0.5, 2.0, 4.0).moment_sequence(2))
    assert mass(2.0) == 1.0
    assert mass(2.1) == 0.0


def test_objective_identical_classes():
    c = make_class(0.5, 1.0, 2.0)
    one, mass = shared_mass(c.moment_sequence(2)), shared_mass([c.moment_sequence(2)] * 2)
    for d in (-1.0, 0.0, 1.0, 3.0):
        assert _objective_vec([c, c], np.array([d]), mass)[0] == pytest.approx(0.5 * one(d))


def test_objective_two_class_is_min():
    classes = [make_class(0.5, 0.0, 1.0), make_class(0.5, 2.0, 1.0)]
    mass = shared_mass([c.moment_sequence(2) for c in classes])
    for d in np.linspace(-2, 4, 31):
        f1 = float(shared_mass(classes[0].moment_sequence(2))(d))
        f2 = float(shared_mass(classes[1].moment_sequence(2))(d))
        assert _objective_vec(classes, np.array([d]), mass)[0] == pytest.approx(
            0.5 * min(f1, f2), abs=1e-15)
    assert _objective_vec(classes, np.array([1.0]), mass)[0] == pytest.approx(0.25)


def test_optimal_shift_two_class_equal_variances():
    c1, c2 = make_class(0.5, 0.0, 1.0), make_class(0.5, 2.0, 1.0)
    mass = shared_mass([c1.moment_sequence(2), c2.moment_sequence(2)])
    assert optimal_shift_two_class(c1, c2, mass) == pytest.approx(1.0)


def test_optimal_shift_two_class_quadratic_case():
    c1, c2 = make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 5.0)
    mass = shared_mass([c1.moment_sequence(2), c2.moment_sequence(2)])
    delta = optimal_shift_two_class(c1, c2, mass)
    assert delta == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-12)
    f1 = float(shared_mass(c1.moment_sequence(2))(delta))
    f2 = float(shared_mass(c2.moment_sequence(2))(delta))
    assert f1 == pytest.approx(f2, abs=1e-12)
    assert f1 == pytest.approx(1.0 / (7.0 - 2.0 * math.sqrt(5.0)), abs=1e-12)
    d_oracle, _ = grid_sup_objective([c1, c2], mass, num=1_000_001)
    assert delta == pytest.approx(d_oracle, abs=1e-4)


def test_optimal_shift_two_class_equal_means():
    c1, c2 = make_class(0.5, 1.5, 1.0), make_class(0.5, 1.5, 7.0)
    mass = shared_mass([c1.moment_sequence(2), c2.moment_sequence(2)])
    assert optimal_shift_two_class(c1, c2, mass) == 1.5


def test_optimal_shift_two_class_unequal_priors_pinned():
    # 0.3 / (1 + d^2) = 0.7 / (1 + (d - 2)^2) at d = (sqrt(17) - 3) / 2
    c1, c2 = make_class(0.3, 0.0, 1.0), make_class(0.7, 2.0, 1.0)
    delta = (math.sqrt(17.0) - 3.0) / 2.0
    mass = shared_mass([c1.moment_sequence(2), c2.moment_sequence(2)])
    assert optimal_shift_two_class(c1, c2, mass) == pytest.approx(delta, abs=1e-14)
    res = lower_bound([c1, c2], 2)
    assert res.method is BoundMethod.CLOSED_FORM_G2
    assert res.delta_star == pytest.approx(delta, abs=1e-14)
    assert res.value == pytest.approx(0.2280776406404415, abs=1e-14)
    assert res.value == pytest.approx(0.3 / (1.0 + delta * delta), abs=1e-14)


def test_numeric_matches_closed_form_objective():
    rng = np.random.default_rng(21)
    for _ in range(40):
        classes = random_two_class(rng)
        mass = shared_mass([c.moment_sequence(2) for c in classes])
        d_closed = optimal_shift_two_class(*classes, mass)
        d_num = optimal_shift_numeric(classes, mass)
        assert _objective_vec(classes, np.array([d_num]), mass)[0] == pytest.approx(
            _objective_vec(classes, np.array([d_closed]), mass)[0], abs=1e-6)


def test_numeric_optimum_lies_between_extreme_means():
    rng = np.random.default_rng(22)
    for _ in range(20):
        classes = random_two_class(rng)
        d = optimal_shift_numeric(classes, shared_mass([c.moment_sequence(2) for c in classes]))
        lo = min(c.gamma1 for c in classes) - 1e-9
        hi = max(c.gamma1 for c in classes) + 1e-9
        assert lo <= d <= hi


def test_numeric_beats_dense_grid_three_class():
    classes = [make_class(1 / 3, 0.0, 1.0), make_class(1 / 3, 1.0, 1.0),
               make_class(1 / 3, 5.0, 1.0)]
    mass = shared_mass([c.moment_sequence(2) for c in classes])
    d = optimal_shift_numeric(classes, mass)
    _, oracle = grid_sup_objective(classes, mass)
    value = _objective_vec(classes, np.array([d]), mass)[0]
    assert value >= oracle - 1e-9
    # and never below the midpoint rule of the weaker min-based bound
    means = [c.gamma1 for c in classes]
    assert value >= _objective_vec(classes, np.array([0.5 * (min(means) + max(means))]), mass)[0]
    # G = 3..6 five-atom classes, with the two- and four-moment maps
    rng = np.random.default_rng(31)
    for G in range(3, 7):
        for n in (2, 4):
            priors = rng.dirichlet(np.full(G, 2.0)) * 0.8 + 0.2 / G
            classes = [atomic_class(p, list(zip(1.5 * i + rng.uniform(-2.0, 2.0, 5),
                                                rng.uniform(0.1, 1.0, 5))))
                       for i, p in enumerate(priors)]
            mass = shared_mass([c.moment_sequence(n) for c in classes])
            d = optimal_shift_numeric(classes, mass)
            _, oracle = grid_sup_objective(classes, mass, num=100_001)
            value = float(_objective_vec(classes, np.array([d]), mass)[0])
            assert value >= oracle - 1e-12, (G, n, value, oracle)


def test_lower_bound_equal_variance_formula():
    rng = np.random.default_rng(23)
    for _ in range(30):
        sd = rng.uniform(0.1, 3.0)
        d = rng.uniform(0.0, 8.0)
        m = rng.uniform(-4, 4)
        classes = [make_class(0.5, m, sd * sd), make_class(0.5, m + d, sd * sd)]
        res = lower_bound(classes, 2)
        expect = 2 * sd * sd / (4 * sd * sd + d * d)
        assert res.value == pytest.approx(expect, abs=1e-12)
        assert res.delta_star == pytest.approx(m + d / 2, abs=1e-12)
        assert res.method is BoundMethod.CLOSED_FORM_G2


def test_lower_bound_unequal_variance_spot():
    classes = [make_class(0.5, 0.0, 1.0), make_class(0.5, 4.0, 5.0)]
    res = lower_bound(classes, 2)
    assert res.method is BoundMethod.CLOSED_FORM_G2
    assert res.delta_star == pytest.approx(math.sqrt(5.0) - 1.0, abs=1e-9)
    assert res.value == pytest.approx(0.5 / (7.0 - 2.0 * math.sqrt(5.0)), abs=1e-12)
    assert res.value == pytest.approx(0.197796, abs=1e-6)
    assert res.attained


def test_lower_bound_equal_means_is_half():
    res = lower_bound([make_class(0.5, 1.0, 2.0), make_class(0.5, 1.0, 9.0)], 2)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert not res.attained


def test_lower_bound_value_matches_epsilons():
    rng = np.random.default_rng(24)
    for equal in (True, False):
        for _ in range(20):
            classes = random_two_class(rng, equal_priors=equal)
            res = lower_bound(classes, 2)
            weighted = [c.prior * e for c, e in zip(classes, res.epsilons)]
            assert res.value == pytest.approx(sum(weighted) - max(weighted), abs=1e-12)
            assert 0.0 <= res.value <= 0.5 + 1e-12


def test_lower_bound_three_moments_same_value_not_attained():
    c1 = ClassSpec(0.5, 0.0, 1.0, higher=(0.2,))
    c2 = ClassSpec(0.5, 2.0, 5.0, higher=(9.1,))
    res2 = lower_bound([ClassSpec(0.5, 0.0, 1.0), ClassSpec(0.5, 2.0, 5.0)], 2)
    res3 = lower_bound([c1, c2], 3)
    assert res3.value == pytest.approx(res2.value, abs=1e-12)
    assert res2.attained and not res3.attained


def test_lower_bound_first_moment():
    res = lower_bound([ClassSpec(0.25, 0.0), ClassSpec(0.25, 1.0),
                       ClassSpec(0.5, 3.0)], 1)
    assert res.value == pytest.approx(0.5)
    assert res.method is BoundMethod.FIRST_MOMENT
    assert not res.attained
    assert res.epsilons == (1.0, 1.0, 1.0)


def test_first_moment_bound_values():
    def first_moment(priors):
        res = lower_bound([ClassSpec(p, float(i)) for i, p in enumerate(priors)], 1)
        return res.value, res.attained

    assert first_moment([0.5, 0.5]) == (0.5, False)
    assert first_moment([0.9, 0.1])[0] == pytest.approx(0.1)
    value, _ = first_moment([0.25] * 4)
    assert value == pytest.approx(0.75)  # coincides with the trivial ceiling


def test_lower_bound_rejects_infeasible_class():
    with pytest.raises(InfeasibleSequenceError):
        lower_bound([ClassSpec(0.5, 2.0, 1.0), ClassSpec(0.5, 0.0, 1.0)], 2)


def test_lower_bound_rejects_bad_priors():
    with pytest.raises(ValueError):
        lower_bound([ClassSpec(0.5, 0.0, 1.0), ClassSpec(0.4, 1.0, 2.0)], 2)


def test_shift_invariance_of_problem():
    rng = np.random.default_rng(25)
    for _ in range(15):
        classes = random_two_class(rng, equal_priors=bool(rng.integers(2)))
        offset = rng.uniform(-7, 7)
        moved = []
        for c in classes:
            seq = shift_moments([1.0, c.gamma1, c.gamma2], offset)
            moved.append(ClassSpec(c.prior, seq[1], seq[2]))
        base = lower_bound(classes, 2)
        shifted = lower_bound(moved, 2)
        assert shifted.value == pytest.approx(base.value, abs=1e-9)
        assert shifted.delta_star == pytest.approx(base.delta_star - offset, abs=1e-6)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_higher_order_bound_survives_translation(n):
    # raw double moments at offset c pin the standardized g_n to about
    # eps (c / sd)^n: n = 4 and 5 stay pinned up to c = 1e3 (sd ~ 1 here),
    # n = 6 up to c = 10; beyond that the bound may only drop, never rise
    loss = {10.0: 1e-9, 100.0: 1e-6, 1e3: 1e-2} if n < 6 else {10.0: 1e-6}
    for seed in range(3, 8):
        rng = np.random.default_rng(seed)
        base = [(rng.uniform(-2, 2, 5), rng.dirichlet(np.ones(5))) for _ in range(2)]

        def bound(offset):
            return lower_bound([ClassSpec.from_moments(0.5, moments_of(
                DiscreteMeasure(tuple(zip(offset + x, w))), n)[1:]) for x, w in base], n).value

        ref = bound(0.0)
        for offset in (10.0, 100.0, 1e3):
            value = bound(offset)
            assert value <= ref + 1e-12, (seed, offset, value, ref)
            assert value >= ref - loss.get(offset, math.inf), (seed, offset, value, ref)


def test_objective_dominates_min_form():
    rng = np.random.default_rng(26)
    for _ in range(20):
        G = int(rng.integers(2, 5))
        priors = rng.uniform(0.2, 1.0, size=G)
        priors = priors / priors.sum()
        classes = [make_class(p, rng.uniform(-4, 4), rng.uniform(0.1, 4.0))
                   for p in priors]
        mass = shared_mass([c.moment_sequence(2) for c in classes])
        for d in rng.uniform(-6, 6, size=10):
            w = [c.prior * float(shared_mass(c.moment_sequence(2))(d)) for c in classes]
            assert _objective_vec(classes, np.array([d]), mass)[0] >= (G - 1) * min(w) - 1e-12


def test_bound_decreases_with_separation():
    values = [lower_bound([make_class(0.5, 0.0, 1.0), make_class(0.5, d, 1.0)], 2).value
              for d in np.linspace(0.0, 10.0, 21)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lower_bound_four_moments():
    std = [0.0, 1.0, 0.0, 3.0]
    moved = shift_moments([1.0] + std, -2.0)[1:]
    classes = [ClassSpec.from_moments(0.5, std), ClassSpec.from_moments(0.5, moved)]
    res4 = lower_bound(classes, 4)
    res2 = lower_bound(classes, 2)
    assert res4.method is BoundMethod.CLOSED_FORM_G2
    assert not res4.attained
    assert 0.0 <= res4.value <= res2.value + 1e-9
    weighted = [c.prior * e for c, e in zip(classes, res4.epsilons)]
    assert res4.value == pytest.approx(sum(weighted) - max(weighted), abs=1e-12)
    # the midpoint shift is feasible, so the optimized value must cover it
    from momentbounds.moments import max_shared_mass
    mid_seq = shift_moments([1.0] + std, 1.0)
    mid_seq[0] = 1.0
    eps_mid, _ = max_shared_mass(mid_seq)
    assert res4.value >= 0.5 * eps_mid - 1e-6


NORMAL = [0.0, 1.0, 0.0, 3.0, 0.0, 15.0]        # N(0, 1), moments 1..6
NORMAL_AT_2 = [2.0, 5.0, 14.0, 43.0, 142.0, 499.0]  # N(2, 1)
TWO_ATOMS = [0.0, 1.0, 0.0, 1.0, 0.0]           # atoms -1 and 1, half each


@pytest.mark.parametrize("moments,n,value", [
    (NORMAL, 4, 0.25),
    (NORMAL, 6, 3.0 / 16.0),
    (TWO_ATOMS, 4, 0.25),
    (TWO_ATOMS, 5, 0.25),
])
def test_lower_bound_higher_order_values(moments, n, value):
    classes = [ClassSpec.from_moments(0.5, moments[:n]),
               ClassSpec.from_moments(0.5, NORMAL_AT_2[:n])]
    res = lower_bound(classes, n)
    assert res.method is BoundMethod.CLOSED_FORM_G2 and not res.attained
    assert res.value == pytest.approx(value, abs=1e-12)
    assert res.delta_star == pytest.approx(1.0, abs=1e-12)


# atoms nearer 0 than 1e-30 are put at 0: closer ones leave a spread whose
# sixth power underflows, and the raw moments no longer describe the class
locations = st.floats(-3.0, 3.0).map(lambda x: x if abs(x) >= 1e-30 else 0.0)
atom_lists = st.lists(st.tuples(locations, st.floats(0.05, 1.0)),
                      min_size=4, max_size=6, unique_by=lambda a: a[0])


def atomic_class(prior, atoms):
    total = sum(w for _, w in atoms)
    measure = DiscreteMeasure(tuple((x, w / total) for x, w in atoms))
    return ClassSpec.from_moments(prior, moments_of(measure, 6)[1:])


@settings(max_examples=30, deadline=None)
@given(atom_lists, atom_lists, st.just(0.5) | st.floats(0.2, 0.8))
def test_lower_bound_never_increases_with_moment_order(atoms1, atoms2, p1):
    # each class's shared mass decreases in k, and sum - max is monotone in
    # every epsilon, so more moments can only lower the bound
    classes = [atomic_class(p1, atoms1), atomic_class(1.0 - p1, atoms2)]
    values = [lower_bound(classes, n).value for n in range(2, 7)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:])), values


@settings(max_examples=40, deadline=None)
@given(atom_lists, atom_lists, st.floats(0.2, 0.8).filter(lambda p: p != 0.5),
       st.integers(2, 6))
def test_two_class_shift_is_never_beaten_by_a_grid(atoms1, atoms2, p1, n):
    # the exact two-class optimizer enumerates every candidate, so neither a
    # dense grid nor the grid-plus-golden-section search may find more
    classes = [atomic_class(p1, atoms1), atomic_class(1.0 - p1, atoms2)]
    assert all(is_feasible(c.moment_sequence(n)).feasible for c in classes)
    mass = shared_mass([c.moment_sequence(n) for c in classes])
    res = lower_bound(classes, n)
    assert res.method is BoundMethod.CLOSED_FORM_G2
    exact = float(_objective_vec(classes, np.array([res.delta_star]), mass)[0])
    _, oracle = grid_sup_objective(classes, mass)
    numeric = optimal_shift_numeric(classes, mass)
    assert exact >= oracle - 1e-12
    assert exact >= float(_objective_vec(classes, np.array([numeric]), mass)[0]) - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(atom_lists, min_size=3, max_size=5), st.sampled_from([2, 3, 4]),
       st.none() | st.lists(st.floats(0.2, 1.0), min_size=5, max_size=5),
       st.integers(-20, 20))
def test_numeric_bound_commutes_with_binary_rescaling(atoms, n, weights, k):
    # moment j times 2^(k j) is exact in binary, so a search that refines to
    # double resolution (no absolute width) must move delta* by exactly 2^k
    G = len(atoms)
    if weights is None:
        priors = [1.0 / G] * G
    else:
        head = [w / sum(weights[:G]) for w in weights[:G - 1]]
        priors = head + [1.0 - math.fsum(head)]
    classes = [atomic_class(p, a) for p, a in zip(priors, atoms)]
    scaled = [ClassSpec.from_moments(c.prior, [math.ldexp(m, k * j) for j, m in
                                               enumerate(c.moment_sequence(n)[1:], 1)])
              for c in classes]
    base, moved = lower_bound(classes, n), lower_bound(scaled, n)
    assert base.method is BoundMethod.NUMERIC
    assert moved.value == base.value
    assert moved.delta_star == math.ldexp(base.delta_star, k)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_grid_search_refines_a_kink_to_double_resolution(scale):
    peak = math.pi / 7.0 * scale
    lo, hi, extra = -3.0 * scale, 5.0 * scale, [2.0 * scale, 9.0 * scale]

    def kink(x):
        return -np.abs(x - peak)

    scanned = np.concatenate([np.linspace(lo, hi, 10_001), np.clip(extra, lo, hi)])
    x, value = grid_golden_max(kink, lo, hi, extra=extra)
    assert abs(x - peak) <= 4.0 * math.ulp(peak)
    assert value == kink(np.array([x]))[0] >= kink(scanned).max()
    # a spike at a candidate off the grid beats every point near the kink
    spike = extra[0] * (1.0 + 1e-9)

    def spiked(x):
        return np.where(x == spike, 1.0, kink(x))

    assert grid_golden_max(spiked, lo, hi, extra=[spike]) == (spike, 1.0)


@pytest.mark.parametrize("num", [PASS_POINTS, GRID_POINTS])
def test_search_points_are_linspace_bit_for_bit(num):
    rng = np.random.default_rng(40 + num)
    brackets = [np.sort(rng.uniform(-1e3, 1e3, 2)) for _ in range(100)]
    brackets += [np.sort(-(10.0 ** rng.uniform(-300, 300, 2))) for _ in range(100)]  # negative
    brackets += [(a, np.nextafter(a, math.inf))  # one ulp wide
                 for a in rng.normal(size=100) * 10.0 ** rng.integers(-300, 300, 100)]
    tiny = math.ulp(0.0)
    brackets += [(i * tiny, (i + w) * tiny)  # of subnormal width; below 32 ulps the step is 0
                 for i, w in zip(rng.integers(-10**6, 10**6, 100), rng.integers(1, 10**4, 100))]
    for a, b in brackets:
        assert _linspace(a, b, num).tobytes() == np.linspace(a, b, num).tobytes(), (a, b)


def test_two_moment_map_takes_the_class_units_where_the_gap_squared_overflows():
    # means +-s and 0: at s = 1e154 the scan reaches gaps beyond 1.3e154, whose
    # squares overflow, and the bound must not lose the class at 0
    values = []
    for s in (1.0, 1e150, 1e154):
        classes = [ClassSpec(0.3, s, 1.01 * s * s), ClassSpec(0.3, -s, 1.01 * s * s),
                   ClassSpec(0.4, 0.0, 0.01 * s * s)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lower_bound(classes, 2)
        assert min(res.epsilons) > 0.0
        values.append(res.value)
    assert values[0] == pytest.approx(0.0146537, abs=1e-7)
    assert all(abs(v - values[0]) <= 1e-12 * values[0] for v in values), values
