"""Tests for the shared-mass lower bound and its shift optimization."""

import itertools
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
from momentbounds._search import (
    GRID_POINTS,
    PASS_POINTS,
    _linspace,
    _real_roots,
    golden_max,
    grid_golden_max,
)
from momentbounds.lowerbound import (
    _objective_vec,
    _shift_candidates,
    _two_class_rows,
    optimal_shift_numeric,
    optimal_shift_two_class,
)
from momentbounds.moments import SharedMass, is_feasible, moments_of, shared_mass, shift_moments


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
    vals = _objective_vec([c.prior for c in classes], xs, mass)
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
        assert _objective_vec([c.prior] * 2, np.array([d]), mass)[0] == pytest.approx(0.5 * one(d))


def test_objective_two_class_is_min():
    classes = [make_class(0.5, 0.0, 1.0), make_class(0.5, 2.0, 1.0)]
    mass = shared_mass([c.moment_sequence(2) for c in classes])
    for d in np.linspace(-2, 4, 31):
        f1 = float(shared_mass(classes[0].moment_sequence(2))(d))
        f2 = float(shared_mass(classes[1].moment_sequence(2))(d))
        assert _objective_vec([c.prior for c in classes], np.array([d]), mass)[0] == pytest.approx(
            0.5 * min(f1, f2), abs=1e-15)
    assert _objective_vec([0.5, 0.5], np.array([1.0]), mass)[0] == pytest.approx(0.25)


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
        priors = [c.prior for c in classes]
        assert _objective_vec(priors, np.array([d_num]), mass)[0] == pytest.approx(
            _objective_vec(priors, np.array([d_closed]), mass)[0], abs=1e-6)


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
    value = _objective_vec([c.prior for c in classes], np.array([d]), mass)[0]
    assert value >= oracle - 1e-9
    # and never below the midpoint rule of the weaker min-based bound
    means = [c.gamma1 for c in classes]
    midpoint = np.array([0.5 * (min(means) + max(means))])
    assert value >= _objective_vec([c.prior for c in classes], midpoint, mass)[0]
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
            value = float(_objective_vec([c.prior for c in classes], np.array([d]), mass)[0])
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
            assert _objective_vec(priors, np.array([d]), mass)[0] >= (G - 1) * min(w) - 1e-12


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
    exact = float(_objective_vec([c.prior for c in classes], np.array([res.delta_star]), mass)[0])
    _, oracle = grid_sup_objective(classes, mass)
    numeric = optimal_shift_numeric(classes, mass)
    assert exact >= oracle - 1e-12
    assert exact >= float(_objective_vec([p1, 1.0 - p1], np.array([numeric]), mass)[0]) - 1e-12


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


def test_three_class_kink_ends_the_search_unrefined(monkeypatch):
    # N(0, 1), N(2, 1), N(9, 1): 0.3 eps_1 and 0.5 eps_2 cross where d^2 + 6 d - 5 = 0,
    # at sqrt(14) - 3, a kink of the two largest weighted masses that the scan resolves
    classes = [ClassSpec(0.3, 0.0, 1.0), ClassSpec(0.5, 2.0, 5.0), ClassSpec(0.2, 9.0, 82.0)]
    calls = []
    call = SharedMass.__call__
    monkeypatch.setattr(SharedMass, "__call__",
                        lambda self, *args: calls.append(len(args)) or call(self, *args))
    res = lower_bound(classes, 2)
    assert abs(res.delta_star - 0.7416573867739413) <= math.ulp(0.7416573867739413)
    assert abs(res.value - 0.19643159877787586) <= math.ulp(0.19643159877787586)
    assert len(calls) <= 3  # the scan, the kink's check and the bound's own epsilons


def two_moment_classes(G, weights, locs, log_sds, log_scale, offset, wide, point, equal):
    """G two-moment classes at (offset + loc) * scale with sds 10^log_sd * scale,
    optionally one 10^4 times wider, one a point mass and two sharing a mean."""
    scale = 10.0 ** log_scale
    locs, sds = list(locs[:G]), [10.0 ** x for x in log_sds[:G]]
    if wide:
        sds[0] *= 1e4
    if point:
        sds[-1] = 0.0
    if equal:
        locs[1] = locs[2]
    head = [w / math.fsum(weights[:G]) for w in weights[:G - 1]]
    priors = head + [1.0 - math.fsum(head)]
    return [ClassSpec(p, m, m * m + v) for p, m, v in
            zip(priors, ((offset + x) * scale for x in locs), ((sd * scale) ** 2 for sd in sds))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(3, 6), *(st.lists(st.floats(*r), min_size=6, max_size=6)
                            for r in ((0.05, 1.0), (-3.0, 3.0), (-3.0, 3.0))),
       st.floats(-3.0, 3.0), st.just(0.0) | st.floats(-1e3, 1e3), st.booleans(), st.booleans(),
       st.booleans())
def test_two_moment_shift_beats_a_dense_hull_and_every_crossing(G, weights, locs, log_sds,
                                                               log_scale, offset, wide, point,
                                                               equal):
    classes = two_moment_classes(G, weights, locs, log_sds, log_scale, offset, wide, point, equal)
    priors = [c.prior for c in classes]
    mass = shared_mass([c.moment_sequence(2) for c in classes])
    res = lower_bound(classes, 2)
    lo, hi = min(c.gamma1 for c in classes), max(c.gamma1 for c in classes)
    assert lo <= res.delta_star <= hi
    oracle = _objective_vec(priors, np.linspace(lo, hi, 200_001), mass).max()
    assert res.value >= oracle - 1e-12 * res.value
    # each pair's p_a var_a (var_b + (d - m_b)^2) - p_b var_b (var_a + (d - m_a)^2) = 0
    crossings = []
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            wa, wb = a.prior * a.sigma2, b.prior * b.sigma2
            coef = [wa - wb, 2.0 * (wb * a.gamma1 - wa * b.gamma1),
                    wa * (b.sigma2 + b.gamma1 ** 2) - wb * (a.sigma2 + a.gamma1 ** 2)]
            crossings += [r.real for r in np.roots(coef) if np.isreal(r)]
    at_crossings = _objective_vec(priors, np.clip(crossings, lo, hi), mass)
    assert res.value >= at_crossings.max(initial=0.0) - 4.0 * math.ulp(res.value)


def test_two_moment_objective_is_monotone_outside_the_means():
    # each p_i eps_i rises up to its mean and falls past it, and sum - max rises with
    # every p_i eps_i: the maximizer of the two-moment objective lies between the means
    rng = np.random.default_rng(7)
    for _ in range(30):
        G = int(rng.integers(3, 7))
        classes = two_moment_classes(G, rng.uniform(0.05, 1.0, 6), rng.uniform(-3.0, 3.0, 6),
                                     rng.uniform(-1.0, 1.0, 6), rng.uniform(-3.0, 3.0),
                                     0.0, *(rng.random(3) < 0.3))
        means = [c.gamma1 for c in classes]
        smax = max(math.sqrt(c.sigma2) for c in classes)
        mass = shared_mass([c.moment_sequence(2) for c in classes])
        left = np.linspace(min(means) - 50.0 * smax, min(means), 5001)
        right = np.linspace(max(means), max(means) + 50.0 * smax, 5001)
        for xs, sign in ((left, 1.0), (right, -1.0)):
            vals = _objective_vec([c.prior for c in classes], xs, mass)
            assert (sign * np.diff(vals) >= -4.0 * np.spacing(vals[1:])).all()


@pytest.mark.parametrize("priors, moments, value", [
    # a dominant wide class next to narrow ones; two crossings 5e-4 apart in one grid cell
    ([0.16614672205571132, 0.25637776458929545, 0.11731819801537081, 0.374186247027468,
      0.0859710683121544],
     [[0.17110516663688285, 0.0353647894523198], [0.025560160024909732, 0.0071915803140533965],
      [2.0434508822290143, 94.70506988140848], [-1.6010516382096556, 2.5640370005659197],
      [-0.844229929951446, 9.85310765618919]], 0.30287156927336123),
    # the crossing of two lesser classes wins the scan next to a smooth maximum
    ([0.7387385706030494, 0.09310448559456236, 0.16815694380238821],
     [[0.2540281128596931, 6764.177661513401], [-0.11073780442757512, 0.03678982709637685],
      [-0.40119995831181815, 0.46113375974530146]], 0.226992333854527),
    # a kink that is a local maximum wins, but a higher point hides in a wide grid cell
    ([0.03913455024108678, 0.3670092048101295, 0.3592033982458346, 0.009977911864909424,
      0.22467493483803969],
     [[3.818768966460544, 14.583000236685574], [3.909300807547632, 15.282933830762534],
      [3.7993001706242255, 14.435138252490246], [4.2497155244823155, 18.06021212421025],
      [3.115059585748185, 26482.72169716244]], 0.25046813093212683),
], ids=["two_kinks_in_a_cell", "lesser_crossing", "hidden_by_a_cell"])
def test_numeric_shift_keeps_its_value_on_hard_problems(priors, moments, value):
    res = lower_bound([ClassSpec.from_moments(p, m) for p, m in zip(priors, moments)], 2)
    assert abs(res.value - value) <= 2.0 * math.ulp(value)


@pytest.mark.parametrize("n, priors, moments, floor", [
    # the grid spans +-10 sd of the wide class, the narrow classes' maximum
    # near -2.6 falls between its points, and each pair's exact shift finds it
    # (0.0731 at delta* 1.655 from the grid alone)
    (4, [0.37309113806586436, 0.08763176138657834, 0.5392771005475573],
     [[-109.59298315850454, 198479.8347570174, -80999778.9474727, 91715077295.12653],
      [1.650843811604899, 2.7256094097327734, 4.500620584964265, 7.432447499535442],
      [-2.893380365103721, 8.421872903364282, -24.652470597739022, 72.543207916336]], 0.1996),
    # the maximum, 0.02505 at -0.998 by a dense scan, is where the wide class
    # crosses the narrow one at -1.07: a candidate of that pair, not its optimum
    # (0.02268 at -2.973 from the pairs' optima alone)
    (6, [0.2267633857517952, 0.08641305334861844, 0.34653351884653844,
         0.22456897272651813, 0.1157210693265298],
     [[-2.971501001058104, 8.829867959102673, -26.238257596378066, 77.96833034925186,
       -231.68821506521726, 688.4812653030051],
      [2.4329930379001414, 5.919579365637501, 14.402900270890141, 35.04436484495118,
       85.2698650679457, 207.4828051795133],
      [-1.0736941406357177, 1.154902973688807, -1.2445590826690194, 1.3437248860643785,
       -1.4536118144253465, 1.5756024075261177],
      [-0.7409361940542211, 0.5580989059618144, -0.4277061606258596, 0.3336458119563784,
       -0.26495064409623836, 0.21411591219543533],
      [-12.263551469423296, 1582.4685067582868, 42744.01788561344, 6187231.099700341,
       403921974.6475123, 35539941070.91299]], 0.02504),
], ids=["n4", "n6"])
def test_numeric_shift_finds_narrow_classes_next_to_a_wide_one(n, priors, moments, floor):
    res = lower_bound([ClassSpec.from_moments(p, m) for p, m in zip(priors, moments)], n)
    assert res.value >= floor


@pytest.mark.parametrize("n", [4, 6])
def test_numeric_shift_beats_every_pairs_exact_shift(n):
    # G = 3-5 classes, one 10-1,000 times wider than the others; every candidate
    # of every pair, its exact shift among them, is a kink of the search
    rng = np.random.default_rng(n)
    for _ in range(15):
        G = int(rng.integers(3, 6))
        sds, means = 10.0 ** rng.uniform(-2.0, 0.0, G), rng.uniform(-3.0, 3.0, G)
        wide = int(rng.integers(G))
        sds[wide] = np.delete(sds, wide).max() * 10.0 ** rng.uniform(1.0, 3.0)
        means[wide] += rng.uniform(-1.0, 1.0) * sds[wide]
        priors = rng.dirichlet(np.full(G, 2.0)) * 0.9 + 0.1 / G
        classes = [atomic_class(p, list(zip(m + s * rng.normal(size=6),
                                            rng.dirichlet(np.full(6, 3.0)))))
                   for p, m, s in zip(priors, means, sds)]
        mass = shared_mass([c.moment_sequence(n) for c in classes])
        value = lower_bound(classes, n).value
        for pair in itertools.combinations(classes, 2):
            cands = _shift_candidates([c.prior for c in pair],
                                      shared_mass([c.moment_sequence(n) for c in pair]))
            at_pair = _objective_vec(priors, cands[~np.isnan(cands)], mass).max()
            assert value >= at_pair * (1.0 - 1e-15), (G, value, at_pair)


def pinned_and_regular_classes(rng, G, n):
    """G moment sequences [1, g1, .., gn]: a point mass, a two-atom class and
    classes of n // 2 + 3 atoms, one of them much wider, in a random order."""
    atoms = [[(rng.normal(), 1.0)], list(zip(rng.normal(size=2), (0.3, 0.7)))]
    for i in range(G - 2):
        x = rng.normal() + 10.0 ** rng.uniform(-2.0, 0.0 if i else 2.0) * rng.normal(
            size=n // 2 + 3)
        atoms.append(list(zip(x, rng.dirichlet(np.full(x.size, 3.0)))))
    rng.shuffle(atoms)
    return [moments_of(DiscreteMeasure(tuple(a)), n) for a in atoms]


def test_shift_candidates_of_many_pairs_are_each_pairs_own():
    # one call on a map whose rows are the class pairs gives, row by row and bit
    # for bit, the candidates of the pair's own map, point masses and a two-atom
    # (pinned) class included; padding columns aside
    rng = np.random.default_rng(27)
    for n in range(4, 9):
        for G in range(3, 6):
            seqs = np.array(pinned_and_regular_classes(rng, G, n))
            priors = rng.dirichlet(np.full(G, 2.0))
            pairs = np.array(list(itertools.combinations(range(G), 2))).T
            many = _shift_candidates(priors[pairs, None], shared_mass(seqs[pairs]))
            for row, pair in zip(many, pairs.T):
                own = _shift_candidates(priors[pair], shared_mass(seqs[pair])).ravel()
                assert np.array_equal(row[~np.isnan(row)], own[~np.isnan(own)]), (n, G, pair)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_two_class_rows_at_higher_orders_answer_each_row_alone(n):
    # a (2, rows, n + 1) moment array, pinned classes in some rows: each row's
    # shift, shared masses and bound are those of its own one-problem map
    rng = np.random.default_rng(n)
    seqs = np.array([pinned_and_regular_classes(rng, 4, n)[:2] for _ in range(8)]).swapaxes(0, 1)
    priors = rng.dirichlet((2.0, 2.0), 8).T[..., None]
    rows = np.concatenate(_two_class_rows(priors, shared_mass(seqs)), axis=1)
    for r, row in enumerate(rows):
        alone = np.concatenate(_two_class_rows(priors[:, r, 0], shared_mass(seqs[:, r])), axis=1)
        assert np.array_equal(row, alone[0]), (n, r)


@pytest.mark.parametrize("f, lo, hi, peak", [
    (lambda x: 1.0 - (x - 0.3) ** 2, -2.0, 5.0, 0.3),
    # a lower local maximum at -1, which a bracket search on [-4, 4] would keep
    (lambda x: max(1.0 - (x + 1.0) ** 2, 2.0 - 4.0 * (x - 2.5) ** 2), -4.0, 4.0, 2.5),
], ids=["unimodal", "bimodal"])
def test_golden_max_finds_a_scalar_functions_maximum(f, lo, hi, peak):
    x, value = golden_max(f, lo, hi)
    assert abs(x - peak) <= 1e-7
    assert value == f(x) >= f(peak) - 2.0 * math.ulp(f(peak))


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


def test_span_scan_forms_the_full_grids_points():
    # a grid coarser than the doubles forms only the span's points and the
    # bracket's from their indices: both must be the full grid's, located by
    # searchsorted; on a finer grid the whole grid is formed
    rng = np.random.default_rng(42)
    for _ in range(200):
        unit = 10.0 ** rng.uniform(-30.0, 30.0)
        lo = unit * rng.normal() * 10.0 ** rng.choice([0.0, rng.uniform(0.0, 16.0)])
        hi = lo + unit * rng.uniform(0.5, 20.0)
        grid = np.linspace(lo, hi, GRID_POINTS)
        a, b = np.sort(rng.uniform(lo, hi, 2))
        if rng.random() < 0.5:  # the span's ends on grid points, its maximum at one
            a, b = grid[np.sort(rng.integers(0, GRID_POINTS, 2))]
        c = rng.choice([rng.uniform(a, b), a, b])
        calls = []

        def f(x):
            calls.append(x.copy())
            return -np.square(x - c)

        grid_golden_max(f, lo, hi, extra=[], span=(a, b))
        i0, i1 = np.searchsorted(grid, (a, b)) + (-1, 2)
        scan = grid[max(i0, 0):i1]
        x = scan[np.argmax(f(scan))]
        ends = (grid[max(int(np.searchsorted(grid, x)) - 1, 0)],
                grid[min(int(np.searchsorted(grid, x, "right")), GRID_POINTS - 1)])
        assert calls[0].tobytes() == scan.tobytes(), (lo, hi, a, b)
        assert calls[1].tobytes() == _linspace(*ends, PASS_POINTS).tobytes(), (lo, hi, a, b)


def test_real_roots_of_low_degree_match_numpy_roots():
    # one batch, lowest coefficient first: degrees 1 and 2 are solved in closed
    # form, 3 and 4 by eigenvalues, 0 marks a row of zeros (no roots)
    rng = np.random.default_rng(2024)
    degrees = [1, 2] * 250 + [3, 4] * 40 + [0] * 20
    rows = np.zeros((len(degrees), 6))
    for row, degree in zip(rows, degrees):
        if degree:  # trailing zeros below, leading zeros above
            low = rng.integers(0, 6 - degree)
            row[low:low + degree + 1] = (rng.choice([-1.0, 1.0], degree + 1)
                                         * 10.0 ** rng.uniform(-150.0, 150.0, degree + 1))
    complex_pairs = 0
    for degree, row, got in zip(degrees, rows, _real_roots(rows)):
        if not degree:
            assert np.isnan(got).all()
            continue
        low = row.nonzero()[0][0]
        p = row[low:low + degree + 1][::-1]  # highest first
        ref = np.roots(p)
        # the eigenvalues are accurate to a few ulps of the largest root's modulus
        tol = 8.0 * np.spacing(np.abs(ref).max())
        np.testing.assert_allclose(np.sort(got[:degree]), np.sort(ref.real), rtol=0, atol=tol)
        assert (got[degree:degree + low] == 0.0).all()  # the zero roots come after the others
        assert np.isnan(got[degree + low:]).all()
        if degree == 2 and np.iscomplex(ref).any():  # the real part -b / 2a, twice
            complex_pairs += 1
            assert got[0] == got[1] == pytest.approx(-p[1] / (2.0 * p[0]), rel=1e-15)
        elif degree == 2:  # the small root too: the product of the roots is c / a
            assert got[0] * got[1] == pytest.approx(p[2] / p[0], rel=1e-15)
    assert complex_pairs > 50


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
