"""Tests for the truncated-moment machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from momentbounds import ClassSpec, DiscreteMeasure, InfeasibleSequenceError
from momentbounds import moments as mm
from momentbounds.moments import (
    FeasibilityReason,
    is_feasible,
    max_shared_mass,
    moments_of,
    recover_atoms,
    sequence_rank,
    shared_mass,
    shift_moments,
)


def random_measure(rng, max_atoms=4, min_atoms=1):
    k = int(rng.integers(min_atoms, max_atoms + 1))
    locs = rng.uniform(-4.0, 4.0, size=k)
    while np.min(np.diff(np.sort(locs)), initial=1.0) < 1e-6:
        locs = rng.uniform(-4.0, 4.0, size=k)
    masses = rng.uniform(0.1, 1.0, size=k)
    masses = masses / masses.sum()
    return DiscreteMeasure(tuple(zip(locs, masses)))


def oracle_bisect_shared_mass(seq, width=1e-12):
    """Independent bisection over the zeroth entry, probing is_feasible.

    The probes forgive no rounding (tol 0): with a tolerance, a pivot within
    its rounding band counts as singular, and where the mass at the origin
    barely moves the last pivot that band spans up to 1e-7 of mass at n = 6.
    """
    lo, hi = 0.0, 1.0
    work = list(seq)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        work[0] = 1.0 - mid
        if is_feasible(work, tol=0.0).feasible:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assert_matches_oracle(seq, mass):
    # the tol-0 oracle reads within about 5e-11 of the map on either side
    # (5e-13 at n = 4 and 5)
    eps, oracle = float(mass(0.0)), oracle_bisect_shared_mass(seq)
    assert abs(eps - oracle) <= 1e-9, (seq, eps, oracle)


def hankel(seq):
    """The Hankel matrix A(k), entry (i, j) = g_(i+j), k = floor(n / 2)."""
    g = np.asarray(seq, dtype=float)
    idx = np.arange((g.size - 1) // 2 + 1)
    return g[idx[:, None] + idx]


def exact_christoffel(measure, n, delta):
    """1 / (v^T A(k)^-1 v) in rational arithmetic from the atoms' moments."""
    k = n // 2
    atoms = [(Fraction(x), Fraction(w)) for x, w in measure.atoms]
    g = [sum(w * x ** j for x, w in atoms) for j in range(2 * k + 1)]
    d = Fraction(delta)
    v = [d ** i for i in range(k + 1)]
    rows = [[g[i + j] for j in range(k + 1)] + [v[i]] for i in range(k + 1)]
    for c in range(k + 1):  # Gauss-Jordan on the augmented system [A | v]
        rows[c] = [e / rows[c][c] for e in rows[c]]
        for r in range(k + 1):
            if r != c:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return float(1 / sum(vi * row[-1] for vi, row in zip(v, rows)))


def test_standard_normal_moments_by_quadrature():
    # quadrature oracle for the reference sequence used in several tests
    def raw_moment(j):
        val, _ = quad(lambda x: x ** j * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                      -40, 40, limit=200)
        return val

    oracle = [raw_moment(j) for j in range(5)]
    np.testing.assert_allclose(oracle, [1.0, 0.0, 1.0, 0.0, 3.0], atol=1e-9)
    np.testing.assert_array_equal(hankel([1.0, 0.0, 1.0, 0.0, 3.0]),
                                  [[1, 0, 1], [0, 1, 0], [1, 0, 3]])
    # A(2) is positive definite: three atoms' worth of rank
    verdict = is_feasible([1.0, 0.0, 1.0, 0.0, 3.0])
    assert verdict.feasible and verdict.rank_A == verdict.rank_gamma == 3


def test_sequence_rank():
    assert sequence_rank([1.0, 0.0, 1.0]) == 2
    # exact linear dependence by hand: (1, 2) = 2 * (0.5, 1)
    assert sequence_rank([0.5, 1.0, 2.0]) == 1
    assert sequence_rank([1.0, 1.0, 1.0, 1.0]) == 1


def test_is_feasible_symmetric_pair():
    verdict = is_feasible([1.0, 0.0, 1.0])
    assert verdict.feasible and verdict.reason is FeasibilityReason.OK


def test_is_feasible_cauchy_schwarz_violation():
    verdict = is_feasible([1.0, 2.0, 1.0])
    assert not verdict.feasible
    assert verdict.reason is FeasibilityReason.NOT_PSD
    # g4 < g2^2 where sd^4 overflows, and g2 < g1^2 where the shift to the
    # mean does (g1^2, 2 g1^2 past the doubles)
    for seq in ([1.0, 0.0, 1e160, 0.0, 1.0], [1.0, 1e200, 1.0, 0.0, 1.0]):
        verdict = is_feasible(seq)
        assert (verdict.feasible, verdict.reason) == (False, FeasibilityReason.NOT_PSD)


def test_is_feasible_zero_mass_with_second_moment():
    # no measure with bounded support comes close to [0, 0, 1]: brute force
    # over one- and two-atom candidates on a bounded grid stays far away
    target = np.array([0.0, 0.0, 1.0])
    grid = np.linspace(-10, 10, 41)
    weights = np.linspace(0.01, 1.0, 25)
    # atoms[i, j] = moments of the single atom (grid[i], weights[j])
    atoms = weights[None, :, None] * grid[:, None, None] ** np.arange(3)
    best = np.abs(atoms - target).max(axis=-1).min()
    for i in range(grid.size - 1):
        # second atom strictly right of the first (the grid is ascending)
        pairs = atoms[i][:, None, None, :] + atoms[i + 1:][None]
        best = min(best, np.abs(pairs - target).max(axis=-1).min())
    assert best > 0.01
    verdict = is_feasible([0.0, 0.0, 1.0])
    assert not verdict.feasible
    assert verdict.reason is FeasibilityReason.RANK_MISMATCH
    assert verdict.rank_A == 1 and verdict.rank_gamma == 2


def test_is_feasible_unit_atom():
    assert is_feasible([1.0, 1.0, 1.0, 1.0]).feasible
    # n = 0: the mass alone is one atom, at 0
    verdict = is_feasible([1.0])
    assert verdict.feasible and verdict.rank_gamma == 1
    assert recover_atoms([1.0]).atoms == ((0.0, 1.0),)


def test_is_feasible_rejects_negative_mass():
    verdict = is_feasible([-0.5, 0.0, 1.0])
    assert not verdict.feasible
    assert verdict.reason is FeasibilityReason.BAD_ZEROTH


@pytest.mark.parametrize("seq", [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 1e7], [1.0, 2.0, 4.0],
                                 [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 3.0], [1.0, 2.0, 4.0, 9.0],
                                 [1.0, 1e200, 1e300], [1.0, -3.0, 10.0, -30.0]])
@pytest.mark.parametrize("mass", [2.0 ** -600, 2.0 ** -300, 2.0 ** 8],
                         ids=["2^-600", "2^-300", "2^8"])
def test_two_moment_verdict_does_not_depend_on_the_mass(seq, mass):
    # scaling by a power of 2 is exact: the verdict must not see the units of
    # the mass, also where g1 = 0 leaves no exponent to take units from
    assert is_feasible([mass * v for v in seq]) == is_feasible(seq)


def test_max_shared_mass_two_moments():
    eps, attained = max_shared_mass([1.0, 1.0, 2.0])
    assert eps == pytest.approx(0.5, abs=1e-12)
    assert attained
    assert abs(eps - oracle_bisect_shared_mass([1.0, 1.0, 2.0])) < 1e-9


def test_max_shared_mass_zero_mean_supremum_not_attained():
    eps, attained = max_shared_mass([1.0, 0.0, 1.0])
    assert eps == 1.0 and not attained
    # every eps strictly below the supremum stays feasible (the last 1e-9
    # sliver pushes the Hankel condition number past 1/tol, so stop short)
    for e in np.linspace(0.0, 1.0 - 1e-6, 100):
        assert is_feasible([1.0 - e, 0.0, 1.0]).feasible
    assert not is_feasible([0.0, 0.0, 1.0]).feasible


def test_max_shared_mass_three_moments_matches_two_moment_value():
    eps2, _ = max_shared_mass([1.0, 1.0, 2.0])
    eps3, attained3 = max_shared_mass([1.0, 1.0, 2.0, 4.5])
    assert eps3 == pytest.approx(eps2, abs=1e-12)
    assert not attained3


def test_max_shared_mass_standard_normal_bisection():
    # determinant oracle: det A(2) with g0 = 1 - eps is 3(1 - eps) - 1
    eps_oracle = 1.0 - 1.0 / 3.0
    eps, attained = max_shared_mass([1.0, 0.0, 1.0, 0.0, 3.0])
    assert abs(eps - eps_oracle) < 1e-9
    assert not attained
    assert abs(eps - oracle_bisect_shared_mass([1.0, 0.0, 1.0, 0.0, 3.0])) < 1e-9


def test_max_shared_mass_point_mass_is_zero():
    eps, attained = max_shared_mass([1.0, 2.0, 4.0])
    assert eps == 0.0 and attained
    # a point mass at the origin shares all of it
    assert max_shared_mass([1.0, 0.0, 0.0, 0.0, 0.0]) == (1.0, True)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_shared_mass_is_the_christoffel_function(n):
    rng = np.random.default_rng(16 + n)
    for _ in range(20):
        measure = random_measure(rng, max_atoms=6, min_atoms=4)
        seq = moments_of(measure, n)
        mass = shared_mass(seq)
        for delta in rng.uniform(-3.0, 3.0, size=3):
            exact = exact_christoffel(measure, n, delta)
            assert abs(float(mass(delta)) - exact) <= 1e-12, (measure.atoms, delta)
        assert_matches_oracle(seq, mass)
    # the oracle again on a second seed, so that one lucky seed cannot hide a fault
    rng = np.random.default_rng(1016 + n)
    for _ in range(100):
        seq = moments_of(random_measure(rng, max_atoms=6, min_atoms=4), n)
        assert_matches_oracle(seq, shared_mass(seq))


def test_shared_mass_two_moments_is_overlap_fraction():
    rng = np.random.default_rng(17)
    for _ in range(100):
        mean, var = rng.uniform(-5.0, 5.0), rng.uniform(0.05, 9.0)
        c = ClassSpec(0.5, mean, mean * mean + var)
        s2 = c.gamma2 - c.gamma1 * c.gamma1
        deltas = rng.uniform(-10.0, 10.0, size=5)
        for tail in ([], [rng.uniform(-20.0, 20.0)]):  # n = 2 and n = 3
            got = shared_mass([1.0, c.gamma1, c.gamma2] + tail)(deltas)
            for d, e in zip(deltas, got):
                assert abs(e - s2 / (s2 + (d - mean) ** 2)) <= 1e-15
                assert abs(e - shared_mass(c.moment_sequence(2))(d)) <= 1e-15


def test_shared_mass_singular_class_is_its_atoms():
    # two atoms at -1 and 1: A(2) is singular for n = 4 and 5
    for seq in ([1.0, 0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]):
        mass = shared_mass(seq)
        np.testing.assert_allclose(mass.atoms, [(-1.0, 0.5), (1.0, 0.5)], atol=1e-12)
        atoms = [x for x, _ in mass.atoms]
        np.testing.assert_allclose(mass(atoms + [0.0, 0.5]), [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_shared_mass_vanishes_where_a_power_overflows():
    # t^k past the doubles would give inf * 0 = NaN in the k >= 2 map; its
    # limit is 0, as the k = 1 map gives
    for seq in ([1.0, 0.0, 1.0, 0.0, 3.0], [1.0, 0.0, 1.0, 0.0, 3.0, 0.0], [1.0, 0.0, 1.0]):
        assert shared_mass(seq)(1e200) == 0.0
        np.testing.assert_array_equal(shared_mass(seq)([-1e200, 1e200]), [0.0, 0.0])


def per_class_mass(seq, deltas, scale):
    """One class's shared mass at each delta, from its own frame: the atom
    rule for a pinned class, else the closed form or 1 / |L^-1 v|^2."""
    one = shared_mass(seq)
    if one.atoms:
        out = np.zeros(deltas.shape)
        for x, w in one.atoms:
            out = np.where(deltas == x, scale * w, out)
        return out
    if one.inv_chol is None:
        return scale * one.var / (one.var + np.square(deltas - one.mean))
    t = (deltas - one.mean) / math.sqrt(one.var)
    w = np.vander(t, one.inv_chol.shape[0], increasing=True) @ one.inv_chol.T
    return scale / np.einsum("ij,ij->i", w, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("G", [2, 3, 5, 8])
def test_class_axis_map_is_the_per_class_maps_bit_for_bit(G, n):
    rng = np.random.default_rng(100 * G + n)
    measures = [random_measure(rng, max_atoms=6, min_atoms=n // 2 + 1) for _ in range(G - 2)]
    measures.append(DiscreteMeasure(((rng.uniform(-4.0, 4.0), 1.0),)))  # a point mass
    # singular for n >= 4 (k atoms pin A(k)), else one more regular class
    measures.append(random_measure(rng, max_atoms=max(n // 2, 2), min_atoms=max(n // 2, 2)))
    seqs = [moments_of(m, n) for m in measures]
    mass = shared_mass(seqs)
    pinned = ~np.isnan(mass.atoms[0][0])
    assert pinned.shape == (G, 1) and pinned[-2, 0] and pinned[-1, 0] == (n >= 4)
    atoms = np.ravel([x for x, _ in mass.atoms])  # where the atom rule hits
    deltas = np.concatenate([rng.uniform(-12.0, 12.0, 2000), atoms[~np.isnan(atoms)],
                             [s[1] for s in seqs]])
    priors = rng.dirichlet(np.ones(G))
    got = mass(deltas, priors[:, None])
    assert got.shape == (G, deltas.size)
    for i, (seq, p) in enumerate(zip(seqs, priors)):
        assert np.array_equal(got[i], per_class_mass(seq, deltas, p)), i
        assert np.array_equal(mass(deltas)[i], per_class_mass(seq, deltas, 1.0)), i
    if n > 3:
        return
    # k = 1: a rows axis as well, the (G, rows, n + 1) stack the sweep passes:
    # three rows of regular classes, the classes above and a row of point masses
    rows = [[moments_of(random_measure(rng, max_atoms=6, min_atoms=2), n) for _ in range(G)]
            for _ in range(3)]
    rows += [seqs, [moments_of(DiscreteMeasure(((x, 1.0),)), n) for x in rng.uniform(-4, 4, G)]]
    stack = np.swapaxes(np.array(rows), 0, 1)
    mass = shared_mass(stack)
    pinned = ~np.isnan(mass.atoms[0][0])
    assert pinned.shape == (G, len(rows), 1) and pinned[:, -1].all() and pinned[:, -2].any()
    deltas = np.concatenate([rng.uniform(-12.0, 12.0, (len(rows), 500)), stack[:, :, 1].T], axis=1)
    got, unscaled = mass(deltas, priors[:, None, None]), mass(deltas)
    assert got.shape == (G, len(rows), deltas.shape[1])
    for i, p in enumerate(priors):
        for r, d in enumerate(deltas):
            assert np.array_equal(got[i, r], per_class_mass(stack[i, r], d, p)), (i, r)
            assert np.array_equal(unscaled[i, r], per_class_mass(stack[i, r], d, 1.0)), (i, r)


def test_max_shared_mass_requires_feasible_input():
    with pytest.raises(InfeasibleSequenceError):
        max_shared_mass([1.0, 2.0, 1.0])


def test_shift_moments_identity():
    seq = [1.0, 0.3, 2.0, -1.0]
    assert shift_moments(seq, 0.0) == seq


def test_shift_moments_example():
    shifted = shift_moments([1.0, 1.0, 2.0], 1.0)
    np.testing.assert_allclose(shifted, [1.0, 0.0, 1.0], atol=1e-15)


def test_shift_moments_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        measure = random_measure(rng)
        seq = moments_of(measure, 4)
        delta = rng.uniform(-5, 5)
        back = shift_moments(shift_moments(seq, delta), -delta)
        np.testing.assert_allclose(back, seq, rtol=1e-12, atol=1e-12)


def test_shift_moments_matches_translated_atoms():
    rng = np.random.default_rng(12)
    for _ in range(50):
        measure = random_measure(rng)
        delta = rng.uniform(-3, 3)
        via_moments = shift_moments(moments_of(measure, 4), delta)
        via_atoms = moments_of(DiscreteMeasure(tuple((x - delta, w) for x, w in measure.atoms)), 4)
        np.testing.assert_allclose(via_moments, via_atoms, rtol=1e-12, atol=1e-12)


def test_recover_atoms_unit_atom():
    measure = recover_atoms([1.0, 1.0, 1.0])
    assert measure.atoms == ((1.0, 1.0),)


def test_recover_atoms_symmetric_rule():
    measure = recover_atoms([1.0, 0.0, 1.0])
    assert measure.atoms == ((-1.0, 0.5), (1.0, 0.5))
    np.testing.assert_allclose(moments_of(measure, 2), [1.0, 0.0, 1.0], atol=1e-12)


def test_recover_atoms_prony():
    measure = recover_atoms([1.0, 0.0, 1.0, 0.0])
    assert measure.atoms == ((-1.0, 0.5), (1.0, 0.5))
    np.testing.assert_allclose(moments_of(measure, 3), [1.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_recover_atoms_roundtrip_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        measure = random_measure(rng, max_atoms=2)
        for n in (2, 3):
            seq = moments_of(measure, n)
            rebuilt = recover_atoms(seq)
            got = moments_of(rebuilt, n)
            np.testing.assert_allclose(got, seq, rtol=1e-9, atol=1e-9)


def test_recover_atoms_higher_order_roundtrip():
    # positive definite, even n: the three-point Gauss rule closed with a zero
    # last recurrence coefficient, here the Gauss-Hermite rule
    measure = recover_atoms([1.0, 0.0, 1.0, 0.0, 3.0])
    np.testing.assert_allclose(measure.atoms, [(-math.sqrt(3.0), 1.0 / 6.0), (0.0, 2.0 / 3.0),
                                               (math.sqrt(3.0), 1.0 / 6.0)], atol=1e-12)
    rng = np.random.default_rng(18)
    for _ in range(100):
        measure = random_measure(rng, max_atoms=6)
        for n in range(4, 9):
            seq = moments_of(measure, n)
            got = moments_of(recover_atoms(seq), n)
            np.testing.assert_allclose(got, seq, rtol=1e-9, atol=1e-9)


def test_recover_atoms_rejects_infeasible():
    with pytest.raises(InfeasibleSequenceError):
        recover_atoms([1.0, 2.0, 1.0])


def test_moments_of_examples():
    assert moments_of(DiscreteMeasure(((0.0, 1.0),)), 2) == [1.0, 0.0, 0.0]
    assert moments_of(DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5))), 3) == [1.0, 0.0, 1.0, 0.0]
    assert moments_of(DiscreteMeasure(((2.0, 0.5),)), 2) == [0.5, 1.0, 2.0]


def test_random_measures_always_feasible():
    rng = np.random.default_rng(14)
    for _ in range(60):
        measure = random_measure(rng)
        for n in (2, 3, 4):
            verdict = is_feasible(moments_of(measure, n))
            assert verdict.feasible, (measure.atoms, n, verdict)


# atoms nearer 0 than 1e-30 are put at 0: closer ones leave a spread whose
# eighth power underflows, and the raw moments no longer describe the measure
unit_atoms = st.lists(
    st.tuples(st.floats(-1.0, 1.0).map(lambda z: z if abs(z) >= 1e-30 else 0.0),
              st.floats(0.05, 1.0)),
    min_size=1, max_size=6, unique_by=lambda a: a[0])


@settings(max_examples=150, deadline=None)
@given(unit_atoms, st.integers(2, 8), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
       st.booleans())
def test_is_feasible_accepts_atomic_measures_anywhere(atoms, n, log_offset, log_scale, left):
    # offsets +-10^[-2, 2] and scales 10^[-2, 2], so |offset| / scale up to
    # 10^4, where raw moments of order 8 no longer pin the measure in double
    # precision: acceptance must not depend on the placement
    total = sum(w for _, w in atoms)
    offset = (-1.0 if left else 1.0) * 10.0 ** log_offset
    for x0, s in ((0.0, 1.0), (offset, 10.0 ** log_scale)):
        measure = DiscreteMeasure.from_atoms((x0 + s * z, w / total) for z, w in atoms)
        verdict = is_feasible(moments_of(measure, n))
        assert verdict.feasible, (x0, s, verdict)


@settings(max_examples=150, deadline=None)
@given(unit_atoms, st.integers(2, 8), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))
def test_is_feasible_refuses_an_overdrawn_atom_anywhere(atoms, n, offset_in_span, log_scale):
    # m atoms at least 0.2 apart with n >= 2m pin the measure; taking 1.5
    # times an atom's mass away leaves no measure at all. Offsets up to the
    # atoms' span keep the rounding of the shift far below the deficit
    zs = sorted(z for z, _ in atoms)
    assume(2 * len(atoms) <= n and all(b - a >= 0.2 for a, b in zip(zs, zs[1:])))
    weights = [w for _, w in atoms]
    weights[0] *= -0.5
    scale = 10.0 ** log_scale
    for x0, s in ((0.0, 1.0), (offset_in_span * (zs[-1] - zs[0]) * scale, scale)):
        seq = [sum(w * (x0 + s * z) ** j for z, w in zip(zs, weights)) for j in range(n + 1)]
        assert not is_feasible(seq).feasible, (x0, s)


def test_shared_mass_monotone_below_supremum():
    for seq in ([1.0, 1.0, 2.0], [1.0, 0.5, 1.5, 0.7, 4.0]):
        eps_sup, _ = max_shared_mass(seq)
        for e in np.linspace(0.0, max(eps_sup - 1e-9, 0.0), 100):
            work = list(seq)
            work[0] = 1.0 - e
            assert is_feasible(work).feasible, (seq, e)


def test_feasible_implies_psd():
    rng = np.random.default_rng(15)
    for _ in range(60):
        measure = random_measure(rng)
        seq = moments_of(measure, 4)
        if is_feasible(seq).feasible:
            eigs = np.linalg.eigvalsh(hankel(seq))
            assert eigs.min() >= -1e-9 * (1.0 + np.abs(eigs).max())


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, -0.5),))
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        DiscreteMeasure(((0.0, 0.8), (1.0, 0.8)))
    # four copies of one location are one atom of their summed mass
    weights = [0.11514250465492515, 0.18833641118360192, 0.21668306027493187,
               0.22171451260646818]
    copies = DiscreteMeasure.from_atoms([(-100.0, w) for w in weights])
    assert len(copies.atoms) == 1
    assert copies.total_mass == pytest.approx(sum(weights))
    # locations one ulp apart stay two atoms
    lo, hi = -5.623413251903492, -5.623413251903491
    ulp_apart = DiscreteMeasure.from_atoms([(lo, 0.25 / 2.9375), (hi, 0.5 / 2.9375),
                                            (hi, 0.8125 / 2.9375)])
    assert [x for x, _ in ulp_apart.atoms] == [lo, hi]


def same_map(a, b):
    """Two k >= 2 shared-mass maps, equal bit for bit."""
    def parts(m):
        return [m.mean, m.var, m.inv_chol] + [col for atom in m.atoms for col in atom]
    return len(a.atoms) == len(b.atoms) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(parts(a), parts(b)))


# one standardization per sequence gives the verdict at tol and the map at
# machine epsilon where the two branch alike, and a second pass gives the map
# where they may not: either way they are those of two separate passes. A
# nudged g_2k leaves k atoms or fewer near singular; below 4 eps the map always
# takes its own pass, and a point mass's verdict stops at its first pivot
@settings(max_examples=100, deadline=None, derandomize=True)
@given(unit_atoms, st.integers(4, 8), st.floats(-3.0, 6.0), st.floats(-6.0, 6.0), st.booleans(),
       st.sampled_from([0.0, 1e-16, 1e-12, 1e-9, 1e-6]),
       st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-6, -1e-6]), st.booleans())
def test_one_frame_gives_what_two_passes_give(atoms, n, log_offset, log_scale, left, tol, nudge,
                                              point):
    total = sum(w for _, w in atoms)
    offset = (-1.0 if left else 1.0) * 10.0 ** log_offset
    zs = [atoms[0][0] if point else z for z, _ in atoms]  # a point mass: one location
    measure = DiscreteMeasure.from_atoms((offset + 10.0 ** log_scale * z, w / total)
                                         for z, (_, w) in zip(zs, atoms))
    seq = moments_of(measure, n)
    seq[2 * (n // 2)] *= 1.0 + nudge
    (verdict,), mass = mm._judged_mass(seq, tol)
    assert verdict == is_feasible(seq, tol)
    if verdict.feasible:
        assert same_map(mass, shared_mass(seq, tol))
    else:
        assert mass is None


@pytest.mark.parametrize("seq, tol, atoms", [
    # regular classes: the one pass gives the verdict and the map
    ([1.0, 0.0, 1.0, 0.0, 3.0], 1e-9, None),
    ([1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0], 1e-9, None),
    # the last pivot, -1e-8, lies inside the band at tol but outside machine
    # epsilon's: feasible with two atoms, and the map's frame is infeasible
    ([1.0, 0.0, 1.0, 0.0, 0.99999999], 1e-6, [-1.0, 1.0]),
    # sd = 1e-70: its fifth power underflows, its fourth does not, so the
    # verdict's frame is only centred and the map's is scaled
    ([1.0, 0.0, 1e-140, 0.0, 1e-280, 0.0], 1e-9, [-1e-70, 1e-70]),
    # at tol 0 A(3) is positive definite, but the second pivot, 4.4e-16, lies
    # inside machine epsilon's band: the map shares mass at two atoms only
    ([1.0, 5.508901980575067e-07, 1.57360819599633e-12, 2.9477443275545442e-18,
      5.8853271393494774e-24, 1.1620144627409239e-29, 2.298688914287715e-35], 0.0,
     [-3.39334314e-07, 1.97764061e-06]),
    # odd n: g7 enters the verdict's frame in a row of its own, so the map's
    # frame is the verdict's first seven entries
    (moments_of(DiscreteMeasure(tuple(zip([-1.3, 0.1, 0.9, 2.2, 3.1],
                                          [0.2, 0.3, 0.25, 0.15, 0.1]))), 7), 1e-9, None),
    # atoms of 1e-8 at -3 and 3 beside -1 and 1: the second pivot, 1.3e-6, lies
    # inside the band at tol, the two-point rule misses t6 and the last pivot is
    # positive. A regular verdict, but the frame is not shared: the map takes
    # its own pass, also regular (no atoms)
    (moments_of(DiscreteMeasure(((-3.0, 1e-8), (-1.0, 0.5 - 1e-8), (1.0, 0.5 - 1e-8),
                                 (3.0, 1e-8))), 6), 1e-6, []),
], ids=["n4", "n6", "tol_band", "overflow_guard", "eps_band", "n7", "inner_band"])
def test_a_second_pass_only_where_the_tolerances_branch_apart(seq, tol, atoms, monkeypatch):
    passes = []
    standardize = mm._standardize
    monkeypatch.setattr(mm, "_standardize",
                        lambda g, tol: passes.append(tol) or standardize(g, tol))
    (verdict,), mass = mm._judged_mass(seq, tol)
    assert verdict.feasible and passes == ([tol] if atoms is None else [tol, mm._EPS])
    assert same_map(mass, shared_mass(seq, tol))
    if atoms is not None:
        np.testing.assert_allclose([x for x, _ in mass.atoms], atoms, rtol=1e-8)
