"""Tests for witness construction and exact discrete Bayes error."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentbounds import (
    ClassSpec,
    DiscreteMeasure,
    InfeasibleSequenceError,
    cli,
    lower_bound,
    verify_witness,
)
from momentbounds.moments import moments_of, shift_moments
from momentbounds.witness import build_witness, discrete_bayes_error


def make_class(prior, mean, var):
    return ClassSpec(prior, mean, mean * mean + var)


def test_build_witness_first_moment_only():
    classes = [ClassSpec(0.5, 3.0), ClassSpec(0.5, -1.0)]
    measures = build_witness(classes, 0.0, [0.5, 0.5], n_moments=1)
    assert measures[0].atoms == ((0.0, 0.5), (6.0, 0.5))
    assert measures[1].atoms == ((-2.0, 0.5), (0.0, 0.5))


def test_build_witness_attained_two_moment():
    classes = [make_class(0.5, 1.0, 1.0), make_class(0.5, 0.0, 1.0)]
    measures = build_witness(classes, 0.0, [0.5, 0.0], n_moments=2)
    # residual [0.5, 1, 2] has rank 1: single atom at 2
    assert measures[0].atoms == ((0.0, 0.5), (2.0, 0.5))
    # eps = 0 falls back to plain recovery of the class sequence
    assert measures[1].atoms == ((-1.0, 0.5), (1.0, 0.5))


def test_build_witness_point_mass_epsilon_one():
    classes = [ClassSpec(0.5, 2.0, 4.0), make_class(0.5, 0.0, 1.0)]
    measures = build_witness(classes, 2.0, [1.0, 0.2], n_moments=2)
    assert measures[0].atoms == ((2.0, 1.0),)
    with pytest.raises(InfeasibleSequenceError):
        build_witness([make_class(0.5, 0.0, 1.0)], 0.0, [1.0], n_moments=2)


def test_build_witness_rejects_excess_epsilon():
    classes = [make_class(0.5, 1.0, 1.0)]
    with pytest.raises(InfeasibleSequenceError):
        build_witness(classes, 0.0, [0.9], n_moments=2)  # sup is 0.5 here


def test_build_witness_moment_fidelity_randomized():
    rng = np.random.default_rng(51)
    for _ in range(40):
        classes = [make_class(0.5, rng.uniform(-3, 3), rng.uniform(0.1, 5.0))
                   for _ in range(2)]
        delta = rng.uniform(-4, 4)
        eps = [0.9 * (max(c.sigma2, 0.0) /
                      (max(c.sigma2, 0.0) + (delta - c.gamma1) ** 2)) for c in classes]
        measures = build_witness(classes, delta, eps, n_moments=2)
        for c, m in zip(classes, measures):
            np.testing.assert_allclose(moments_of(m, 2), c.moment_sequence(2),
                                       rtol=1e-9, atol=1e-9)


def test_discrete_bayes_error_examples():
    one = DiscreteMeasure(((0.0, 1.0),))
    assert discrete_bayes_error([one, one], [0.5, 0.5]) == pytest.approx(0.5)
    apart = DiscreteMeasure(((10.0, 1.0),))
    assert discrete_bayes_error([one, apart], [0.5, 0.5]) == 0.0
    nu1 = DiscreteMeasure(((0.0, 0.5), (1.0, 0.5)))
    nu2 = DiscreteMeasure(((0.0, 0.5), (2.0, 0.5)))
    assert discrete_bayes_error([nu1, nu2], [0.5, 0.5]) == pytest.approx(0.25)


def test_discrete_bayes_error_identical_uniform_hits_ceiling():
    nu = DiscreteMeasure(((0.0, 0.3), (1.0, 0.7)))
    for G in (2, 3, 4):
        err = discrete_bayes_error([nu] * G, [1.0 / G] * G)
        assert err == pytest.approx((G - 1) / G)


def test_discrete_bayes_error_shift_invariance_is_exact():
    rng = np.random.default_rng(52)
    nu1 = DiscreteMeasure(((0.0, 0.5), (1.25, 0.5)))
    nu2 = DiscreteMeasure(((-0.5, 0.25), (1.25, 0.75)))
    base = discrete_bayes_error([nu1, nu2], [0.4, 0.6])
    for _ in range(10):
        c = rng.uniform(-50, 50)
        moved = discrete_bayes_error([DiscreteMeasure(tuple((x + c, w) for x, w in nu.atoms))
                                      for nu in (nu1, nu2)], [0.4, 0.6])
        assert moved == base


def test_discrete_bayes_error_validates_masses():
    short = DiscreteMeasure(((0.0, 0.5),))
    with pytest.raises(ValueError):
        discrete_bayes_error([short, short], [0.5, 0.5])


def test_verify_witness_equal_variance():
    sd, d = 1.3, 2.0
    classes = [make_class(0.5, 0.0, sd * sd), make_class(0.5, d, sd * sd)]
    report = verify_witness(classes, 2)
    expect = 2 * sd * sd / (4 * sd * sd + d * d)
    assert report.certified
    assert report.moment_mismatch <= 1e-9
    assert report.bayes_error >= expect - 1e-6
    # shared atom sits at the midpoint of the means
    for m in report.measures:
        assert any(abs(x - d / 2) < 1e-9 for x, _ in m.atoms)


def test_verify_witness_equal_means():
    classes = [make_class(0.5, 1.0, 1.0), make_class(0.5, 1.0, 5.0)]
    report = verify_witness(classes, 2)
    assert report.certified
    assert report.bayes_error >= 0.5 - 1e-6


def test_verify_witness_first_moments_only():
    classes = [ClassSpec(1 / 3, 0.0), ClassSpec(1 / 3, 2.0), ClassSpec(1 / 3, -4.0)]
    report = verify_witness(classes, 1)
    assert report.certified
    assert report.bound.value == pytest.approx(2 / 3)
    assert report.bayes_error >= (2 / 3) * (1.0 - 1e-9) - 1e-12


def test_verify_witness_all_point_masses():
    # every class a point mass: the shift search has only the means to try,
    # and the witness keeps each class's single atom (eps 1 or 0, no back-off)
    classes = [ClassSpec(0.3, 0.0, 0.0), ClassSpec(0.3, 0.0, 0.0), ClassSpec(0.4, 1.0, 1.0)]
    report = verify_witness(classes, 2)
    bound = report.bound
    assert (bound.value, bound.delta_star, bound.epsilons) == (0.3, 0.0, (1.0, 1.0, 0.0))
    assert report.certified
    assert [m.atoms for m in report.measures] == [((0.0, 1.0),), ((0.0, 1.0),), ((1.0, 1.0),)]


def test_verify_witness_randomized_two_moment():
    rng = np.random.default_rng(53)
    for _ in range(25):
        p1 = rng.uniform(0.2, 0.8)
        classes = [make_class(p1, rng.uniform(-3, 3), rng.uniform(0.1, 4.0)),
                   make_class(1 - p1, rng.uniform(-3, 3), rng.uniform(0.1, 4.0))]
        report = verify_witness(classes, 2)
        assert report.certified, (classes, report)
        assert report.moment_mismatch <= 1e-9
        assert report.bayes_error >= report.bound.value - 1e-6


def test_verify_witness_three_moments():
    c1 = ClassSpec(0.5, 0.0, 1.0, higher=(0.0,))
    c2 = ClassSpec(0.5, 2.0, 5.0, higher=(14.0,))
    report = verify_witness([c1, c2], 3)
    assert report.certified
    assert report.bound.value == pytest.approx(
        lower_bound([c1, c2], 2).value, abs=1e-12)


def test_verify_witness_near_coincident_means():
    # the optimal shift can sit arbitrarily close to a class mean, driving
    # that epsilon within rounding of 1; construction must survive the whole
    # window down to exact coincidence
    for gap in (1e-4, 1e-6, 1e-7, 1e-8, 1e-9, 1e-12, 1e-16, 0.0):
        classes = [ClassSpec(1 / 3, 0.0, 1.0),
                   ClassSpec(1 / 3, gap, gap * gap + 1.0),
                   ClassSpec(1 / 3, 5.0, 26.0)]
        report = verify_witness(classes, 2)
        assert report.certified, (gap, report)


# five equal-prior two-moment classes: at the attained shared masses one
# residual's variance rounds to -2.3e-16, below its rounding band of 7.7e-17,
# so the witness must not recover atoms from that residual
FIVE_CLASS_MOMENTS = [
    [-0.04283217512073763, 0.2360176057985537],
    [0.6520990826320815, 0.5664852365396975],
    [1.1617563276806067, 1.6083950477470597],
    [1.8034068743817477, 3.462394501433854],
    [2.6500673046693124, 7.208993737760832],
]


def test_witness_five_classes_two_moments(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"classes": [{"prior": 0.2, "moments": m} for m in FIVE_CLASS_MOMENTS]}))
    code = cli.main(["witness", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["report"]["certified"] is True
    assert payload["report"]["moment_mismatch"] <= 1e-9
    assert payload["report"]["bayes_error"] >= payload["report"]["lower"] - 1e-6


def test_verify_witness_four_moments():
    # N(0, 1) against N(2, 1): the supremum 0.25 is not attained (at the
    # unreduced shared mass the residual is a point mass short of its fourth
    # moment), so the backed-off residuals carry two far atoms of tiny mass
    std = [0.0, 1.0, 0.0, 3.0]
    moved = shift_moments([1.0] + std, -2.0)[1:]
    classes = [ClassSpec.from_moments(0.5, std), ClassSpec.from_moments(0.5, moved)]
    report = verify_witness(classes, 4)
    assert report.certified
    assert report.bound.value == pytest.approx(0.25, abs=1e-12)
    assert report.moment_mismatch <= 1e-9
    assert report.bayes_error >= 0.25 - 1e-6


# atoms nearer 0 than 1e-30 are put at 0: closer ones leave a spread whose
# fourth power underflows, and the raw moments no longer describe the class
class_atoms = st.lists(
    st.tuples(st.floats(-3.0, 3.0).map(lambda x: x if abs(x) >= 1e-30 else 0.0),
              st.floats(0.05, 1.0)),
    min_size=3, max_size=5, unique_by=lambda a: a[0])


@settings(max_examples=60, deadline=None)
@given(class_atoms, class_atoms, st.floats(0.2, 0.8), st.sampled_from([3, 4]))
def test_verify_witness_certifies_three_and_four_moments(atoms1, atoms2, p1, n):
    # skewed classes of three to five atoms: the n = 3 residual is backed off
    # the unattained supremum, the n = 4 one too (see the four-moment test)
    classes = []
    for prior, atoms in ((p1, atoms1), (1.0 - p1, atoms2)):
        total = sum(w for _, w in atoms)
        measure = DiscreteMeasure(tuple((x, w / total) for x, w in atoms))
        classes.append(ClassSpec.from_moments(prior, moments_of(measure, n)[1:]))
    report = verify_witness(classes, n)
    assert report.certified, (report.moment_mismatch, report.bayes_error, report.bound)


def test_witness_paper_problem_is_exact(tmp_path, capsys):
    # the README problem: each class is its two-atom measure through the shared
    # atom (1, 1/2), with no back-off, so the witness error equals the bound
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"classes": [{"prior": 0.5, "moments": [0.0, 1.0]},
                                            {"prior": 0.5, "moments": [2.0, 5.0]}]}))
    code = cli.main(["witness", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["measures"] == [[{"x": -1.0, "mass": 0.5}, {"x": 1.0, "mass": 0.5}],
                                   [{"x": 1.0, "mass": 0.5}, {"x": 3.0, "mass": 0.5}]]
    assert payload["report"]["bayes_error"] == 0.25
    assert payload["report"]["certified"] is True


def test_two_moment_witness_near_the_mean_keeps_its_far_mass():
    # delta* = mu + 1e-5 sigma: 1 - eps is about 1e-10, where 1 - eps itself
    # loses seven digits; the far atom at -1e5 carries the whole variance
    classes = [make_class(0.5, 0.0, 1.0), make_class(0.5, 2e-5, 1.0)]
    report = verify_witness(classes, 2)
    assert report.bound.delta_star == pytest.approx(1e-5, rel=1e-9)
    for c, m in zip(classes, report.measures):
        assert len(m.atoms) == 2
        np.testing.assert_allclose(moments_of(m, 2), c.moment_sequence(2), rtol=1e-12, atol=1e-12)
    assert report.certified
    assert report.bayes_error >= report.bound.value - 1e-15


@st.composite
def two_moment_problems(draw):
    # wide offsets and scales, with point masses, equal means and classes whose
    # mean is the shared location (eps = 1, not attained) among the draws
    G = draw(st.integers(2, 5))
    offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** draw(st.floats(-6, 6))
    scale = 10.0 ** draw(st.floats(-6, 6))
    same_mean = draw(st.booleans())
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=G, max_size=G))
    classes = []
    for w in weights:
        mean = offset if same_mean else offset + scale * draw(st.floats(-3.0, 3.0))
        var = (scale * draw(st.floats(0.1, 3.0))) ** 2 if draw(st.integers(0, 5)) else 0.0
        classes.append((w / sum(weights), mean, mean * mean + var))
    return classes


@settings(max_examples=80, deadline=None, derandomize=True)
@given(two_moment_problems())
def test_two_moment_witness_certifies_over_wide_ranges(spec):
    classes = [ClassSpec(p, g1, g2) for p, g1, g2 in spec]
    report = verify_witness(classes, 2)
    assert report.certified, (spec, report)
    if all(e < 1.0 for e in report.bound.epsilons):
        assert all(len(m.atoms) <= 2 for m in report.measures)
        assert report.bayes_error >= report.bound.value - 1e-15


@settings(max_examples=60, deadline=None, derandomize=True)
@given(two_moment_problems(), st.integers(-60, 60))
def test_witness_does_not_depend_on_units(spec, k):
    # a 2^k rescaling is exact in doubles, so it must scale every atom by 2^k
    # and leave the error, the mismatch and the verdict as they are, bit for bit
    f = 2.0 ** k
    base = verify_witness([ClassSpec(p, g1, g2) for p, g1, g2 in spec], 2)
    moved = verify_witness([ClassSpec(p, g1 * f, g2 * f * f) for p, g1, g2 in spec], 2)
    assert [[(x * f, w) for x, w in m.atoms] for m in base.measures] == \
        [list(m.atoms) for m in moved.measures]
    assert (moved.bayes_error, moved.moment_mismatch, moved.certified) == \
        (base.bayes_error, base.moment_mismatch, base.certified)


@pytest.mark.parametrize("k", [-44, 44])
def test_paper_problem_in_other_units(k):
    # in units of 2^-44 an absolute merge rule and an absolute mismatch floor
    # swallowed each support and let every tiny moment "match"
    f = 2.0 ** k
    report = verify_witness([ClassSpec(0.5, 0.0, f * f), ClassSpec(0.5, 2.0 * f, 5.0 * f * f)], 2)
    assert [m.atoms for m in report.measures] == [((-f, 0.5), (f, 0.5)),
                                                  ((f, 0.5), (3.0 * f, 0.5))]
    assert (report.bayes_error, report.moment_mismatch, report.certified) == (0.25, 0.0, True)
