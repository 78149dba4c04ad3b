"""Lower bounds on the worst-case Bayes error from per-class moments.

The bound forces every class-conditional distribution to carry a common Dirac
mass at a shared location ``delta``. The largest mass class ``i`` can spare is
``eps_i(delta)``, row i of the classes' ``moments.shared_mass`` map. The
certified bound, sum_i p_i eps_i - max_i p_i eps_i, is maximized over the
shared location: exactly for two classes, among the real roots of polynomials
(closed form for two and three moments, companion-matrix eigenvalues beyond),
for three or more by a grid scan refined in batched bracket passes, which with
two or three moments covers the means' hull and the pairwise crossings only,
and with four or more the hull of every class pair's two-class candidates,
which it takes as kinks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import moments as mm
from ._search import _quadratic_roots, _real_roots, grid_golden_max
from .errors import InfeasibleSequenceError

_PRIOR_SUM_TOL = 1e-12


class BoundMethod(str, Enum):
    FIRST_MOMENT = "FIRST_MOMENT"
    CLOSED_FORM_G2 = "CLOSED_FORM_G2"
    NUMERIC = "NUMERIC"


@dataclass(frozen=True)
class ClassSpec:
    """One class: prior probability plus raw moments (gamma1 [, gamma2, ...]).

    ``gamma2`` may be omitted for problems that only pin the first moments.
    ``higher`` holds gamma3 onward. Feasibility of the class's own sequence is
    checked where it matters (``lower_bound``), not at construction.
    """

    prior: float
    gamma1: float
    gamma2: float | None = None
    higher: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.prior < 1.0):
            raise ValueError(f"prior must lie in (0, 1), got {self.prior}")
        if self.higher and self.gamma2 is None:
            raise ValueError("higher moments require gamma2")
        object.__setattr__(self, "higher", tuple(float(h) for h in self.higher))

    @classmethod
    def from_moments(cls, prior: float, moments) -> "ClassSpec":
        """Build from a prior and a list [gamma1, gamma2, ...]."""
        vals = [float(v) for v in moments]
        if not vals or not all(map(math.isfinite, vals)):
            raise ValueError("moments must be finite" if vals else
                             "need at least the first moment")
        return cls(prior=float(prior), gamma1=vals[0],
                   gamma2=vals[1] if len(vals) > 1 else None,
                   higher=tuple(vals[2:]))

    @property
    def sigma2(self) -> float:
        """Centered second moment gamma2 - gamma1^2."""
        if self.gamma2 is None:
            raise ValueError("second moment unknown for this class")
        return self.gamma2 - self.gamma1 * self.gamma1

    @property
    def n_moments(self) -> int:
        return 1 if self.gamma2 is None else 2 + len(self.higher)

    def moment_sequence(self, n: int) -> list[float]:
        """[1, gamma1, ...] truncated to ``n`` raw moments."""
        if n < 1 or n > self.n_moments:
            raise ValueError(f"class provides {self.n_moments} moments, asked for {n}")
        seq = [1.0, self.gamma1]
        if n >= 2:
            seq.append(float(self.gamma2))
            seq.extend(self.higher[:n - 2])
        return seq


@dataclass(frozen=True)
class LowerBoundResult:
    value: float
    delta_star: float
    epsilons: tuple[float, ...]
    attained: bool
    method: BoundMethod


def _objective_vec(priors, deltas: np.ndarray, mass: mm.SharedMass) -> np.ndarray:
    """sum - max over the class axis of p_i eps_i(delta) at each delta, eps
    from ``mass``, the classes' shared-mass map, p from ``priors``, shaped like the
    map's leading axes: (G,), or (2, rows, 1) for a two-class map of many rows."""
    w = mass(deltas, np.array(priors).reshape((len(priors), -1) + (1,) * (mass.mean.ndim - 2)))
    vals = np.add.reduce(w, 0)  # adds the class rows in order
    vals -= np.maximum.reduce(w, 0)
    return vals


def _crossings(priors, mean, var) -> np.ndarray:
    """Deltas (..., 2) where two-moment p_a eps_a = p_b eps_b, for ``priors`` (p_a, p_b)
    and arrays (2, ..., 1) of ``mean`` and ``var``: roots (or a complex pair's real part)
    of p_a P_b - p_b P_a, P = 1 / eps = 1 + (t0 + t1 u)^2 in the narrower class's frame u."""
    narrow, sd = var[0] <= var[1], np.sqrt(var)
    center, scale = np.where(narrow, mean[0], mean[1]), np.where(narrow, sd[0], sd[1])
    with np.errstate(all="ignore"):  # a point mass's t is 0 / 0 or infinite: dropped below
        t0, t1 = (center - mean) / sd, scale / sd
        inverse = np.array([1.0 + t0 * t0, 2.0 * t0 * t1, t1 * t1])  # P, lowest first
        c, b, a = priors[0] * inverse[:, 1] - priors[1] * inverse[:, 0]
        u = _quadratic_roots(a, b, c)
        return np.where(var.all(0) & np.isfinite(u), center + scale * u, np.nan)


def _inverse_mass_poly(mass: mm.SharedMass, center, scale) -> np.ndarray:
    """Both classes' 1/eps(delta) in powers of u = (delta - center) / scale, lowest first,
    as (2, rows, 2k + 1), for each row of ``mass``, a two-class map with k >= 2. With
    t = (delta - mean) / sd = t0 + t1 u, 1/eps = |L^-1 v|^2, v = (1, t, .., t^k) = T (1, u,
    .., u^k), row m of T the coefficients of (t0 + t1 u)^m: u^j's coefficient is the j-th
    anti-diagonal sum of (L^-1 T)^T (L^-1 T), L^-1 the map's ``inv_chol``."""
    k = mass.inv_chol.shape[-1] - 1
    sd = np.sqrt(mass.var.reshape(2, -1, 1))
    t0, t1 = (center - mass.mean.reshape(2, -1, 1)) / sd, scale / sd
    power = np.zeros(t0.shape[:2] + (k + 1, k + 1))
    power[..., 0, 0] = 1.0
    for m in range(1, k + 1):  # T_m = t1 shift(T_(m-1)) + t0 T_(m-1)
        power[..., m, 1:] = t1 * power[..., m - 1, :-1]
        power[..., m, :] += t0 * power[..., m - 1, :]
    lt = mass.inv_chol.reshape(power.shape) @ power
    gram = np.swapaxes(lt, -1, -2) @ lt
    c = np.zeros(gram.shape[:2] + (2 * k + 1,))
    for j in range(k + 1):
        c[..., j:j + k + 1] += gram[..., j, :]
    return c


@functools.cache
def _pairs(count: int) -> np.ndarray:
    """The (2, pairs) indices of ``count`` classes' pairs, built once per count."""
    pairs = np.array(np.triu_indices(count, 1))
    pairs.flags.writeable = False
    return pairs


def _shift_candidates(priors, mass: mm.SharedMass) -> np.ndarray:
    """Candidate shifts for each row of ``mass``, a two-class map of any k, as NaN-padded
    columns: both means, the atoms of pinned classes (a point mass or a singular A(k),
    sharing mass only at its atoms), then, in rows without one, each root d and d's
    neighbouring doubles: of p1 P2 - p2 P1 (the crossings) and of P1' and P2' (where each
    peaks), P = 1/eps of degree 2k, in the narrower class's frame."""
    mean1, mean2, var1, var2, *atoms = (c.reshape(-1, 1) for c in (
        *mass.mean, *mass.var, *(x[i] for i in range(2) for x, _ in mass.atoms)))
    if mass.inv_chol is None:  # k = 1: each class peaks at its mean, a crossing is a quadratic
        d = _crossings(priors, mass.mean.reshape(2, -1, 1), mass.var.reshape(2, -1, 1))
    else:
        narrow = var1 <= var2
        center, scale = np.where(narrow, mean1, mean2), np.sqrt(np.where(narrow, var1, var2))
        with np.errstate(all="ignore"):  # a pinned class's P is 0 / 0 or infinite: zeroed
            p = _inverse_mass_poly(mass, center, scale)
            (p1, p2), deg = p, p.shape[-1] - 1
            # the crossings, and where each class peaks: P1', P2', zero-padded
            dp = np.zeros_like(p)
            np.multiply(p[..., 1:], np.arange(1, deg + 1), out=dp[..., :-1])
            polys = np.concatenate([(priors[0] * p2 - priors[1] * p1)[None], dp])
        polys = np.where(~np.isfinite(atoms).any(0), polys, 0.0)  # a row of zeros has no root
        roots = list(_real_roots(polys.reshape(-1, deg + 1)).reshape(3, -1, deg))
        # the value at a crossing (a kink) inherits the root's error, and for
        # k >= 2 the composed polynomials carry more rounding than the maps:
        # add one Newton step on w1 - w2 itself, d eps / du = -eps d log P / du
        u = roots[0]
        w1, w2 = (p * m for p, m in zip(priors, mass(center + scale * u)))
        powers = np.vander(u.ravel(), deg + 1, increasing=True).reshape(*u.shape, deg + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dlog1, dlog2 = ((powers[..., :-1] @ dq[..., :-1, None] / (powers @ q[..., None]))
                            [..., 0] for q, dq in zip(p, dp))
            roots.insert(1, u - (w1 - w2) / (w2 * dlog2 - w1 * dlog1))
        u = np.concatenate(roots, axis=1)
        d = np.where(np.isfinite(u), center + scale * u, np.nan)
    # one side of a crossing is steep: a neighbour can beat the rounded root
    return np.concatenate([mean1, mean2, *atoms, d, np.nextafter(d, math.inf),
                           np.nextafter(d, -math.inf)], axis=1)


def _shift_two_class(priors, mass: mm.SharedMass) -> np.ndarray:
    """``optimal_shift_two_class`` for each row of ``mass``, a two-class map of any k, as
    a column: the row's best ``_shift_candidates`` by ``_objective_vec``."""
    cands = _shift_candidates(priors, mass)
    vals = _objective_vec(priors, cands, mass).reshape(cands.shape)
    vals[np.isnan(cands)] = -np.inf
    return cands[np.arange(len(cands)), vals.argmax(axis=1)][:, None]


def optimal_shift_two_class(c1: ClassSpec, c2: ClassSpec, mass: mm.SharedMass) -> float:
    """Exact optimal shared location for two classes, any priors.

    ``mass`` is the classes' shared-mass map.
    min(p1 eps1, p2 eps2) with 1/eps_i a polynomial P_i of degree 2k peaks
    where the weighted masses cross, a real root of p1 P2 - p2 P1, or where
    one peaks on its own, a root of P_i'. The roots (real parts, in the frame
    of the narrower class) and their neighbours one ulp away join the means
    and the atoms of pinned classes as candidates; the best one is returned.
    """
    return float(_shift_two_class((c1.prior, c2.prior), mass)[0, 0])


def _two_class_rows(priors, mass: mm.SharedMass):
    """The shift, both shared masses there and the bound min(p1 eps1, p2 eps2),
    sum - max for two classes, as four columns, one row per problem of ``mass``,
    a two-class map; the callers have checked the priors and the classes."""
    delta = _shift_two_class(priors, mass)
    eps1, eps2 = mass(delta).reshape(2, -1, 1)  # a map of one problem has no row axis
    return delta, eps1, eps2, np.minimum(priors[0] * eps1, priors[1] * eps2)


def optimal_shift_numeric(classes, mass: mm.SharedMass) -> float:
    """Shift maximizing the objective, located by grid scan plus refinement.

    ``lower_bound`` uses it for G >= 3, where exact enumeration needs roots of
    degree (2k - 1) + 4k(G - 2). ``mass`` is the classes' shared-mass map:
    each objective evaluation is one call of it. Scans the 10,001-point grid
    on [min mean - 10 max sd, max mean + 10 max sd] with the means and the
    atoms of pinned classes, then refines the best point's bracket until it
    no longer shrinks in doubles (``_search.grid_golden_max``), so the result
    scales with the problem's units. Only the grid points of a span holding
    the maximizer are scanned. With two moments each p_i eps_i rises up to its
    mean and falls past it, and sum - max rises with each: the span is the
    means' hull, and every pairwise crossing and its neighbouring doubles are
    kinks (``_crossings``, ``_kink_is_max``). With four or more moments every
    candidate of every pair (``_shift_candidates``, one call on a map whose
    rows are the pairs) is a kink, competing only as a point, and the span is
    their hull: past the outermost one every p_i eps_i is beyond its last peak
    and no two cross, so sum - max only falls there."""
    priors = [c.prior for c in classes]
    if len(priors) < 2:
        raise ValueError("need at least two classes")
    means = mass.mean.ravel().tolist()
    atoms = np.ravel([x for x, _ in mass.atoms], order="F")  # class by class
    cands = means + atoms[~np.isnan(atoms)].tolist()
    smax = math.sqrt(mass.var.max())
    lo, hi = min(means) - 10.0 * smax, max(means) + 10.0 * smax
    pairs, stop = _pairs(len(priors)), None
    if mass.inv_chol is None:  # two or three moments
        d = _crossings(np.array(priors)[pairs, None], mass.mean[pairs], mass.var[pairs]).ravel()
        span, stop = (min(means), max(means)), functools.partial(_kink_is_max, priors, mass)
        kinks = np.concatenate([d, np.nextafter(d, -math.inf), np.nextafter(d, math.inf)])
    else:  # every pair's two-class candidates, from one map whose rows are the pairs
        kinks = _shift_candidates(np.array(priors)[pairs, None], mm.SharedMass(
            mass.mean[pairs], mass.var[pairs], mass.inv_chol[pairs],
            tuple((x[pairs], w[pairs]) for x, w in mass.atoms))).ravel()
        span = (np.nanmin(kinks), np.nanmax(kinks))  # the means are among them
    x, _ = grid_golden_max(lambda d: _objective_vec(priors, d, mass), lo, hi, extra=cands,
                           span=span, kinks=kinks, stop=stop)
    return float(x)


def _kink_is_max(priors, mass: mm.SharedMass, x: float, lead: float, step: float) -> bool:
    """Whether a winning kink ``x`` ends a two-moment search: (a) the two largest
    w = p eps meet there (within their rounding and one ulp's change), the slope
    >= 0 left and <= 0 right; (b) the grid resolves every class: both slopes exceed
    M step / 4 and x leads the best other scanned point by M step^2 / 8, M = sum
    2 p / var bounding the curvature between kinks."""
    w = mass(x, np.reshape(priors, (-1, 1))).ravel().tolist()
    var = mass.var.ravel().tolist()
    slopes = [-2.0 * (x - m) / v * wi * (wi / p) if v else 0.0  # d w / d delta
              for p, m, v, wi in zip(priors, mass.mean.ravel().tolist(), var, w)]
    bound = 0.25 * step * sum(2.0 * p / v for p, v in zip(priors, var) if v)  # M step / 4
    second, top = sorted(range(len(w)), key=w.__getitem__)[-2:]
    low, high = sorted((slopes[top], slopes[second]))  # the top class changes at x
    gap = w[top] - w[second] - math.ulp(w[top]) - math.ulp(w[second])
    return (var[top] > 0.0 < var[second] and gap <= math.ulp(x) * (high - low)  # not a spike
            and min(sum(slopes) - low, high - sum(slopes)) >= bound and lead >= 0.5 * step * bound)


def lower_bound(classes, n_moments: int, tol: float = mm.DEFAULT_TOL) -> LowerBoundResult:
    """Certified lower bound on the supremum Bayes error.

    ``n_moments`` selects how much of each class's moment data is used:
    1 uses only the means (bound 1 - max prior); 2 and more use each class's
    ``moments.shared_mass`` map of that order at the shared location. The
    three-moment value coincides with the two-moment one. ``attained`` is
    False for every n >= 3, which is conservative: an even-n supremum can be
    attained (N(0, 1) against N(2, 1) at n = 6).

    Raises InfeasibleSequenceError when some class's own moments admit no
    distribution.
    """
    classes = list(classes)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    total = sum(c.prior for c in classes)
    if abs(total - 1.0) > _PRIOR_SUM_TOL:
        raise ValueError(f"class priors must sum to 1, got {total}")
    if n_moments < 1:
        raise ValueError("n_moments must be at least 1")
    for i, c in enumerate(classes):
        if c.n_moments < n_moments:
            raise ValueError(f"class {i} provides only {c.n_moments} moments")
    if n_moments == 1:
        # the means alone let the shared mass be pushed arbitrarily close to 1
        # (but not to 1): the supremum is 1 - max prior, never attained
        eps = tuple(1.0 for _ in classes)
        return LowerBoundResult(1.0 - max(c.prior for c in classes), 0.0, eps, False,
                                BoundMethod.FIRST_MOMENT)
    verdicts, mass = mm._judged_mass([c.moment_sequence(n_moments) for c in classes], tol)
    for i, verdict in enumerate(verdicts):
        if not verdict.feasible:
            raise InfeasibleSequenceError(
                f"class {i} moment sequence is infeasible ({verdict.reason.value})")
    if len(classes) == 2:
        delta, method = optimal_shift_two_class(*classes, mass), BoundMethod.CLOSED_FORM_G2
    else:
        delta, method = optimal_shift_numeric(classes, mass), BoundMethod.NUMERIC
    eps = mass(delta).ravel().tolist()
    weighted = [c.prior * e for c, e in zip(classes, eps)]
    weighted.remove(max(weighted))  # sum - max cancels when one class keeps nearly all
    value = sum(weighted)
    # with two moments the supremum fails exactly when some class must give
    # up all its mass while keeping positive variance (shifted mean zero)
    attained = n_moments == 2 and all(e < 1.0 or v == 0.0
                                      for v, e in zip(mass.var.ravel().tolist(), eps))
    return LowerBoundResult(value, delta, tuple(eps), attained, method)
