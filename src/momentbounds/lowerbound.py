"""Lower bounds on the worst-case Bayes error from per-class moments.

The bound forces every class-conditional distribution to carry a common Dirac
mass at a shared location ``delta``. The largest mass class ``i`` can spare is
``eps_i(delta)``, row i of the classes' ``moments.shared_mass`` map. The
certified bound, sum_i p_i eps_i - max_i p_i eps_i, is maximized over the
shared location: exactly for two classes, among the real roots of polynomials
(closed form for two and three moments, companion-matrix eigenvalues beyond),
by a grid scan refined in batched bracket passes for three or more classes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import moments as mm
from ._search import _columns, _real_roots, grid_golden_max
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
    checked where it matters (``lower_bound``), not at construction. The
    batched two-moment paths take (rows, 1) columns as gamma1 and gamma2.
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


def _objective_vec(classes, deltas: np.ndarray, mass: mm.SharedMass) -> np.ndarray:
    """sum - max over the class axis of p_i eps_i(delta) at each delta, eps
    from ``mass``, the classes' shared-mass map."""
    priors = np.array([c.prior for c in classes]).reshape((-1,) + (1,) * (mass.mean.ndim - 1))
    w = mass(deltas, priors)
    vals = np.add.reduce(w, 0)  # adds the class rows in order
    vals -= np.maximum.reduce(w, 0)
    return vals


def _inverse_mass_poly(mass: mm.SharedMass, center, scale, rows) -> np.ndarray:
    """Both classes' 1/eps(delta) in powers of u = (delta - center) / scale,
    lowest first, on ``rows`` (0 elsewhere), as (2, rows, 2k + 1). In the frame
    t = (delta - mean) / sd it is c(t), c the anti-diagonal sums of M in v^T M v,
    v = (1, t, .., t^k), M = inv_chol^T inv_chol; t = t0 + t1 u gives u^m the
    coefficient t1^m sum_p C(p + m, m) c_(p+m) t0^p: one product per class."""
    gram = (np.eye(2)[None] if mass.inv_chol is None
            else np.swapaxes(mass.inv_chol, -1, -2) @ mass.inv_chol)
    k = gram.shape[-1] - 1
    c = np.zeros((len(gram), 4 * k + 1))  # 0 past c_2k
    for j in range(k + 1):
        c[:, j:j + k + 1] += gram[:, j]
    s = np.arange(2 * k + 1)
    taylor = c[:, s[:, None] + s] * _binomials(k)
    # the other rows' t is u: their own can overflow, or be 0 / 0 at a point mass
    mean = np.where(rows, mass.mean.reshape(2, -1, 1), center)
    sd = np.sqrt(np.where(rows, mass.var.reshape(2, -1, 1), 1.0))
    t = np.concatenate([(center - mean) / sd, np.where(rows, scale / sd, 1.0)])
    t0, t1 = np.vander(t.ravel(), 2 * k + 1, increasing=True).reshape(2, 2, -1, 2 * k + 1)
    return np.where(rows, (t0 @ taylor) * t1, 0.0)


@functools.cache
def _binomials(k: int) -> np.ndarray:
    """The (2k + 1)^2 table C(p + m, m), p and m = 0 .. 2k, built once per k."""
    n = range(2 * k + 1)
    table = np.array([[math.comb(p + m, m) for m in n] for p in n], dtype=float)
    table.flags.writeable = False
    return table


def _shift_two_class(c1: ClassSpec, c2: ClassSpec, mass: mm.SharedMass) -> np.ndarray:
    """``optimal_shift_two_class`` for each row of two classes: a column."""
    classes = [c1, c2]
    mean1, mean2, var1, var2, *atoms = _columns(*mass.mean, *mass.var,
                                                *(x[i] for i in range(2) for x, _ in mass.atoms))
    cands = [mean1, mean2] + atoms
    regular = ~np.isfinite(atoms).any(0)  # a pinned class shares mass only at its atoms
    if regular.any():
        narrow = var1 <= var2
        center, scale = np.where(narrow, mean1, mean2), np.sqrt(np.where(narrow, var1, var2))
        p = _inverse_mass_poly(mass, center, scale, regular)
        (p1, p2), deg = p, p.shape[-1] - 1
        polys = c1.prior * p2 - c2.prior * p1  # the crossings
        if deg > 2:  # and where each class peaks: P1', P2', zero-padded to the crossing's width
            dp = np.zeros_like(p)
            np.multiply(p[..., 1:], np.arange(1, deg + 1), out=dp[..., :-1])
            polys = np.concatenate([polys[None], dp]).reshape(-1, deg + 1)
        roots = list(_real_roots(polys).reshape(-1, len(p1), deg))
        if deg > 2:
            # the value at a crossing (a kink) inherits the root's error, and for
            # k >= 2 the composed polynomials carry more rounding than the maps:
            # add one Newton step on w1 - w2 itself, d eps / du = -eps d log P / du
            u = roots[0]
            w1, w2 = (c.prior * m for c, m in zip(classes, mass(center + scale * u)))
            powers = np.vander(u.ravel(), deg + 1, increasing=True).reshape(*u.shape, deg + 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                dlog1, dlog2 = ((powers[..., :-1] @ dq[..., :-1, None] / (powers @ q[..., None]))
                                [..., 0] for q, dq in zip(p, dp))
                roots.insert(1, u - (w1 - w2) / (w2 * dlog2 - w1 * dlog1))
        u = np.concatenate(roots, axis=1)
        d = np.where(np.isfinite(u), center + scale * u, np.nan)
        # one side of a crossing is steep: a neighbour can beat the rounded root
        cands += [d, np.nextafter(d, math.inf), np.nextafter(d, -math.inf)]
    cands = np.concatenate(cands, axis=1)
    vals = _objective_vec(classes, cands, mass).reshape(cands.shape)
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
    return float(_shift_two_class(c1, c2, mass)[0, 0])


def optimal_shift_numeric(classes, mass: mm.SharedMass) -> float:
    """Shift maximizing the objective, located by grid scan plus refinement.

    ``lower_bound`` uses it for G >= 3, where exact enumeration needs roots of
    degree (2k - 1) + 4k(G - 2). ``mass`` is the classes' shared-mass map:
    each objective evaluation is one call of it. Scans 10,001 points on
    [min mean - 10 max sd, max mean + 10 max sd] with the means and the atoms
    of pinned classes, then refines the best point's bracket until it no
    longer shrinks in doubles (``_search.grid_golden_max``), so the result
    scales with the problem's units. If every class is a point mass the
    candidates are all there is."""
    classes = list(classes)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    means = mass.mean.ravel().tolist()
    atoms = np.ravel([x for x, _ in mass.atoms], order="F")  # class by class
    cands = means + atoms[~np.isnan(atoms)].tolist()
    smax = math.sqrt(mass.var.max())
    if smax == 0.0:
        vals = _objective_vec(classes, np.array(cands), mass)
        return float(cands[int(np.argmax(vals))])
    lo, hi = min(means) - 10.0 * smax, max(means) + 10.0 * smax
    x, _ = grid_golden_max(lambda d: _objective_vec(classes, d, mass), lo, hi, extra=cands)
    return float(x)


def lower_bound(classes, n_moments: int, tol: float = mm.DEFAULT_TOL) -> LowerBoundResult:
    """Certified lower bound on the supremum Bayes error.

    ``n_moments`` selects how much of each class's moment data is used:
    1 uses only the means (bound 1 - max prior); 2 and more use each class's
    ``moments.shared_mass`` map of that order at the shared location. The
    three-moment value coincides with the two-moment one, and from three
    moments on the supremum is no longer attained.

    Raises InfeasibleSequenceError when some class's own moments admit no
    distribution.
    """
    classes = list(classes)
    return _lower_from(classes, n_moments, _checked_mass(classes, n_moments, tol))


def _checked_mass(classes: list[ClassSpec], n_moments: int, tol: float) -> mm.SharedMass | None:
    """``lower_bound``'s checks, then the classes' shared-mass map (None for one
    moment), each class's verdict and map from one frame."""
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
        return None
    verdicts, mass = mm._judged_mass([c.moment_sequence(n_moments) for c in classes], tol)
    for i, verdict in enumerate(verdicts):
        if not verdict.feasible:
            raise InfeasibleSequenceError(
                f"class {i} moment sequence is infeasible ({verdict.reason.value})")
    return mass


def _lower_from(classes: list[ClassSpec], n_moments: int, mass: mm.SharedMass | None):
    """``lower_bound`` from ``_checked_mass``'s map."""
    if n_moments == 1:
        # the means alone let the shared mass be pushed arbitrarily close to 1
        # (but not to 1): the supremum is 1 - max prior, never attained
        eps = tuple(1.0 for _ in classes)
        return LowerBoundResult(1.0 - max(c.prior for c in classes), 0.0, eps, False,
                                BoundMethod.FIRST_MOMENT)
    if len(classes) == 2:
        delta = optimal_shift_two_class(classes[0], classes[1], mass)
        method = BoundMethod.CLOSED_FORM_G2
    else:
        delta = optimal_shift_numeric(classes, mass)
        method = BoundMethod.NUMERIC
    eps = tuple(mass(delta).ravel().tolist())
    weighted = [c.prior * e for c, e in zip(classes, eps)]
    weighted.remove(max(weighted))  # sum - max cancels when one class keeps nearly all
    value = sum(weighted)
    # with two moments the supremum fails exactly when some class must give
    # up all its mass while keeping positive variance (shifted mean zero)
    attained = n_moments == 2 and all(e < 1.0 or v == 0.0
                                      for v, e in zip(mass.var.ravel().tolist(), eps))
    return LowerBoundResult(float(value), float(delta), eps, attained, method)


def _two_moment_mass(c1: ClassSpec, c2: ClassSpec) -> mm.SharedMass:
    """The two-moment ``moments.shared_mass`` map of two classes, per row of columns."""
    mean, h2 = np.reshape(_columns(c1.gamma1, c2.gamma1, c1.gamma2, c2.gamma2), (2, 2, -1))
    return mm.shared_mass(np.stack([np.ones(mean.shape), mean, h2], axis=-1))


def _two_moment_rows(c1: ClassSpec, c2: ClassSpec, mass: mm.SharedMass) -> np.ndarray:
    """``lower_bound([c1, c2], 2).value`` for every row of ``_two_moment_mass``,
    unchecked: ``cli.cmd_sweep`` refuses priors not summing to 1 and variances that
    are not positive, and then ``is_feasible`` finds no negative variance, as
    fl(fl(mu^2) + sigma2^2) >= fl(mu^2) (rounding is monotone, and its 2^e units for
    |mu| >= 2^300 are exact). ``moments.shared_mass`` refuses a g2 that is not finite."""
    delta = _shift_two_class(c1, c2, mass)
    w1, w2 = (c.prior * m for c, m in zip((c1, c2), mass(delta)))
    return np.minimum(w1, w2)  # as lower_bound sums all but the largest
