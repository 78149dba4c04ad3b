"""Lower bounds on the worst-case Bayes error from per-class moments.

The bound forces every class-conditional distribution to carry a common Dirac
mass at a shared location ``delta``. The largest mass class ``i`` can spare is
``eps_i(delta)``, the value of its ``moments.shared_mass`` map: the overlap
fraction ``sigma_i^2 / (sigma_i^2 + (delta - mean_i)^2)`` when two (or three)
moments are known, the Christoffel function of its Hankel matrix when more
moments constrain it. The certified bound is

    sum_i p_i * eps_i - max_i p_i * eps_i

maximized over the shared location: exactly for two classes, among the real
roots of polynomials (companion-matrix eigenvalues; Edelman & Murakami,
*Math. Comp.* 1995), by a grid plus golden-section search for three or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import moments as mm
from ._search import grid_golden_max
from .errors import InfeasibleSequenceError

#: number of scan points for the shift search with three or more classes.
GRID_POINTS = 10_001

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
        if not vals:
            raise ValueError("need at least the first moment")
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

    def moment_sequence(self, n_moments: int | None = None) -> list[float]:
        """[1, gamma1, ...] truncated to ``n_moments`` raw moments."""
        n = self.n_moments if n_moments is None else n_moments
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


def overlap_fraction(c: ClassSpec, delta: float) -> float:
    """Shared mass available at ``delta`` from two moments.

    Equals sigma^2 / (sigma^2 + (delta - gamma1)^2); a zero-variance class
    contributes 1 exactly at its mean and 0 elsewhere.
    """
    return float(mm.shared_mass(c.moment_sequence(2))(delta))


def _objective_vec(classes, deltas: np.ndarray, masses=None) -> np.ndarray:
    """sum - max of p_i * eps_i(delta) at each delta; ``masses`` holds the
    classes' shared-mass maps and defaults to their two-moment ones."""
    if masses is None:
        masses = [mm.shared_mass(c.moment_sequence(2)) for c in classes]
    w = np.vstack([m(deltas, c.prior) for c, m in zip(classes, masses)])
    return w.sum(axis=0) - w.max(axis=0)


def objective(classes, delta: float) -> float:
    """sum_i p_i f_i(delta) - max_i p_i f_i(delta) for two-moment classes."""
    classes = list(classes)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    val = float(_objective_vec(classes, np.array([float(delta)]))[0])
    return max(val, 0.0)


def _inverse_mass_poly(m: mm.SharedMass, center: float, scale: float) -> np.ndarray:
    """1/eps(delta) in powers of u = (delta - center) / scale, lowest first.

    In the class's own frame t = (delta - mean) / sd, 1/eps = v^T M v with
    v = (1, t, .., t^k) and M = inv_chol^T inv_chol (the identity for k = 1),
    whose coefficients are the anti-diagonal sums of M.
    """
    gram = np.eye(2) if m.inv_chol is None else m.inv_chol.T @ m.inv_chol
    k = gram.shape[0] - 1
    coef = np.zeros(2 * k + 1)
    for i in range(k + 1):
        coef[i:i + k + 1] += gram[i]
    sd = math.sqrt(m.var)
    t = np.array([(center - m.mean) / sd, scale / sd])
    out = coef[-1:]
    for c in coef[-2::-1]:  # Horner's rule in t = t[0] + t[1] u
        out = np.convolve(out, t)
        out[0] += c
    return out


def optimal_shift_two_class(c1: ClassSpec, c2: ClassSpec, masses=None) -> float:
    """Exact optimal shared location for two classes, any priors.

    ``masses`` are the classes' shared-mass maps (default: two-moment ones).
    min(p1 eps1, p2 eps2) with 1/eps_i a polynomial P_i of degree 2k peaks
    where the weighted masses cross, a real root of p1 P2 - p2 P1, or where
    one peaks on its own, a root of P_i'. The roots (companion-matrix
    eigenvalues, real parts, in the frame of the narrower class, near which
    the crossings sit) and their neighbours one ulp away join the means and
    the atoms of singular classes as candidates; the best one is returned.
    """
    classes = [c1, c2]
    if masses is None:
        masses = [mm.shared_mass(c.moment_sequence(2)) for c in classes]
    cands = [np.array([c.gamma1 for c in classes] + [x for m in masses for x, _ in m.atoms])]
    if not any(m.atoms for m in masses):  # a singular class shares mass only at its atoms
        narrow = min(masses, key=lambda m: m.var)
        center, scale = narrow.mean, math.sqrt(narrow.var)
        p1, p2 = (_inverse_mass_poly(m, center, scale) for m in masses)
        cross, deg = c1.prior * p2 - c2.prior * p1, p1.size - 1
        roots = [np.roots(cross[::-1]).real]
        if deg > 2:
            # the value at a crossing (a kink) inherits the root's error, and for
            # k >= 2 the composed polynomials carry more rounding than the maps:
            # add one Newton step on w1 - w2 itself, d eps / du = -eps d log P / du
            u, order = roots[0], np.arange(1, deg + 1)
            w1, w2 = (c.prior * m(center + scale * u) for c, m in zip(classes, masses))
            powers = np.vander(u, deg + 1, increasing=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                dlog1, dlog2 = (powers[:, :-1] @ (p[1:] * order) / (powers @ p) for p in (p1, p2))
                roots.append(u - (w1 - w2) / (w2 * dlog2 - w1 * dlog1))
            roots += [np.roots((p[1:] * order)[::-1]).real for p in (p1, p2)]
        u = np.concatenate(roots)
        d = center + scale * u[np.isfinite(u)]
        # one side of a crossing is steep: a neighbour can beat the rounded root
        cands += [d, np.nextafter(d, math.inf), np.nextafter(d, -math.inf)]
    cands = np.concatenate(cands)
    return float(cands[int(np.argmax(_objective_vec(classes, cands, masses)))])


def optimal_shift_numeric(classes, masses=None) -> float:
    """Shift maximizing the objective, located by grid scan plus refinement.

    ``lower_bound`` uses it for G >= 3: exact enumeration there needs roots of
    degree (2k - 1) + 4k(G - 2) and was about three times slower at G = 5.
    ``masses`` are the classes' shared-mass maps (default: two-moment ones).
    Scans 10,001 points on [min mean - 10 max sd, max mean + 10 max sd] with
    the class means and the atoms of singular classes appended as candidates,
    then refines the best bracket by golden section to width 1e-10. If every
    class is a point mass the candidates are the only informative points."""
    classes = list(classes)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    if masses is None:
        masses = [mm.shared_mass(c.moment_sequence(2)) for c in classes]
    means = [c.gamma1 for c in classes]
    cands = means + [x for m in masses for x, _ in m.atoms]
    smax = max(math.sqrt(max(c.sigma2, 0.0)) for c in classes)
    if smax == 0.0:
        vals = _objective_vec(classes, np.array(cands), masses)
        return float(cands[int(np.argmax(vals))])
    lo = min(means) - 10.0 * smax
    hi = max(means) + 10.0 * smax
    x, _ = grid_golden_max(lambda d: _objective_vec(classes, d, masses), lo, hi,
                           num=GRID_POINTS, width=1e-10, extra=cands)
    return float(x)


def first_moment_bound(priors) -> tuple[float, bool]:
    """Bound from first moments alone: 1 - max prior, never attained.

    The shared mass can be pushed arbitrarily close to 1 (but not to 1), so
    the supremum Bayes error given only the class means is 1 - max_i p(i).
    """
    p = [float(q) for q in priors]
    if len(p) < 2:
        raise ValueError("need at least two classes")
    if any(not 0.0 < q < 1.0 for q in p) or abs(sum(p) - 1.0) > _PRIOR_SUM_TOL:
        raise ValueError("priors must lie in (0, 1) and sum to 1")
    return 1.0 - max(p), False


def _validate_problem(classes, n_moments: int) -> None:
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
    _validate_problem(classes, n_moments)
    if n_moments == 1:
        value, _ = first_moment_bound([c.prior for c in classes])
        eps = tuple(1.0 for _ in classes)
        return LowerBoundResult(value, 0.0, eps, False, BoundMethod.FIRST_MOMENT)
    for i, c in enumerate(classes):
        verdict = mm.is_feasible(c.moment_sequence(n_moments), tol)
        if not verdict.feasible:
            raise InfeasibleSequenceError(
                f"class {i} moment sequence is infeasible ({verdict.reason.value})")
    masses = [mm.shared_mass(c.moment_sequence(n_moments), tol) for c in classes]
    if len(classes) == 2:
        delta = optimal_shift_two_class(classes[0], classes[1], masses)
        method = BoundMethod.CLOSED_FORM_G2
    else:
        delta = optimal_shift_numeric(classes, masses)
        method = BoundMethod.NUMERIC
    eps = tuple(float(m(delta)) for m in masses)
    weighted = [c.prior * e for c, e in zip(classes, eps)]
    value = max(sum(weighted) - max(weighted), 0.0)
    # with two moments the supremum fails exactly when some class must give
    # up all its mass while keeping positive variance (shifted mean zero)
    attained = n_moments == 2 and all(e < 1.0 or max(c.sigma2, 0.0) == 0.0
                                      for c, e in zip(classes, eps))
    return LowerBoundResult(float(value), float(delta), eps, attained, method)
