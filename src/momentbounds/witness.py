"""Explicit discrete distributions certifying the lower bound.

Each witness class distribution is a shared atom of mass eps_i at the optimal
location plus the atoms recovered from the residual moment sequence, shifted
back to the original coordinates. The exact Bayes error of the witness family
is then at least the certified bound (collisions between atoms only increase
the overlap, hence the error).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import moments as mm
from .errors import InfeasibleSequenceError
from .lowerbound import ClassSpec, LowerBoundResult, lower_bound

#: atoms closer than this (absolute) are treated as one support point.
ATOM_MERGE_TOL = 1e-12

#: default distance backed off from an unattained shared-mass supremum.
DEFAULT_BACKOFF = 1e-9

#: verified witnesses never put less residual mass than this next to the
#: shared atom: below it the residual Hankel data is too ill-conditioned for
#: double precision, and the error deficit it costs (at most the margin)
#: stays well inside the 1e-6 certification slack.
CONSTRUCTION_MARGIN = 5e-7


@dataclass(frozen=True)
class WitnessReport:
    """Constructed measures plus the checks tying them to the bound."""

    measures: tuple[mm.DiscreteMeasure, ...]
    moment_mismatch: float
    bayes_error: float
    bound: LowerBoundResult
    certified: bool


def build_witness(classes, delta_star: float, epsilons,
                  n_moments: int | None = None,
                  tol: float = mm.DEFAULT_TOL) -> list[mm.DiscreteMeasure]:
    """Construct one discrete measure per class matching its moments.

    Class i gets an atom (delta_star, epsilons[i]) plus
    ``moments.recover_atoms`` of its residual sequence g_j - eps delta^j, any
    n. The residual stays in the class's own coordinates, so its recovery
    counts the rounding those raw moments carry. Raises
    InfeasibleSequenceError when an epsilon leaves an infeasible residual.
    """
    classes = list(classes)
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) != len(classes):
        raise ValueError("need one epsilon per class")
    delta_star = float(delta_star)
    measures = []
    for c, eps in zip(classes, eps_list):
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {eps}")
        seq = c.moment_sequence(n_moments)
        if 1.0 - eps <= 1e-15:
            scale = 1.0 + max(abs(v) for v in seq)
            if any(abs(v) > tol * scale for v in mm.shift_moments(seq, delta_star)[1:]):
                raise InfeasibleSequenceError(
                    "epsilon 1 requires the class to be a point mass at the shared location")
            measures.append(mm.DiscreteMeasure(((delta_star, 1.0),)))
            continue
        residual = [v - eps * delta_star ** j for j, v in enumerate(seq)]
        atoms = list(mm.recover_atoms(residual, tol).atoms)
        if eps > 0.0:
            atoms.append((delta_star, eps))
        measures.append(mm.DiscreteMeasure.from_atoms(atoms, merge_tol=ATOM_MERGE_TOL))
    return measures


def discrete_bayes_error(measures, priors, merge_tol: float = ATOM_MERGE_TOL) -> float:
    """Exact Bayes error of a family of discrete class conditionals.

    Evaluates 1 - sum over support points of max_i p(i) * mass_i, with
    locations closer than ``merge_tol`` (absolute) treated as a single point.
    """
    measures = list(measures)
    p = [float(q) for q in priors]
    if len(measures) != len(p):
        raise ValueError("need one prior per measure")
    if any(not 0.0 < q < 1.0 for q in p) or abs(sum(p) - 1.0) > 1e-9:
        raise ValueError("priors must lie in (0, 1) and sum to 1")
    for i, m in enumerate(measures):
        if abs(m.total_mass - 1.0) > 1e-9:
            raise ValueError(f"measure {i} mass {m.total_mass} is not 1")
    entries = sorted((x, i, w) for i, m in enumerate(measures) for x, w in m.atoms)
    winning = 0.0
    j = 0
    while j < len(entries):
        anchor = entries[j][0]
        masses = [0.0] * len(measures)
        while j < len(entries) and entries[j][0] - anchor <= merge_tol:
            _, i, w = entries[j]
            masses[i] += w
            j += 1
        winning += max(q * w for q, w in zip(p, masses))
    return max(1.0 - winning, 0.0)


def _backed_off(c: ClassSpec, eps: float, n_moments: int, backoff: float,
                tol: float) -> float:
    if eps <= 0.0:
        return 0.0
    if c.gamma2 is not None and max(c.sigma2, 0.0) == 0.0 and eps == 1.0:
        return 1.0  # point mass sitting exactly on the shared location
    if n_moments == 1:
        return max(eps - backoff, 0.0)
    ceiling = 1.0 - max(backoff, CONSTRUCTION_MARGIN)
    if n_moments == 2:
        return min(eps, ceiling)  # attained away from the constructible ceiling
    if n_moments >= 4:
        # the mass freed must stand out of the rounding within which
        # recover_atoms takes a pivot before the last for zero, or it is
        # folded into the other atoms; the margin caps what a loose tol costs
        backoff = max(backoff, min(100.0 * tol, CONSTRUCTION_MARGIN))
    return min(max(eps - backoff, 0.0), ceiling)


def verify_witness(classes, n_moments: int, backoff: float = DEFAULT_BACKOFF,
                   tol: float = mm.DEFAULT_TOL) -> WitnessReport:
    """Compute the bound, build its witness and check the certificate.

    Epsilons sitting on an unattained supremum are backed off by ``backoff``
    (with four or more moments, by at least 100 ``tol`` up to
    CONSTRUCTION_MARGIN) before construction.
    The report records the worst relative moment mismatch across classes and
    orders, the exact discrete Bayes error, and whether the error covers the
    bound (error >= value - 1e-6 with mismatch <= 1e-9).
    """
    classes = list(classes)
    bound = lower_bound(classes, n_moments, tol=tol)
    eps = [_backed_off(c, e, n_moments, backoff, tol)
           for c, e in zip(classes, bound.epsilons)]
    measures = build_witness(classes, bound.delta_star, eps,
                             n_moments=n_moments, tol=tol)
    mismatch = 0.0
    for c, m in zip(classes, measures):
        target = c.moment_sequence(n_moments)
        got = mm.moments_of(m, n_moments)
        for t, v in zip(target, got):
            mismatch = max(mismatch, abs(v - t) / max(1.0, abs(t)))
    error = discrete_bayes_error(measures, [c.prior for c in classes])
    certified = mismatch <= 1e-9 and error >= bound.value - 1e-6
    return WitnessReport(tuple(measures), float(mismatch), float(error),
                         bound, certified)
