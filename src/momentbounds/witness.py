"""Explicit discrete distributions certifying the lower bound.

Each witness class distribution is a shared atom of mass eps_i at the optimal
location plus the atoms of its residual moment sequence (with two moments and
0 < eps_i < 1 one atom, in closed form). The exact Bayes error of the witness
family is then at least the certified bound (collisions between atoms only
increase the overlap, hence the error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments as mm
from .errors import InfeasibleSequenceError
from .lowerbound import ClassSpec, LowerBoundResult, lower_bound

#: atoms closer than this times the largest |location| are one support point.
ATOM_MERGE_TOL = 1e-12

#: distance backed off from an unattained shared-mass supremum.
DEFAULT_BACKOFF = 1e-9

#: backed-off witnesses never put less residual mass than this next to the
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


def build_witness(classes, delta_star: float, epsilons, n_moments: int,
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
        with np.errstate(over="ignore"):  # numpy scalars: libm's pow, inf past the doubles
            residual = [v - eps * np.float64(delta_star) ** j if eps else v
                        for j, v in enumerate(seq)]
        if not np.isfinite(residual).all():
            raise InfeasibleSequenceError("the residual's moments leave the double range")
        atoms = list(mm.recover_atoms(residual, tol).atoms)
        if eps > 0.0:
            atoms.append((delta_star, eps))
        measures.append(mm.DiscreteMeasure.from_atoms(atoms))
    return measures


def discrete_bayes_error(measures, priors) -> float:
    """Exact Bayes error of a family of discrete class conditionals.

    Evaluates 1 - sum over support points of max_i p(i) * mass_i, with
    locations closer than ``ATOM_MERGE_TOL`` (relative) treated as a single point.
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
    merge_tol = ATOM_MERGE_TOL * max(abs(entries[0][0]), abs(entries[-1][0]))
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


def _backed_off(eps: float, n_moments: int, tol: float) -> float:
    if n_moments == 1:  # the shared location need not be the class's
        return max(eps - DEFAULT_BACKOFF, 0.0)
    backoff = DEFAULT_BACKOFF
    if n_moments >= 4:
        # the mass freed must stand out of the rounding within which
        # recover_atoms takes a pivot before the last for zero, or it is
        # folded into the other atoms; the margin caps what a loose tol costs
        backoff = max(backoff, min(100.0 * tol, CONSTRUCTION_MARGIN))
    return min(max(eps - backoff, 0.0), 1.0 - CONSTRUCTION_MARGIN)


def _two_atoms(c: ClassSpec, delta: float, eps: float):
    """Class c's two-atom measure through (delta, eps), eps its shared mass
    there (None for eps 0 or 1, a point mass, or a far atom past the doubles).
    The far atom's mass 1 - eps = 1 / (1 + var / d^2) neither cancels nor overflows."""
    var, d = c.sigma2, delta - c.gamma1  # eps < 1 with var > 0: delta is off the mean
    if not (0.0 < eps < 1.0 and var > 0.0 and math.isfinite(r := c.gamma1 - var / d)):
        return None
    t = math.sqrt(var) / d
    return mm.DiscreteMeasure.from_atoms([(delta, eps), (r, 1.0 / (1.0 + t * t))])


def verify_witness(classes, n_moments: int, tol: float = mm.DEFAULT_TOL) -> WitnessReport:
    """Compute the bound, build its witness and check the certificate.

    A class its ``shared_mass`` map pins (a point mass, or a singular A(k) in the
    bound's machine-epsilon frame) has one measure, the map's atoms: its witness.
    With two moments a class with 0 < eps < 1 gets its two atoms at the bound's own
    eps. Other epsilons are backed off by ``DEFAULT_BACKOFF`` (n >= 4: by at least 100
    ``tol``, up to CONSTRUCTION_MARGIN) for ``build_witness``: at an unattained supremum
    the residual is no measure, at an attained one its variance can round below 0.
    The report records the worst moment mismatch (order j relative to max(|g_j|, s^j),
    s the problem's largest root mean square), the exact discrete Bayes error, and
    whether it covers the bound (error >= value - 1e-6 with mismatch <= 1e-9).
    """
    classes = list(classes)
    bound = lower_bound(classes, n_moments, tol=tol)
    target = [c.moment_sequence(n_moments) for c in classes]
    atoms = mm.shared_mass(target, tol).atoms if n_moments > 1 else ()
    # each class's pinned atoms: the map's columns are NaN past a class's last atom
    pinned = [[(x[i, 0], w[i, 0]) for x, w in atoms if w[i, 0] > 0.0] for i in range(len(target))]
    measures = [(pin and mm.DiscreteMeasure.from_atoms(pin))
                or (n_moments == 2 and _two_atoms(c, bound.delta_star, e))
                or build_witness([c], bound.delta_star, [_backed_off(e, n_moments, tol)],
                                 n_moments=n_moments, tol=tol)[0]
                for c, e, pin in zip(classes, bound.epsilons, pinned)]
    s = max(math.sqrt(seq[2]) if n_moments > 1 else abs(seq[1]) for seq in target) or 1.0
    scale = [math.prod([s] * j) for j in range(n_moments + 1)]  # exact under 2^k rescaling
    got = np.array([mm.moments_of(m, n_moments) for m in measures])
    # np.max keeps the NaN of a moment past the double range
    mismatch = float(np.max(np.abs(got - target) / np.maximum(scale, np.abs(target))))
    error = discrete_bayes_error(measures, [c.prior for c in classes])
    certified = mismatch <= 1e-9 and error >= bound.value - 1e-6
    return WitnessReport(tuple(measures), mismatch, float(error),
                         bound, certified)
