"""Truncated-moment machinery on the real line.

A moment sequence is a plain list ``[g0, g1, ..., gn]`` of raw moments of a
positive (sub-probability) measure; ``g0`` is the total mass and may be less
than 1. This module decides whether such a list belongs to *some* measure
(the classical Hankel-matrix conditions), finds the largest Dirac mass that
can be carved out at a location while keeping the remainder feasible, shifts
sequences under translation of the underlying measure, and reconstructs small
atomic measures from their moments.

With ``k = floor(n / 2)`` and ``A(k)`` the (k+1) x (k+1) Hankel matrix of the
sequence, feasibility requires ``A(k)`` positive semidefinite together with a
parity-dependent condition: for odd ``n`` the trailing moment column must lie
in the range of ``A(k)``, for even ``n`` the sequence rank must equal the
matrix rank. All checks are numerical with scale-relative tolerances.

The largest Dirac mass a probability sequence allows at a location ``delta``
is the Christoffel function ``1 / (v^T A(k)^-1 v)`` with
``v = (1, delta, ..., delta^k)``; for odd ``n`` it is a supremum that is not
attained (Akhiezer, *The Classical Moment Problem*, 1965; Karlin & Studden,
*Tchebycheff Systems*, 1966). ``shared_mass`` returns it as a vectorized map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleSequenceError, SingularRecoveryError, UnsupportedRankError

#: scale-relative tolerance used by the feasibility verdicts: eigenvalues are
#: accepted down to -tol*(1+||A||), numerical ranks count singular values above
#: tol*largest, and range membership allows a residual of tol*(1+||v||).
DEFAULT_TOL = 1e-9


class FeasibilityReason(str, Enum):
    OK = "OK"
    NOT_PSD = "NOT_PSD"
    RANK_MISMATCH = "RANK_MISMATCH"
    RANGE_FAILURE = "RANGE_FAILURE"
    BAD_ZEROTH = "BAD_ZEROTH"


@dataclass(frozen=True, eq=False)
class HankelSystem:
    """Hankel matrix A(k) of a sequence, plus the extra column for odd n."""

    k: int
    matrix: np.ndarray
    extra: np.ndarray | None = None


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    reason: FeasibilityReason
    rank_A: int
    rank_gamma: int


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite atomic measure: a tuple of (location, mass) pairs.

    Atoms are kept sorted by location; masses are strictly positive and
    locations pairwise distinct. The total mass may be below 1 (residual
    sub-measures) but never more than 1 + 1e-9.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        srt = tuple(sorted((float(x), float(w)) for x, w in self.atoms))
        object.__setattr__(self, "atoms", srt)
        total = 0.0
        prev = None
        for x, w in srt:
            if not (math.isfinite(x) and math.isfinite(w)):
                raise ValueError("atoms must be finite")
            if w <= 0.0:
                raise ValueError("atom masses must be positive")
            if prev is not None and x == prev:
                raise ValueError("atom locations must be pairwise distinct")
            prev = x
            total += w
        if total > 1.0 + 1e-9:
            raise ValueError(f"total mass {total} exceeds 1")

    @classmethod
    def from_atoms(cls, pairs, merge_tol: float = 0.0) -> "DiscreteMeasure":
        """Build a measure, merging atoms closer than ``merge_tol`` (absolute).

        Merged atoms are replaced by a single atom at their mass-weighted
        mean location; zero-mass entries are dropped.
        """
        pairs = sorted((float(x), float(w)) for x, w in pairs if w != 0.0)
        merged: list[list[float]] = []
        for x, w in pairs:
            if merged and x - merged[-1][0] <= merge_tol:
                loc, mass = merged[-1]
                tot = mass + w
                merged[-1] = [(loc * mass + x * w) / tot, tot]
            else:
                merged.append([x, w])
        return cls(tuple((x, w) for x, w in merged))

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def translated(self, offset: float) -> "DiscreteMeasure":
        return DiscreteMeasure(tuple((x + offset, w) for x, w in self.atoms))


def _as_sequence(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a moment sequence is a non-empty 1-D list of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError("moments must be finite")
    return arr


def build_hankel(seq) -> HankelSystem:
    """Arrange [g0..gn] into the Hankel system A(k), k = floor(n/2).

    Entry (i, j) of the matrix is g_{i+j}; for odd n the column
    (g_{k+1}, ..., g_{2k+1}) is attached as ``extra``.
    """
    g = _as_sequence(seq)
    n = g.size - 1
    k = n // 2
    idx = np.arange(k + 1)
    matrix = g[idx[:, None] + idx[None, :]]
    extra = g[idx + k + 1] if n == 2 * k + 1 else None
    return HankelSystem(k=k, matrix=matrix, extra=extra)


def _numerical_rank(matrix: np.ndarray, tol: float) -> int:
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def sequence_rank(seq, tol: float = DEFAULT_TOL) -> int:
    """Rank of a moment sequence.

    Equals k+1 when A(k) is numerically invertible; otherwise the smallest
    r >= 1 whose column v_r lies in the span of its predecessors (tested by
    least-squares residual), falling back to k+1 when no column does.
    """
    hs = build_hankel(seq)
    a = hs.matrix
    if _numerical_rank(a, tol) == hs.k + 1:
        return hs.k + 1
    for r in range(1, hs.k + 1):
        prev = a[:, :r]
        v = a[:, r]
        coef, *_ = np.linalg.lstsq(prev, v, rcond=None)
        if np.linalg.norm(prev @ coef - v) <= tol * (1.0 + np.linalg.norm(v)):
            return r
    return hs.k + 1


def is_feasible(seq, tol: float = DEFAULT_TOL) -> FeasibilityVerdict:
    """Decide whether [g0..gn] are the moments of some positive measure.

    Returns a verdict carrying the failure reason and the two ranks used by
    the even-parity test. A feasible verdict guarantees an atomic solution
    exists.
    """
    g = _as_sequence(seq)
    hs = build_hankel(g)
    eigs = np.linalg.eigvalsh(hs.matrix)
    scale = float(np.max(np.abs(eigs)))
    sv = np.sort(np.abs(eigs))[::-1]
    rank_a = int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0
    rank_g = sequence_rank(g, tol)
    if g[0] < 0.0:
        return FeasibilityVerdict(False, FeasibilityReason.BAD_ZEROTH, rank_a, rank_g)
    if eigs[0] < -tol * (1.0 + scale):
        return FeasibilityVerdict(False, FeasibilityReason.NOT_PSD, rank_a, rank_g)
    if hs.extra is not None:
        x, *_ = np.linalg.lstsq(hs.matrix, hs.extra, rcond=None)
        resid = np.linalg.norm(hs.matrix @ x - hs.extra)
        if resid <= tol * (1.0 + np.linalg.norm(hs.extra)):
            return FeasibilityVerdict(True, FeasibilityReason.OK, rank_a, rank_g)
        return FeasibilityVerdict(False, FeasibilityReason.RANGE_FAILURE, rank_a, rank_g)
    if rank_g == rank_a:
        return FeasibilityVerdict(True, FeasibilityReason.OK, rank_a, rank_g)
    return FeasibilityVerdict(False, FeasibilityReason.RANK_MISMATCH, rank_a, rank_g)


@dataclass(frozen=True, eq=False)
class SharedMass:
    """The map delta -> largest Dirac mass a probability sequence allows at delta.

    With k = 1 (two or three moments) the value is
    sigma^2 / (sigma^2 + (delta - mean)^2).
    For k >= 2 it is the Christoffel function 1 / |L^-1 v|^2, where L is the
    Cholesky factor of A(k) in the frame t = (delta - mean) / sigma and
    v = (1, t, ..., t^k); ``inv_chol`` holds L^-1. A sequence whose A(k) is
    singular has a single representing measure with at most k atoms:
    ``atoms`` lists them, and the mass is an atom's weight at that atom and 0
    elsewhere.
    """

    mean: float
    var: float
    inv_chol: np.ndarray | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def __call__(self, deltas, scale: float = 1.0) -> np.ndarray:
        """``scale`` times the mass at each delta, same shape as ``deltas``."""
        d = np.asarray(deltas, dtype=float)
        if self.atoms:
            out = np.zeros(d.shape)
            for x, w in self.atoms:
                out = np.where(d == x, scale * w, out)
            return out
        if self.inv_chol is None:
            return scale * self.var / (self.var + (d - self.mean) ** 2)
        t = (d - self.mean) / math.sqrt(self.var)
        w = np.vander(t.ravel(), self.inv_chol.shape[0], increasing=True) @ self.inv_chol.T
        return (scale / np.einsum("ij,ij->i", w, w)).reshape(d.shape)


def shared_mass(seq, tol: float = DEFAULT_TOL) -> SharedMass:
    """Largest Dirac mass at each location compatible with a probability sequence.

    ``seq`` is [1, g1, ..., gn] with n >= 2; only g0 .. g2k enter, k = n // 2.
    The sequence is standardized by its own mean and standard deviation once,
    here, so each evaluation of the returned map costs one small triangular
    product. A(k) counts as singular when its smallest eigenvalue is at most
    ``tol`` times its largest; a point mass is the one-atom case.
    """
    g = _as_sequence(seq)
    k = (g.size - 1) // 2
    if k < 1:
        raise ValueError("need at least the first and second moments")
    mean = float(g[1])
    var = max(float(g[2]) - mean * mean, 0.0)
    if var == 0.0:
        return SharedMass(mean, 0.0, atoms=((mean, 1.0),))
    if k == 1:
        return SharedMass(mean, var)
    sd = math.sqrt(var)
    h = np.array(shift_moments(g[:2 * k + 1], mean)) / sd ** np.arange(2 * k + 1)
    a = build_hankel(h).matrix
    for r in range(2, k + 1):  # the standardized A(1) is the identity
        eigs = np.linalg.eigvalsh(a[:r + 1, :r + 1])
        if eigs[0] <= tol * eigs[-1]:
            break
    else:
        return SharedMass(mean, var, inv_chol=np.linalg.inv(np.linalg.cholesky(a)))
    # A(r) is singular, A(r-1) is not: the measure has r atoms, the roots of
    # the degree-r orthogonal polynomial
    coef = np.linalg.solve(a[:r, :r], -h[r:2 * r])
    t = np.sort(np.roots(np.concatenate(([1.0], coef[::-1]))).real)
    w = np.linalg.solve(np.vander(t, r, increasing=True).T, h[:r])
    return SharedMass(mean, var, atoms=tuple(
        (mean + sd * float(x), float(m)) for x, m in zip(t, w)))


def max_shared_mass(seq, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Largest Dirac mass at the origin compatible with a probability sequence.

    ``seq`` must start with g0 = 1 and be feasible. Returns ``shared_mass`` at
    0, the supremum ``eps`` such that [1-eps, g1, ..., gn] is still feasible,
    together with a flag telling whether the supremum itself is attained:
    with two moments it is unless g1 = 0 (the boundary sequence then fails the
    rank condition), with three or more it is only approachable. A point mass
    attains its value.
    """
    g = _as_sequence(seq)
    if g.size < 3:
        raise ValueError("need at least the first and second moments")
    if abs(g[0] - 1.0) > 1e-12:
        raise ValueError("shared-mass query expects a probability sequence (g0 = 1)")
    full = is_feasible(g, tol)
    if not full.feasible:
        raise InfeasibleSequenceError(
            f"moment sequence is itself infeasible ({full.reason.value})")
    mass = shared_mass(g, tol)
    return float(mass(0.0)), bool(mass.var == 0.0 or (g.size == 3 and g[1] != 0.0))


def shift_moments(seq, delta: float) -> list[float]:
    """Moments of the measure translated so an atom at x moves to x - delta.

    Implements the binomial transform
    ``g~_m = sum_j (-1)^(m-j) C(m, j) delta^(m-j) g_j``; the zeroth entry is
    unchanged and shifting by ``-delta`` inverts the map.
    """
    g = _as_sequence(seq)
    if delta == 0.0:
        return [float(v) for v in g]
    out = []
    for m in range(g.size):
        acc = 0.0
        for j in range(m + 1):
            acc += ((-1.0) ** (m - j)) * math.comb(m, j) * delta ** (m - j) * g[j]
        out.append(float(acc))
    return out


def recover_atoms(seq, tol: float = DEFAULT_TOL) -> DiscreteMeasure:
    """Reconstruct an atomic measure matching a feasible sequence, n <= 3.

    Rank-1 sequences give a single atom at g1/g0 with mass g0. Rank-2 with
    two moments is underdetermined and resolved by the canonical symmetric
    rule (atoms at mean +/- sd, half mass each); rank-2 with three moments is
    the exact two-atom Prony solve (recurrence coefficients from the 2x2
    Hankel system, atoms from the polynomial roots, masses from the 2x2
    Vandermonde system).
    """
    g = _as_sequence(seq)
    n = g.size - 1
    if n > 3:
        raise UnsupportedRankError(
            f"atom recovery supports rank <= 2 sequences of up to three moments, got n = {n}")
    verdict = is_feasible(g, tol)
    if not verdict.feasible:
        raise InfeasibleSequenceError(
            f"cannot recover atoms from an infeasible sequence ({verdict.reason.value})")
    g0 = float(g[0])
    if g0 == 0.0:
        return DiscreteMeasure(())
    rank = sequence_rank(g, tol)
    if rank <= 1:
        loc = float(g[1]) / g0 if n >= 1 else 0.0
        return DiscreteMeasure(((loc, g0),))
    if n == 2:
        mean = float(g[1]) / g0
        s2 = float(g[2]) / g0 - mean * mean
        s = math.sqrt(max(s2, 0.0))
        if s == 0.0:
            return DiscreteMeasure(((mean, g0),))
        return DiscreteMeasure(((mean - s, 0.5 * g0), (mean + s, 0.5 * g0)))
    # rank 2 with three moments: Prony
    a = np.array([[g[0], g[1]], [g[1], g[2]]], dtype=float)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= tol * sv[0]:
        raise SingularRecoveryError("Prony system is singular")
    c0, c1 = np.linalg.solve(a, -np.array([g[2], g[3]], dtype=float))
    disc = c1 * c1 - 4.0 * c0
    if disc < 0.0:
        if disc < -tol * max(1.0, c1 * c1 + abs(4.0 * c0)):
            raise SingularRecoveryError("Prony polynomial has complex roots")
        disc = 0.0
    r = math.sqrt(disc)
    if r == 0.0:
        raise SingularRecoveryError("Prony roots coincide")
    q = -0.5 * (c1 + math.copysign(r, c1)) if c1 != 0.0 else 0.5 * r
    x1, x2 = sorted((q, c0 / q)) if q != 0.0 else sorted((-0.5 * c1 - 0.5 * r, -0.5 * c1 + 0.5 * r))
    w2 = (float(g[1]) - x1 * g0) / (x2 - x1)
    w1 = g0 - w2
    atoms = [(x, w) for x, w in ((x1, w1), (x2, w2)) if w > 0.0]
    if not atoms:
        raise SingularRecoveryError("Prony masses are not positive")
    return DiscreteMeasure(tuple(atoms))


def moments_of(measure: DiscreteMeasure, n: int) -> list[float]:
    """Raw moments g_0 .. g_n of a discrete measure."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return [float(sum(w * x ** j for x, w in measure.atoms)) for j in range(n + 1)]
