"""Truncated-moment machinery on the real line.

A moment sequence is a plain list ``[g0, g1, ..., gn]`` of raw moments of a
positive (sub-probability) measure; ``g0`` is the total mass and may be less
than 1. This module decides whether such a list belongs to *some* measure
(the classical Hankel-matrix conditions), finds the largest Dirac mass that
can be carved out at a location while keeping the remainder feasible, shifts
sequences under translation of the underlying measure, and reconstructs small
atomic measures from their moments.

Verdicts and recoveries work on the sequence divided by its mass, centred
on its mean and scaled by its standard deviation. With ``k = floor(n / 2)``
and ``A(r)`` the (r+1) x (r+1) Hankel matrix of that standardized sequence, a
positive definite ``A(k)`` means feasible for either parity of ``n``.
Otherwise a singular ``A(r)`` pins an r-atom measure, the r-point Gauss rule
of the first 2r moments, and the sequence is feasible exactly when those
atoms reproduce it up to ``gn`` (Curto & Fialkow, *Houston J. Math.* 1991).
Singular means zero within ``tol`` times the rounding the shift to the mean
carries, so a verdict depends on the input's own rounding and not on where
the input sits on the line.

The largest Dirac mass a probability sequence allows at a location ``delta``
is the Christoffel function ``1 / (v^T A(k)^-1 v)``, ``v = (1, delta, ..,
delta^k)``, a supremum not attained for odd ``n`` (Akhiezer, *The Classical
Moment Problem*, 1965; Karlin & Studden, *Tchebycheff Systems*, 1966).
``shared_mass`` returns it as a vectorized map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSequenceError

#: relative tolerance of the feasibility verdicts: a standardized moment or
#: Cholesky pivot counts as zero within tol times the rounding the shift to the
#: mean carries into it.
DEFAULT_TOL = 1e-9


class FeasibilityReason(str, Enum):
    OK = "OK"
    NOT_PSD = "NOT_PSD"
    RANK_MISMATCH = "RANK_MISMATCH"
    RANGE_FAILURE = "RANGE_FAILURE"
    BAD_ZEROTH = "BAD_ZEROTH"


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
        """Build a measure, merging atoms closer than ``merge_tol`` (relative).

        Atoms within ``merge_tol`` times the largest |location| of a group's
        first location join the group, which is replaced by a single atom at its
        mass-weighted mean location (kept within the group's span, which
        rounding could leave); zero-mass entries are dropped.
        """
        pairs = sorted((float(x), float(w)) for x, w in pairs if w != 0.0)
        merge_tol *= max((abs(x) for x, _ in pairs), default=0.0)
        merged: list[list[float]] = []
        for x, w in pairs:
            if merged and x - anchor <= merge_tol:
                loc, mass = merged[-1]
                tot = mass + w
                merged[-1] = [min(max((loc * mass + x * w) / tot, anchor), x), tot]
            else:
                anchor = x
                merged.append([x, w])
        return cls(tuple((x, w) for x, w in merged))

    @property
    def total_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))


def _as_sequence(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a moment sequence is a non-empty 1-D list of reals")
    if not all(map(math.isfinite, arr.tolist())):  # faster than numpy on a few entries
        raise ValueError("moments must be finite")
    return arr


#: the smallest normal double: below it rounding is absolute.
_TINY = float(np.finfo(float).tiny)
#: the tolerance of the shared-mass frames: the doubles' own rounding.
_EPS = float(np.finfo(float).eps)


class _Frame(NamedTuple):
    """A sequence divided by its mass, centred on its mean, scaled by its sd
    (0 when the variance is within its rounding or its n-th power underflows;
    ``t`` is then only centred). ``rank`` atoms pin the sequence, 0 if it is
    infeasible; ``inv_chol`` inverts the Cholesky factor of A(rank - 1), for
    an infeasible frame of A(r - 1) at the failed pivot r. ``pivot`` is the
    last pivot examined and ``band`` tol times the rounding it carries.
    ``map_band`` is that pivot's band at machine epsilon in the frame of
    g0 .. g2k, when that frame is this one with ``t`` cut to 2k + 1 entries: a
    positive definite A(k) whose every pivot lies outside both bands. It is None
    where the two tolerances would branch differently, and that frame needs its
    own pass."""

    mean: float
    sd: float
    t: np.ndarray
    inv_chol: np.ndarray
    rank: int
    pivot: float
    band: float
    map_band: float | None


def _frame_sd(c: np.ndarray, b: np.ndarray, size: int) -> float:
    """sqrt |c2| beyond its band b2; 0 within it, or where t would overflow."""
    sd = math.sqrt(abs(c[2])) if size > 2 and abs(c[2]) > b[2] else 0.0
    return sd if sd >= _TINY ** (1.0 / max(size - 1, 1)) else 0.0


def _standardize(g: np.ndarray, tol: float) -> _Frame:
    """The standardized frame of a sequence of positive mass, and its rank.

    Row j of ``shift`` holds the raw-power coefficients of ((x - mean) / sd)^j,
    so t = shift h for h = g / g0, and the moment of a polynomial p of the
    standardized variable carries the rounding tol |raw coefficients of p| .
    |h|: for z^j that is tol sum_i C(j, i) |mean|^(j-i) |h_i| / sd^j. Pivot r
    of the Cholesky factorization of A(k) is the moment of pi_r^2 (pi_r the
    monic orthogonal polynomial). When it is 0 within its rounding, A(r) may
    be singular: if the r-point Gauss rule of t0 .. t(2r-1) reproduces t
    beyond t(2r), those atoms pin the sequence. Otherwise a positive pivot
    continues and a non-positive one makes the sequence infeasible. A
    positive last pivot is never taken for singular: a positive definite
    A(k) is feasible, and its (k+1)-point rule exact.

    Tol enters only as a factor: of the sd cut, of each pivot's band and of
    the Gauss test. So the same pass also judges g0 .. g2k at machine epsilon,
    the frame ``shared_mass`` reads (``map_band``), wherever the two take the
    same branch. For k >= 2 an odd n's first 2k + 1 entries are formed on g0 ..
    g2k alone (BLAS may round a longer product differently), so that frame is
    this one's by construction; n = 3 keeps one product, and no map.
    """
    size = g.size
    k = (size - 1) // 2
    m = 2 * k + 1
    j = np.arange(size)
    with np.errstate(over="ignore", invalid="ignore"):  # a t past the doubles is refused below
        h = g / g[0]
        mean = float(h[1]) if size > 1 else 0.0
        shift = _shift_matrix(size, mean)
        ah = np.abs(h) + _TINY  # below the normal range rounding is absolute
        c, unit = shift @ h, np.abs(shift) @ ah
        if k >= 2 and m < size:  # the map's frame c[:m], from products on g0 .. g2k alone
            c[:m], unit[:m] = shift[:m, :m] @ h[:m], np.abs(shift[:m, :m]) @ ah[:m]
        b = tol * unit
        sd = _frame_sd(c, b, size)
        shared = (k >= 2 or m == size) and _frame_sd(c[:m], _EPS * unit[:m], m) == sd
        scale = (sd or 1.0) ** j  # sd^j past the doubles: t_j = 0, and |t_j| < 1 there
        shift /= scale[:, None]
        t, err = c / scale, b / scale
    if sd:
        t[2] = math.copysign(1.0, c[2])
    if not np.isfinite(t[:m]).all():  # feasible ones overflow only near 1e308: NOT_PSD
        return _Frame(mean, sd, t, np.eye(1), 0, -math.inf, 0.0, None)
    inv = np.eye(k + 1)  # t0 = 1
    ortho = np.ones(k + 1)  # pi_r, monic, in its first r + 1 entries
    pivot, band, map_band = math.inf, 0.0, 0.0 if shared else None
    for r in range(1, k + 1):
        row = inv[:r, :r] @ t[r:2 * r]
        pivot = t[2 * r] - row @ row
        ortho[:r] = -row @ inv[:r, :r]
        square = np.convolve(ortho[:r + 1], ortho[:r + 1])
        coef = np.abs(square @ shift[:2 * r + 1])
        band = (tol * coef) @ ah
        if map_band is not None:
            map_band = (_EPS * coef[:m]) @ ah[:m]
            if -map_band <= pivot <= (0.0 if r == k else map_band):
                map_band = None  # the map's frame runs a Gauss test of its own
        if -band <= pivot <= (0.0 if r == k else band):
            x, w = _gauss(t, inv[:r, :r])
            powers = x[:, None] ** j[2 * r + 1:]
            if np.all(np.abs(w @ powers - t[2 * r + 1:])
                      <= err[2 * r + 1:] + tol * (w @ np.abs(powers))):
                return _Frame(mean, sd, t, inv[:r, :r], r, pivot, band, None)
        if pivot <= 0.0:
            return _Frame(mean, sd, t, inv[:r, :r], 0, pivot, band, None)
        inv[r, :r + 1] = ortho[:r + 1] / math.sqrt(pivot)
    return _Frame(mean, sd, t, inv, k + 1, pivot, band, map_band)


def _gauss(t: np.ndarray, inv_chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the r-point Gauss rule of t0 .. t(2r-1).

    With L the Cholesky factor of A(r - 1) (``inv_chol`` is L^-1), the nodes
    are the eigenvalues of the Jacobi matrix L^-1 B L^-T, B the Hankel matrix
    of t1 .. t(2r-1), and a weight is t0 times the squared first component of
    its eigenvector (Golub & Welsch, *Math. Comp.* 1969), renormalized to sum
    to t0. Without t(2r-1) the rule is closed with a zero last recurrence
    coefficient, the one entry of the Jacobi matrix t(2r-1) enters: t(2r-1) = 0
    would send a node to about 1e7 next to a nearly singular A(r - 1).
    """
    r = inv_chol.shape[0]
    idx = np.arange(r)
    jac = inv_chol @ np.append(t, 0.0)[idx[:, None] + idx + 1] @ inv_chol.T
    if t.size < 2 * r:
        jac[-1, -1] = 0.0
    x, vec = np.linalg.eigh(jac)
    w = vec[0] ** 2
    return x, t[0] * w / w.sum()


def sequence_rank(seq, tol: float = DEFAULT_TOL) -> int:
    """Number of atoms a sequence pins: ``is_feasible(seq, tol).rank_gamma``."""
    return is_feasible(seq, tol).rank_gamma


def is_feasible(seq, tol: float = DEFAULT_TOL) -> FeasibilityVerdict:
    """Decide whether [g0..gn] are the moments of some positive measure.

    Feasible when the standardized A(k) is positive definite, or when the
    atoms of a singular A(r) reproduce the sequence up to gn. A feasible
    verdict reports the number of atoms pinning the sequence (k + 1 for a
    positive definite A(k)) as both ranks, and guarantees an atomic solution
    exists; an infeasible one the rank of A(r) at the pivot r where the
    factorization stopped (r + 1 when that pivot is negative, r when it is 0)
    and that pivot (k + 1 for NOT_PSD). A sequence without mass has no frame
    and reports the rank of its raw A(k).
    """
    return _judge(_as_sequence(seq), tol)[0]


def _judge(g: np.ndarray, tol: float) -> tuple[FeasibilityVerdict, _Frame | None]:
    """``is_feasible`` of a checked sequence, and for k >= 2 the frame it read."""
    n = g.size - 1
    k = n // 2
    if g[0] <= 0.0:
        reason = FeasibilityReason.BAD_ZEROTH if g[0] < 0.0 else FeasibilityReason.RANK_MISMATCH
        idx = np.arange(k + 1)
        return FeasibilityVerdict(False, reason,
                                  int(np.linalg.matrix_rank(g[idx[:, None] + idx])), k + 1), None
    if k == 1:  # the variance, then a point mass's third moment, on floats (numpy
        # costs about four times as much per call), in units 2^e that keep 4 |mean|^3
        # finite: e from g1's and g0's exponents (g1 / g0 can overflow), 0 for g1 = 0
        g0, g1 = g[:2].tolist()
        e = max(math.frexp(g1)[1] - math.frexp(g0)[1] - 299, 0) if g1 else 0
        mean, h2, *h3 = [math.ldexp(v, -j * e) / g0 for j, v in enumerate(g.tolist()) if j]
        var = h2 - mean * mean
        if var < -tol * (3.0 * mean * mean + abs(h2)):
            return FeasibilityVerdict(False, FeasibilityReason.NOT_PSD, 2, 2), None
        if var > 0.0:
            return FeasibilityVerdict(True, FeasibilityReason.OK, 2, 2), None
        point = n == 2 or abs(h3[0] - 3.0 * mean * h2 + 2.0 * mean ** 3) <= tol * (
            abs(h3[0]) + 3.0 * abs(mean * h2) + 4.0 * abs(mean) ** 3)
        return FeasibilityVerdict(point, FeasibilityReason.OK if point
                                  else FeasibilityReason.RANGE_FAILURE, 1, 1), None
    fr = _standardize(g, tol)
    if fr.rank:
        return FeasibilityVerdict(True, FeasibilityReason.OK, fr.rank, fr.rank), fr
    r = fr.inv_chol.shape[0]
    if fr.pivot < -fr.band:
        return FeasibilityVerdict(False, FeasibilityReason.NOT_PSD, r + 1, k + 1), fr
    reason = FeasibilityReason.RANGE_FAILURE if n % 2 else FeasibilityReason.RANK_MISMATCH
    return FeasibilityVerdict(False, reason, r, r), fr


@dataclass(frozen=True, eq=False)
class SharedMass:
    """delta -> largest Dirac mass each of many probability sequences allows
    at delta. ``mean`` and ``var`` are columns with a leading class axis:
    (G, 1) for G classes, (G, rows, 1) for many problems, 0-d for one class.
    With k = 1 the mass is sigma^2 / (sigma^2 + (delta - mean)^2), in units
    of sigma where the squared gap overflows; for k >= 2, 1 / |L^-1 v|^2 with
    ``inv_chol`` the L^-1 of each class's A(k) in the frame
    t = (delta - mean) / sigma, v = (1, t, .., t^k). A pinned class (zero
    variance or singular A(k)) has one measure, of at most k atoms: its mass
    is an atom's weight there, 0 elsewhere. ``atoms`` holds (location,
    weight) columns, the j-th atom of every class, NaN where a class has none.
    """

    mean: np.ndarray
    var: np.ndarray
    inv_chol: np.ndarray | None = None
    atoms: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __call__(self, deltas, scale=1.0) -> np.ndarray:
        """``scale`` times each class's mass at each delta, in one buffer."""
        d = np.asarray(deltas, dtype=float)
        pinned = ~np.isnan(self.atoms[0][0]) if self.atoms else False  # rows with atoms
        if self.inv_chol is None:
            try:
                with np.errstate(over="raise"):
                    out = np.subtract(d, self.mean)[...]  # [...]: an array, also 0-d
                    np.square(out, out=out)  # a numpy scalar's ** 2 can round off x * x
                    out += self.var
                np.divide(scale * self.var, out, out=out, where=~pinned if self.atoms else True)
            except FloatingPointError:
                with np.errstate(all="ignore"):
                    gap = d - self.mean
                    t2 = np.square(gap / np.sqrt(self.var))
                    out = np.where(np.isinf(self.var + np.square(gap)), scale / (1.0 + t2),
                                   scale * self.var / (self.var + np.square(gap)))
        else:
            out = np.where(pinned, 0.0, d - self.mean)  # pinned rows are replaced below
            out /= np.sqrt(np.where(pinned, 1.0, self.var))
            with np.errstate(over="ignore", invalid="ignore"):  # t^k past the doubles: inf * 0
                v = np.vander(out.ravel(), self.inv_chol.shape[-1], increasing=True)
                w = v.reshape(out.shape + v.shape[-1:]) @ np.swapaxes(self.inv_chol, -1, -2)
                np.divide(scale, np.einsum("...j,...j->...", w, w), out=out)
            np.copyto(out, 0.0, where=np.isinf(v[:, -1]).reshape(out.shape))  # the map's limit
        if self.atoms:
            np.copyto(out, 0.0, where=pinned)
            for x, w in self.atoms:
                np.copyto(out, scale * w, where=d == x)
        return out


def shared_mass(seq, tol: float = DEFAULT_TOL) -> SharedMass:
    """Largest Dirac mass at each location compatible with probability sequences.

    ``seq`` is one sequence [1, g1, ..., gn], n >= 2, or an array of them
    whose leading axes the map keeps; only g0 .. g2k enter, k = n // 2. The
    k = 1 maps of all of them are built at once. For k >= 2 each is
    standardized once, in a frame judged against the doubles' own rounding
    (so the map stays put when the class moves along the line), and its last
    pivot is lowered by that rounding. A(k) is also singular when the pivot,
    the moment of pi_k^2, is at most ``tol`` times its absolute moment.
    """
    arr = np.asarray(seq, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("moments must be finite")
    return _shared_mass(arr, tol, None)


def _judged_mass(seq, tol: float) -> tuple[list[FeasibilityVerdict], SharedMass | None]:
    """The ``is_feasible`` verdicts of the sequences, in order up to the first
    infeasible one, and when all are feasible their ``shared_mass`` map, both
    from one frame per sequence (``_Frame.map_band``). ``seq`` is one sequence
    or an array of them."""
    arr = np.asarray(seq, dtype=float)
    verdicts, frames = [], []
    for g in arr.reshape(-1, arr.shape[-1]):
        verdict, fr = _judge(_as_sequence(g), tol)
        verdicts.append(verdict)
        if not verdict.feasible:
            return verdicts, None
        frames.append(fr)
    return verdicts, _shared_mass(arr, tol, frames)


def _two_moment_map(mean: np.ndarray, var: np.ndarray) -> SharedMass:
    """The two-moment map of columns of means and variances: a point mass's
    atom is its mean."""
    point = var == 0.0  # a point mass shares mass only at its mean
    atoms = (np.where(point, mean, np.nan), np.where(point, 1.0, np.nan))
    return SharedMass(mean, var, atoms=(atoms,) if point.any() else ())


def _shared_mass(arr: np.ndarray, tol: float, frames) -> SharedMass:
    """``shared_mass`` of checked sequences. ``frames``, when given, holds each
    sequence's frame from its verdict (``_judge``)."""
    if arr.ndim == 0 or arr.shape[-1] < 3:
        raise ValueError("need at least the first and second moments")
    shape = arr.shape[:-1] + (1,) if arr.ndim > 1 else ()
    mean = arr[..., 1].reshape(shape).copy()
    with np.errstate(over="ignore"):  # g1^2 beyond g2: a point mass, as in floats
        var = np.maximum(arr[..., 2].reshape(shape) - mean * mean, 0.0)
    if arr.shape[-1] < 5:  # k = 1
        return _two_moment_map(mean, var)
    rows = arr.reshape(-1, arr.shape[-1])
    inv, atoms = zip(*(_sequence_mass(g, p, tol, fr) for g, p, fr in
                       zip(rows, (var == 0.0).ravel().tolist(), frames or [None] * len(rows))))
    pad = [a + [(math.nan, math.nan)] * (max(map(len, atoms)) - len(a)) for a in atoms]
    return SharedMass(mean, var, np.array(inv).reshape(shape[:-1] + inv[0].shape),
                      tuple(tuple(np.array(col).reshape(shape) for col in zip(*row))
                            for row in zip(*pad)))


def _sequence_mass(g: np.ndarray, point: bool, tol: float, fr: _Frame | None):
    """L^-1 (I if pinned) and atoms of one sequence with k >= 2, from the frame
    of g0 .. g2k at machine epsilon: ``fr``'s where its ``map_band`` says it holds
    that frame, else a pass of its own."""
    k = (g.size - 1) // 2
    if point:
        return np.eye(k + 1), [(float(g[1]), 1.0)]
    if fr is None or fr.map_band is None:
        fr = _standardize(g[:2 * k + 1], _EPS)
        band = fr.band
    else:
        band = fr.map_band
    t = fr.t[:2 * k + 1]
    q = fr.inv_chol[-1]  # pi_k / sqrt(pivot) when A(k) is positive definite
    if fr.sd and fr.pivot > band and tol * np.abs(np.convolve(q, q)) @ np.abs(t) < 1.0:
        inv = fr.inv_chol.copy()
        inv[-1] *= math.sqrt(fr.pivot / (fr.pivot - band))
        return inv, []
    # singular, or infeasible beyond the rounding where the verdict's tol
    # forgives it: share mass at the Gauss atoms only, at most k
    r = min(fr.inv_chol.shape[0], k)
    x, w = _gauss(t, fr.inv_chol[:r, :r])
    return np.eye(k + 1), [(fr.mean + (fr.sd or 1.0) * float(a), float(m)) for a, m in zip(x, w)]


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
    if abs(g[0] - 1.0) > 1e-12:
        raise ValueError("shared-mass query expects a probability sequence (g0 = 1)")
    (full,), mass = _judged_mass(g, tol)
    if not full.feasible:
        raise InfeasibleSequenceError(
            f"moment sequence is itself infeasible ({full.reason.value})")
    return float(mass(0.0)), bool(mass.var == 0.0 or (g.size == 3 and g[1] != 0.0))


def _shift_matrix(size: int, delta: float) -> np.ndarray:
    """Row m: the coefficients C(m, j) (-delta)^(m-j) of (x - delta)^m."""
    shift = np.eye(size)
    for m in range(1, size):
        shift[m, 1:] = shift[m - 1, :-1]
        shift[m] -= delta * shift[m - 1]
    return shift


def shift_moments(seq, delta: float) -> list[float]:
    """Moments of the measure translated so an atom at x moves to x - delta.

    Implements the binomial transform
    ``g~_m = sum_j (-1)^(m-j) C(m, j) delta^(m-j) g_j``; the zeroth entry is
    unchanged and shifting by ``-delta`` inverts the map.
    """
    g = _as_sequence(seq)
    return (_shift_matrix(g.size, float(delta)) @ g).tolist()


def recover_atoms(seq, tol: float = DEFAULT_TOL) -> DiscreteMeasure:
    """An atomic measure with the moments of a feasible sequence, any n.

    A sequence pinned by a singular standardized A(r) (see ``is_feasible``)
    has one representing measure, its r atoms. Otherwise the result is the
    (k+1)-point Gauss rule of the standardized sequence, for even n closed
    with a zero last recurrence coefficient; with two moments that is
    mean +/- sd, half the mass each. Raises InfeasibleSequenceError for an
    infeasible sequence.
    """
    g = _as_sequence(seq)
    fr = _standardize(g, tol) if g[0] > 0.0 else None
    if fr is None or not fr.rank:
        raise InfeasibleSequenceError("cannot recover atoms from an infeasible sequence "
                                      f"({is_feasible(g, tol).reason.value})")
    x, w = _gauss(fr.t, fr.inv_chol)
    return DiscreteMeasure.from_atoms(zip(fr.mean + (fr.sd or 1.0) * x, g[0] * w))


def moments_of(measure: DiscreteMeasure, n: int) -> list[float]:
    """Raw moments g_0 .. g_n of a discrete measure, inf or NaN past the doubles;
    powers are products, exact under a 2^k rescaling (libm's pow is not)."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    return [float(sum(w * math.prod([x] * j) for x, w in measure.atoms)) for j in range(n + 1)]
