"""One-dimensional search helpers: a grid scan (on a span, with kinks) refined
by batched bracket passes, and real polynomial roots for many rows at once."""

from __future__ import annotations

import numpy as np

#: points of the coarse scan.
GRID_POINTS = 10_001
_STEPS = np.arange(GRID_POINTS, dtype=float)

#: points per refinement pass; each pass narrows the bracket (n - 1) / 2 times.
PASS_POINTS = 33

#: a guard only: after a scan of the 10,001-point grid (or a span of it) a dozen
#: passes reach double resolution; a bracket closing in on 0 can go subnormal.
_MAX_PASSES = 100


def golden_max(f, lo: float, hi: float):
    """``grid_golden_max`` of a scalar function on [lo, hi]; returns (argmax, value).
    Unused by the package: the bench wraps it by name until the package has probes."""
    return grid_golden_max(np.vectorize(f, otypes=[float]), lo, hi, extra=())


def grid_golden_max(f_vec, lo: float, hi: float, extra, span=None, kinks=(), stop=None):
    """Maximize a vectorized function on [lo, hi]; returns (argmax, value).

    ``f_vec`` must accept a 1-D ndarray and return values of the same shape.
    The interval is scanned on ``GRID_POINTS`` equispaced points (those in a
    ``span`` known to hold the maximizer, by default the interval, and one past
    each end) with the ``extra`` candidates and the ``kinks``, clipped into the
    span, in one call. A winning kink that ``stop``, if any, accepts, given its
    lead over the best other point and the grid step, is returned. Otherwise the
    grid points on either side of the best other point bracket it; each pass
    then scans the bracket on ``PASS_POINTS`` points in one call and keeps the
    neighbours of that pass's best point, until the bracket no longer shrinks
    in doubles. There is no absolute width, so the search commutes with
    scaling the interval by a power of two. The best point seen is returned.
    """
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ValueError("empty search interval")
    a, b = span or (lo, hi)
    step, j0, j1 = (hi - lo) / (GRID_POINTS - 1), 0, GRID_POINTS
    if span and step > 8.0 * np.spacing(max(-lo, hi)):
        # points rise, within 1.5 ulps of lo + i step: x's index is within 3 of (x - lo) / step
        j0, j1 = max(int((a - lo) / step) - 4, 0), min(int((b - lo) / step) + 6, GRID_POINTS)
    grid = _linspace(lo, hi, GRID_POINTS, j0, j1)
    i0, i1 = np.searchsorted(grid, (a, b)) + (-1, 2)  # one more past each end
    cands = np.fmin(np.fmax(np.concatenate([extra, kinks]), a), b)  # a NaN kink becomes a
    xs = np.concatenate([grid[max(i0, 0):i1], cands])
    vals = np.asarray(f_vec(xs), dtype=float)
    i, k = int(vals[:len(xs) - len(kinks)].argmax()), int(vals.argmax())
    x, best = xs[k], vals[k]
    if i != k and stop and stop(float(x), float(best - vals[i]), step):
        return float(x), float(best)
    a = grid[max(int(np.searchsorted(grid, xs[i])) - 1, 0)]
    b = grid[min(int(np.searchsorted(grid, xs[i], "right")), len(grid) - 1)]
    for _ in range(_MAX_PASSES):
        xs = _linspace(a, b, PASS_POINTS)
        vals = np.asarray(f_vec(xs), dtype=float)
        j = int(vals.argmax())
        if vals[j] > best:
            x, best = xs[j], vals[j]
        a_next, b_next = xs[max(j - 1, 0)], xs[min(j + 1, PASS_POINTS - 1)]
        if a_next == a and b_next == b:
            break
        a, b = a_next, b_next
    return float(x), float(best)


def _linspace(a: float, b: float, num: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """``np.linspace(a, b, num <= GRID_POINTS)[start:stop]``: its arithmetic, not its overhead."""
    steps, step = _STEPS[start:stop or num], (b - a) / (num - 1)
    xs = steps * step if step else steps / (num - 1) * (b - a)  # a step underflowing to 0
    xs += a
    if (stop or num) == num:
        xs[-1] = b
    return xs


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row's polynomial, NaN-padded.

    Row by row these are ``numpy.roots``: leading zeros are dropped, each
    zero at the low end is a root at 0 (listed last), degree 1 and 2 take the
    stable quadratic formula (``_quadratic_roots``), and
    higher degrees the eigenvalues of the companion matrix (Edelman & Murakami,
    *Math. Comp.* 1995), one eigvals call per degree; a row of zeros has none.
    """
    rows, size = coef.shape
    out = np.full((rows, size - 1), np.nan)
    nonzero = coef != 0.0
    low, high = nonzero.argmax(1), size - 1 - nonzero[:, ::-1].argmax(1)
    deg = np.where(nonzero.any(1), high - low, -1)
    for d in sorted(set(deg.tolist()) - {-1, 0}):  # not np.unique: it maps ~1 MB
        r = (deg == d).nonzero()[0]
        p = coef[r[:, None], high[r, None] - np.arange(d + 1)]  # highest first
        if d == 1:
            out[r, 0] = -p[:, 1] / p[:, 0]
        elif d == 2:
            out[r, :2] = _quadratic_roots(*p.T[..., None])
        else:
            companion = np.zeros((len(r), d * d))
            companion[:, d::d + 1] = 1.0  # the subdiagonal
            companion[:, :d] = -p[:, 1:] / p[:, :1]
            out[r, :d] = np.linalg.eigvals(companion.reshape(-1, d, d)).real
    if low.any():  # zero roots, after the others
        col = np.arange(size - 1) - deg[:, None]
        out[(deg[:, None] >= 0) & (col >= 0) & (col < low[:, None])] = 0.0
    return out


def _quadratic_roots(a, b, c) -> np.ndarray:
    """Real parts of the roots of columns a x^2 + b x + c by the stable formula, in two
    columns: a complex pair's twice; for a = 0 only the second, c / q; none for a = b = 0."""
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(np.where(real, disc, 0.0)), b))  # -b / 2 for a pair
    with np.errstate(divide="ignore", invalid="ignore"):
        first = q / a
        return np.concatenate([first, np.where(real, c / q, first)], axis=-1)
