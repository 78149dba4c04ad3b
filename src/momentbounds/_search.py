"""One-dimensional search helpers: a coarse grid scan refined by batched
bracket passes, and real polynomial roots for many rows at once."""

from __future__ import annotations

import numpy as np

_INVPHI = (5.0 ** 0.5 - 1.0) / 2.0
_MAX_GOLDEN_ITER = 200

#: points of the coarse scan.
GRID_POINTS = 10_001
_STEPS = np.arange(GRID_POINTS, dtype=float)

#: points per refinement pass; each pass narrows the bracket (n - 1) / 2 times.
PASS_POINTS = 33

#: a guard only: after a 10,001-point scan a dozen passes reach double
#: resolution, but a bracket closing in on 0 can keep shrinking into subnormals.
_MAX_PASSES = 100


# unused by the package; the bench wraps it by name until its probes move into the package
def golden_max(f, lo: float, hi: float, width: float = 1e-10):
    """Golden-section maximization of a scalar function on [lo, hi]: shrinks
    the bracket below ``width`` and returns (argmax, value), a local maximum
    inside [lo, hi] where f is not unimodal."""
    a, b = float(lo), float(hi)
    if b - a > width:
        c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(_MAX_GOLDEN_ITER):
            if b - a <= width:
                break
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                fc = f(c)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def grid_golden_max(f_vec, lo: float, hi: float, extra):
    """Maximize a vectorized function on [lo, hi]; returns (argmax, value).

    ``f_vec`` must accept a 1-D ndarray and return values of the same shape.
    The interval is scanned on ``GRID_POINTS`` equispaced points together with the
    ``extra`` candidates (clipped into the interval) in one call. The grid
    points on either side of the best point bracket it; each pass then scans
    the bracket on ``PASS_POINTS`` points in one call and keeps the
    neighbours of that pass's best point, until the bracket no longer shrinks
    in doubles. There is no absolute width, so the search commutes with
    scaling the interval by a power of two. The best point seen is returned.
    """
    lo, hi = float(lo), float(hi)
    if hi < lo:
        raise ValueError("empty search interval")
    grid = _linspace(lo, hi, GRID_POINTS)
    xs = np.concatenate([grid, [min(max(e, lo), hi) for e in extra]])
    vals = np.asarray(f_vec(xs), dtype=float)
    i = int(vals.argmax())
    x, best = xs[i], vals[i]
    a = grid[max(int(np.searchsorted(grid, x)) - 1, 0)]
    b = grid[min(int(np.searchsorted(grid, x, "right")), GRID_POINTS - 1)]
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


def _linspace(a: float, b: float, num: int) -> np.ndarray:
    """``np.linspace(a, b, num <= GRID_POINTS)`` in its arithmetic, without its overhead."""
    steps, step = _STEPS[:num], (b - a) / (num - 1)
    xs = steps * step if step else steps / (num - 1) * (b - a)  # a step underflowing to 0
    xs += a
    xs[-1] = b
    return xs


def _columns(*values) -> list[np.ndarray]:
    """The values (floats or columns) as (rows, 1) columns of one length."""
    cols = [np.asarray(v, dtype=float).reshape(-1, 1) for v in values]
    rows = max(len(c) for c in cols)
    return [c if len(c) == rows else c.repeat(rows, axis=0) for c in cols]


def _real_roots(coef: np.ndarray) -> np.ndarray:
    """Real parts of the roots of each row's polynomial, NaN-padded.

    Row by row these are ``numpy.roots``: leading zeros are dropped, each
    zero at the low end is a root at 0 (listed last), and the rest are the
    eigenvalues of the companion matrix (Edelman & Murakami, *Math. Comp.*
    1995); a row of zeros has none. Rows of one degree share one eigvals call.
    """
    rows, size = coef.shape
    out = np.full((rows, size - 1), np.nan)
    nonzero = coef != 0.0
    low, high = nonzero.argmax(1), size - 1 - nonzero[:, ::-1].argmax(1)
    deg = np.where(nonzero.any(1), high - low, -1)
    for d in sorted(set(deg.tolist()) - {-1, 0}):  # not np.unique: it maps ~1 MB
        r = (deg == d).nonzero()[0]
        p = coef[r[:, None], high[r, None] - np.arange(d + 1)]  # highest first
        companion = np.zeros((len(r), d * d))
        companion[:, d::d + 1] = 1.0  # the subdiagonal
        companion[:, :d] = -p[:, 1:] / p[:, :1]
        out[r, :d] = np.linalg.eigvals(companion.reshape(-1, d, d)).real
    if low.any():  # zero roots, after the eigenvalues
        col = np.arange(size - 1) - deg[:, None]
        out[(deg[:, None] >= 0) & (col >= 0) & (col < low[:, None])] = 0.0
    return out
