"""The benchmark's own answer checks, independent of the package's code.

Every check returns (results accepted, results expected). An operation that
exited non-zero is a failure, not a wrong answer, and is never checked.
"""

from __future__ import annotations

import json
import math

#: slack on the bound orderings (lower <= upper, gaussian <= upper, ranges)
#: and on a sweep's Gaussian Bayes error.
ORDER_SLACK = 1e-9
#: largest relative moment mismatch a witness atom set may show.
MOMENT_SLACK = 1e-9
#: how far a witness's exact Bayes error may fall below the certified bound.
CERT_SLACK = 1e-6
#: atoms closer than this are one support point (the package's merge rule).
MERGE_TOL = 1e-12

SWEEP_HEADER = "mu2,sigma2sq,lower,upper,gaussian"


def bayes_error(measures, priors, merge_tol: float = MERGE_TOL) -> float:
    """Exact Bayes error 1 - sum_x max_i p_i w_i(x) of discrete class measures."""
    entries = sorted((float(x), i, float(w)) for i, m in enumerate(measures) for x, w in m)
    winning = []
    j = 0
    while j < len(entries):
        anchor = entries[j][0]
        mass = [0.0] * len(measures)
        while j < len(entries) and entries[j][0] - anchor <= merge_tol:
            _, i, w = entries[j]
            mass[i] += w
            j += 1
        winning.append(max(p * w for p, w in zip(priors, mass)))
    return max(1.0 - math.fsum(winning), 0.0)


def raw_moments(atoms, n: int) -> list[float]:
    return [math.fsum(w * x ** j for x, w in atoms) for j in range(n + 1)]


def _bound_ok(report: dict, G: int) -> bool:
    lower, upper, gauss = report["lower"], report["upper"], report["gaussian"]
    if not (isinstance(lower, float) and math.isfinite(lower)):
        return False
    if not -ORDER_SLACK <= lower <= (G - 1) / G + ORDER_SLACK:
        return False
    if len(report["epsilons"]) != G:
        return False
    if upper is not None:
        if lower > upper + ORDER_SLACK:
            return False
        if gauss is not None and gauss > upper + ORDER_SLACK:
            return False
    return True


def check_bound(problem, stdout: str) -> tuple[int, int]:
    """One bound report: orderings, ranges, and for two classes the upper
    bound against the exact Bayes error of the generating atoms (one
    moment-feasible pair, so the supremum the upper bound covers is at least
    that large)."""
    report = json.loads(stdout)
    G = len(problem.priors)
    ok = _bound_ok(report, G)
    if ok and G == 2 and report["upper"] is not None:
        ok = report["upper"] >= bayes_error(problem.atoms, problem.priors) - ORDER_SLACK
    return int(ok), 1


def check_witness(problem, stdout: str) -> tuple[int, int]:
    """One witness: each returned measure reproduces its class's moments and
    the witnesses' exact Bayes error covers the reported lower bound."""
    payload = json.loads(stdout)
    report = payload["report"]
    G = len(problem.priors)
    measures = [[(a["x"], a["mass"]) for a in m] for m in payload["measures"]]
    ok = len(measures) == G and _bound_ok(
        {"lower": report["lower"], "upper": None, "gaussian": None,
         "epsilons": report["epsilons"]}, G)
    if ok:
        n = problem.n_moments
        for atoms, target in zip(measures, problem.moments):
            got = raw_moments(atoms, n)
            want = [1.0] + target
            if any(abs(g - t) / max(1.0, abs(t)) > MOMENT_SLACK for g, t in zip(got, want)):
                ok = False
                break
    if ok:
        ok = bayes_error(measures, problem.priors) >= report["lower"] - CERT_SLACK
    return int(ok), 1


def mu2_grid(spec: str = "0:25:0.1") -> list[float]:
    """The sweep's --mu2 grid FROM:TO:STEP (the CLI default when absent):
    FROM + i * STEP for every i that stays within TO."""
    start, stop, step = (float(v) for v in spec.split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _normal_mass(left: float, right: float, mu: float, var: float) -> float:
    def cdf(x: float) -> float:
        if math.isinf(x):
            return 0.0 if x < 0.0 else 1.0
        return 0.5 * math.erfc((mu - x) / math.sqrt(2.0 * var))
    return cdf(right) - cdf(left)


def gaussian_pair_error(mu2: float, s1: float, s2: float, p1: float, p2: float) -> float:
    """Exact Bayes error of p1 N(0, s1) against p2 N(mu2, s2): the losing
    class's mass, summed over the intervals between the crossings of the two
    weighted densities."""
    # q(x) > 0 exactly where class 1's weighted density is the larger
    a = 0.5 / s2 - 0.5 / s1
    b = -mu2 / s2
    c = mu2 * mu2 / (2.0 * s2) + math.log(p1 / p2) + 0.5 * math.log(s2 / s1)
    if a == 0.0:
        roots = [] if b == 0.0 else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        roots = [] if disc <= 0.0 else sorted(
            ((-b - math.sqrt(disc)) / (2.0 * a), (-b + math.sqrt(disc)) / (2.0 * a)))
    edges = [-math.inf] + roots + [math.inf]
    error = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        if math.isinf(left):
            probe = 0.0 if math.isinf(right) else right - 1.0 - abs(right)
        else:
            probe = left + 1.0 + abs(left) if math.isinf(right) else 0.5 * (left + right)
        if (a * probe + b) * probe + c >= 0.0:
            error += p2 * _normal_mass(left, right, mu2, s2)
        else:
            error += p1 * _normal_mass(left, right, 0.0, s1)
    return error


def check_sweep(argv, stdout: str, snapshot: str | None = None) -> tuple[int, int]:
    """Rows of one sweep: the grid it was asked for, in order, each row with
    0 <= lower <= 1/2, lower <= upper <= 1, gaussian <= upper, and gaussian
    within ORDER_SLACK of gaussian_pair_error. With a snapshot every row must
    also match it byte for byte."""
    args = dict(zip(argv[1::2], argv[2::2]))
    s1 = float(args.get("--sigma1sq", "1"))
    s2 = [float(v) for v in args.get("--sigma2sq", "1,5").split(",")]
    p1, p2 = (float(v) for v in args.get("--priors", "0.5,0.5").split(","))
    grid = [(m, v) for v in s2 for m in mu2_grid(args.get("--mu2", "0:25:0.1"))]
    want_keys = [(format(m, ".12g"), format(v, ".12g")) for m, v in grid]
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return 0, max(len(lines) - 1, len(want_keys))
    rows = lines[1:]
    ref = snapshot.splitlines()[1:] if snapshot is not None else None
    good = 0
    for i, key in enumerate(want_keys):
        if i >= len(rows):
            break
        fields = rows[i].split(",")
        if len(fields) != 5 or tuple(fields[:2]) != key:
            continue
        if ref is not None and (i >= len(ref) or rows[i] != ref[i]):
            continue
        try:
            lower, upper, gauss = (float(f) for f in fields[2:])
        except ValueError:
            continue
        exact = gaussian_pair_error(grid[i][0], s1, grid[i][1], p1, p2)
        if (-ORDER_SLACK <= lower <= 0.5 + ORDER_SLACK and lower <= upper + ORDER_SLACK
                and gauss <= upper + ORDER_SLACK and upper <= 1.0 + ORDER_SLACK
                and abs(gauss - exact) <= ORDER_SLACK):
            good += 1
    return good, max(len(rows), len(want_keys))
