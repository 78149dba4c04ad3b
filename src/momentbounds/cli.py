"""Command-line front end: feasibility checks, bound reports, sweeps, witnesses.

Problem files are JSON of the form

    {"classes": [{"prior": 0.5, "moments": [0.0, 1.0]},
                 {"prior": 0.5, "moments": [2.0, 5.0]}]}

where each moments list starts at the first raw moment (a total mass of 1 is
implied). The number of moments used is inferred from the shortest list.
Exit codes: 0 success, 1 domain infeasibility or failed verification,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import moments as mm
from .errors import InfeasibleSequenceError
from .gaussian import GaussianPair, _bayes_error, gaussian_pair_bayes_error
from .lowerbound import ClassSpec, _checked_mass, _lower_from, _two_moment_mass, _two_moment_rows
from .lowerbound import lower_bound  # noqa: F401 (bench/tracing.py wraps it by this name)
from .upperbound import _upper_rows
from .witness import verify_witness


def _cell(value) -> str:
    """One CSV cell of a report value: lists joined by ';', None empty."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ";".join(f"{v:.12g}" for v in value)
    return f"{value:.12g}"


def _json_number(x):
    return float(x) if x is not None and math.isfinite(x) else None


def _parse_number_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")
    return values


def _parse_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected FROM:TO:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FROM:TO:STEP, got {text!r}")
    if step <= 0.0 or stop < start:
        raise argparse.ArgumentTypeError("range requires STEP > 0 and TO >= FROM")
    span = (stop - start) / step + 1e-9
    if not all(map(math.isfinite, (start, stop, step, span))):
        raise argparse.ArgumentTypeError(f"range and point count must be finite, got {text!r}")
    return [start + i * step for i in range(int(span) + 1)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process (its defaults are shared)."""
    parser = argparse.ArgumentParser(
        prog="momentbounds",
        description="Bounds on the worst-case Bayes error given class priors and raw moments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_feas = sub.add_parser("feasibility",
                            help="check whether a moment list belongs to some measure")
    p_feas.add_argument("--moments", required=True, type=_parse_number_list,
                        metavar="G0,G1,...", help="full moment list starting at the mass g0")
    p_feas.add_argument("--tol", type=float, default=mm.DEFAULT_TOL,
                        help="scale-relative numerical tolerance (default 1e-9)")
    p_feas.set_defaults(func=cmd_feasibility)

    p_bound = sub.add_parser("bound", help="lower/upper bound report for a problem file")
    p_bound.add_argument("problem", help="path to a JSON problem file")
    fmt = p_bound.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, dest="as_json",
                     help="emit the report as JSON (default)")
    fmt.add_argument("--csv", action="store_false", dest="as_json",
                     help="emit the report as a one-row CSV")
    p_bound.add_argument("--tol", type=float, default=mm.DEFAULT_TOL)
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep",
                             help="CSV sweep over the second class mean, one row per grid point")
    p_sweep.add_argument("--mu2", type=_parse_range, default=_parse_range("0:25:0.1"),
                         metavar="FROM:TO:STEP", help="second-class mean grid (default 0:25:0.1)")
    p_sweep.add_argument("--sigma1sq", type=float, default=1.0,
                         help="first-class variance (mean is fixed at 0; default 1)")
    p_sweep.add_argument("--sigma2sq", type=_parse_number_list, default=[1.0, 5.0],
                         metavar="V1[,V2...]", help="second-class variances (default 1,5)")
    p_sweep.add_argument("--priors", type=_parse_number_list, default=[0.5, 0.5],
                         metavar="P1,P2", help="class priors (default 0.5,0.5)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_wit = sub.add_parser("witness",
                           help="build and verify witness distributions for a problem file")
    p_wit.add_argument("problem", help="path to a JSON problem file")
    p_wit.add_argument("--out", default=None, help="write the witness JSON here (default stdout)")
    p_wit.add_argument("--tol", type=float, default=mm.DEFAULT_TOL)
    p_wit.set_defaults(func=cmd_witness)

    return parser


def _load_problem(path: str) -> tuple[list[ClassSpec], int]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "classes" not in data:
        raise ValueError("problem file must be an object with a 'classes' list")
    raw = data["classes"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise ValueError("need at least two classes")
    classes = []
    for entry in raw:
        moments = entry["moments"]
        if not isinstance(moments, list) or not moments:
            raise ValueError("each class needs a non-empty moments list")
        classes.append(ClassSpec.from_moments(float(entry["prior"]),
                                              [float(v) for v in moments]))
    n_moments = min(c.n_moments for c in classes)
    return classes, n_moments


def cmd_feasibility(args) -> int:
    verdict = mm.is_feasible(args.moments, tol=args.tol)
    payload = {"feasible": verdict.feasible, "reason": verdict.reason.value,
               "rank_A": verdict.rank_A, "rank_gamma": verdict.rank_gamma}
    print(json.dumps(payload))
    return 0 if verdict.feasible else 1


def _bound_report(classes: list[ClassSpec], n_moments: int, tol: float) -> dict:
    """``lower_bound``, ``upper_bound`` and the Gaussian baseline of a problem,
    with one shared-mass map for both bounds, as ``cmd_sweep`` builds it."""
    mass = _checked_mass(classes, n_moments, tol)
    res = _lower_from(classes, n_moments, mass)
    report = {
        "lower": res.value,
        "lower_attained": res.attained,
        "delta_star": res.delta_star,
        "epsilons": [float(e) for e in res.epsilons],
        "upper": None,
        "s_star": None,
        "gaussian": None,
        "trivial": (len(classes) - 1) / len(classes),  # the ceiling with no moments at all
    }
    if len(classes) == 2 and n_moments >= 2:
        # the map's means and variances are the two-moment map's
        columns = (x.reshape(2, 1, 1) for x in (mass.mean, mass.var))
        value, s_star, _ = _upper_rows(classes[0], classes[1], mm._two_moment_map(*columns))
        report["upper"] = float(value[0, 0])
        report["s_star"] = _json_number(float(s_star[0, 0]))
        if all(c.sigma2 > 0.0 for c in classes):
            pair = GaussianPair(mu1=classes[0].gamma1, mu2=classes[1].gamma1,
                                sigma1sq=classes[0].sigma2, sigma2sq=classes[1].sigma2,
                                p1=classes[0].prior, p2=classes[1].prior)
            report["gaussian"] = gaussian_pair_bayes_error(pair)
    _check_report(report)
    return report


def _check_report(report: dict) -> None:
    slack = 1e-9
    if not 0.0 <= report["lower"] <= 1.0:
        raise AssertionError("lower bound out of range")
    if report["upper"] is not None:
        if report["upper"] > 1.0 + slack or report["lower"] > report["upper"] + slack:
            raise AssertionError("bound ordering violated")
        if report["gaussian"] is not None and report["gaussian"] > report["upper"] + slack:
            raise AssertionError("Gaussian baseline exceeds the upper bound")


def cmd_bound(args) -> int:
    classes, n_moments = _load_problem(args.problem)
    report = _bound_report(classes, n_moments, args.tol)
    if args.as_json:
        print(json.dumps(report))
    else:
        print(",".join(report))
        print(",".join(map(_cell, report.values())))
    return 0


def cmd_sweep(args) -> int:
    """All (sigma2sq, mu2) rows in one batched pass; a refused row prints none."""
    priors = args.priors
    if len(priors) != 2 or abs(priors[0] + priors[1] - 1.0) > 1e-12:
        raise ValueError("sweep needs exactly two priors summing to 1")
    if args.sigma1sq <= 0.0 or any(v <= 0.0 for v in args.sigma2sq):
        raise ValueError("sweep variances must be positive")
    s2sq = np.repeat(args.sigma2sq, len(args.mu2)).reshape(-1, 1)
    mu2 = np.tile(args.mu2, len(args.sigma2sq)).reshape(-1, 1)
    c1 = ClassSpec(priors[0], 0.0, args.sigma1sq)
    with np.errstate(over="ignore"):  # refused below as a non-finite moment
        c2 = ClassSpec(priors[1], mu2, mu2 * mu2 + s2sq)
    mass = _two_moment_mass(c1, c2)
    low, up = _two_moment_rows(c1, c2, mass), _upper_rows(c1, c2, mass)[0]
    lines = ["mu2,sigma2sq,lower,upper,gaussian"]
    for m, v, lo, hi in zip(*(a.ravel().tolist() for a in (mu2, s2sq, low, up))):
        gauss = _bayes_error(0.0, m, args.sigma1sq, v, *priors)
        lines.append(f"{m:.12g},{v:.12g},{lo:.12g},{hi:.12g},{gauss:.12g}")
    print("\n".join(lines))
    return 0


def cmd_witness(args) -> int:
    classes, n_moments = _load_problem(args.problem)
    report = verify_witness(classes, n_moments, tol=args.tol)
    payload = {
        "measures": [[{"x": x, "mass": w} for x, w in m.atoms] for m in report.measures],
        "report": {
            "moment_mismatch": _json_number(report.moment_mismatch),
            "bayes_error": report.bayes_error,
            "lower": report.bound.value,
            "delta_star": report.bound.delta_star,
            "epsilons": [float(e) for e in report.bound.epsilons],
            "certified": report.certified,
        },
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.certified else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSequenceError as exc:
        print(json.dumps({"error": "INFEASIBLE", "detail": str(exc)}), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
