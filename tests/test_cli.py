"""End-to-end tests of the command-line interface."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentbounds import (
    ClassSpec,
    DiscreteMeasure,
    GaussianPair,
    InfeasibleSequenceError,
    cli,
    gaussian_pair_bayes_error,
    lower_bound,
    upper_bound,
)
from momentbounds import lowerbound, upperbound
from momentbounds import moments as mm
from momentbounds.gaussian import normal_cdf
from momentbounds.lowerbound import _two_moment_mass, _two_moment_rows
from momentbounds.upperbound import _upper_rows


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, classes, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"classes": classes}))
    return str(path)


def test_feasibility_feasible(capsys):
    code, out, _ = run(["feasibility", "--moments", "1,0,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["reason"] == "OK"


def test_feasibility_infeasible(capsys):
    code, out, _ = run(["feasibility", "--moments", "1,2,1"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload == {"feasible": False, "reason": "NOT_PSD", "rank_A": 2, "rank_gamma": 2}


@pytest.mark.parametrize("moments, reason", [("1,0,0,0,1", "RANK_MISMATCH"),
                                             ("1,0,0,0,1,0", "RANGE_FAILURE")], ids=["n4", "n5"])
def test_feasibility_zero_pivot_verdicts(moments, reason, capsys):
    # zero variance pins one atom at the mean, which cannot carry the fourth moment
    code, out, _ = run(["feasibility", "--moments", moments], capsys)
    assert code == 1
    assert json.loads(out) == {"feasible": False, "reason": reason, "rank_A": 1, "rank_gamma": 1}


def test_feasibility_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["feasibility", "--moments", "1,x"])
    assert exc.value.code == 2


def test_bound_report_json(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [0, 1]},
        {"prior": 0.5, "moments": [2, 5]},
    ])
    code, out, _ = run(["bound", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == pytest.approx(0.25, abs=1e-9)
    assert report["upper"] == pytest.approx(0.5, abs=1e-9)
    assert report["gaussian"] == pytest.approx(normal_cdf(-1.0), abs=1e-9)
    assert report["trivial"] == pytest.approx(0.5)
    assert report["delta_star"] == pytest.approx(1.0, abs=1e-9)


def test_bound_report_second_spot(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [0, 1]},
        {"prior": 0.5, "moments": [4, 17]},
    ])
    code, out, _ = run(["bound", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == pytest.approx(0.1, abs=1e-9)
    assert report["upper"] == pytest.approx(0.2, abs=1e-9)


def test_bound_first_moments_only(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.2, "moments": [0]},
        {"prior": 0.3, "moments": [1]},
        {"prior": 0.5, "moments": [5]},
    ])
    code, out, _ = run(["bound", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lower"] == pytest.approx(0.5)
    assert report["upper"] is None
    assert report["gaussian"] is None
    assert report["trivial"] == pytest.approx(2 / 3)


def test_bound_csv_mode(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [0, 1]},
        {"prior": 0.5, "moments": [2, 5]},
    ])
    code, out, _ = run(["bound", path, "--csv"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("lower,")
    assert row.split(",")[0] == "0.25"
    assert out == ("lower,lower_attained,delta_star,epsilons,upper,s_star,gaussian,trivial\n"
                   "0.25,true,1,0.5;0.5,0.5,1,0.158655253931,0.5\n")
    # three classes: no upper bound, threshold or Gaussian baseline
    path = write_problem(tmp_path, [
        {"prior": 0.2, "moments": [0, 1]},
        {"prior": 0.5, "moments": [1, 3]},
        {"prior": 0.3, "moments": [3, 9.5]},
    ], name="three.json")
    code, out, _ = run(["bound", path, "--csv"], capsys)
    assert code == 0
    assert out == ("lower,lower_attained,delta_star,epsilons,upper,s_star,gaussian,trivial\n"
                   "0.24826523071,true,2.58147782067,"
                   "0.130479694764;0.444338583515;0.740564305858,,,,0.666666666667\n")


def test_bound_infeasible_class_exits_one(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [2, 1]},
        {"prior": 0.5, "moments": [0, 1]},
    ])
    code, _, err = run(["bound", path], capsys)
    assert code == 1
    assert "INFEASIBLE" in err


@pytest.mark.parametrize("argv", [["feasibility", "--moments", "1,1e200,1e300"],
                                  ["feasibility", "--moments", "1,1e200,1e300,0"],
                                  ["bound", [1e200, 1e300]],
                                  ["feasibility", "--moments", "1e-300,1e10,1e30"]],
                         ids=["n2", "n3", "bound", "tiny_mass"])
def test_overflowing_square_of_the_mean_is_not_psd(argv, tmp_path, capsys):
    # g2 < g1^2 where g1^2 (and g1^3), or even g1 / g0, overflow: the verdict
    # stays NOT_PSD
    if argv[0] == "bound":
        argv = ["bound", write_problem(tmp_path, [{"prior": 0.5, "moments": argv[1]},
                                                  {"prior": 0.5, "moments": [0, 1]}])]
    code, out, err = run(argv, capsys)
    assert code == 1
    if argv[0] == "bound":
        assert out == ""
        assert json.loads(err) == {"error": "INFEASIBLE",
                                   "detail": "class 0 moment sequence is infeasible (NOT_PSD)"}
    else:
        assert json.loads(out) == {"feasible": False, "reason": "NOT_PSD",
                                   "rank_A": 2, "rank_gamma": 2}


@pytest.mark.parametrize("moments", ["1e-200,0,1e-200", "1e-200,0,1e-200,1e7"],
                         ids=["n2", "n3"])
def test_tiny_mass_with_zero_mean_keeps_its_variance(moments, capsys):
    # g1 = 0 keeps the units 1: the variance g2 / g0 = 1 must not underflow
    # to a point mass (whose third moment 1e7 would then be refused)
    code, out, _ = run(["feasibility", "--moments", moments], capsys)
    assert code == 0
    assert json.loads(out) == {"feasible": True, "reason": "OK", "rank_A": 2, "rank_gamma": 2}


@pytest.mark.parametrize("command", ["bound", "witness"])
@pytest.mark.parametrize("entry,message", [
    ({"prior": 0.5, "moments": [math.nan]}, "moments must be finite"),
    ({"prior": 0.5, "moments": [0.0, math.inf]}, "moments must be finite"),
    ({"prior": 0.5, "moments": [-math.inf, 1.0]}, "moments must be finite"),
    ({"prior": math.nan, "moments": [0.0]}, "prior must lie in (0, 1), got nan"),
    ({"prior": math.inf, "moments": [0.0]}, "prior must lie in (0, 1), got inf")])
def test_non_finite_problem_file_exits_two(command, entry, message, tmp_path, capsys):
    # JSON admits NaN and Infinity; a problem file with them is refused
    path = write_problem(tmp_path, [entry, {"prior": 0.5, "moments": [1.0, 2.0]}])
    code, out, err = run([command, path], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


FAR_PAIR = [{"prior": 0.5, "moments": [0.0, 1e-300]},
            {"prior": 0.5, "moments": [1e8, 1.0000000000000002e16]}]


def test_bound_far_pair_keeps_the_gaussian_below_the_upper_bound(tmp_path, capsys):
    # 4ac of the Gaussian crossing quadratic overflows for these classes
    code, out, err = run(["bound", write_problem(tmp_path, FAR_PAIR)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["gaussian"] == 0.0 <= report["upper"]


def test_bound_far_pair_keeps_the_lower_bound_below_the_upper_bound(tmp_path, capsys):
    # p1 eps1 is about 0.5 and p2 eps2 1e-16: 0.5 + 1e-16 - 0.5 would read
    # 1.1e-16, above the upper bound of 1e-16, so the check allows no slack
    code, out, err = run(["bound", write_problem(tmp_path, FAR_PAIR)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert 0.0 < report["lower"] <= report["upper"]
    c1, c2 = (ClassSpec.from_moments(c["prior"], c["moments"]) for c in FAR_PAIR)
    # the sweep's lower column
    assert _two_moment_rows(c1, c2, _two_moment_mass(c1, c2))[0, 0] == report["lower"]


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that json.dumps would write."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


ULP_APART = ["--sigma1sq", "1.9999999999999998", "--sigma2sq", "1.9999999999999996"]
# classes whose sd^2 (sd^4 of the residual), t^k of the shared-mass map, an
# atom's x^3, or the shared atom's delta^3 leaves the double range
SD_POWER = [{"prior": 0.3, "moments": [-1, 1e200, -1]},
            {"prior": 0.7, "moments": [2, 1e200, 5]}]
MAP_POWER = [{"prior": 0.4496981791654368, "moments": [-1.3888327661121157e-177,
                                                       1.9999999999999998, -1.0,
                                                       2.023476290570616e+213]},
             {"prior": 0.5503018208345631, "moments": [0.0, 1.9999999999999998, 0.0,
                                                       1.4829738489714503e+85]}]
ATOM_POWER = [{"prior": 0.6424429715292911, "moments": [1.0, 1.4604043691193453,
                                                        2.328914827139254e+124]},
              {"prior": 0.3575570284707089, "moments": [-0.8346680482350202,
                                                        5.290670115237687e+191,
                                                        5.571968370310112e+29]}]
RESIDUAL_POWER = [{"prior": 0.37990050544666343, "moments": [-0.9751662173118625, 1e+300,
                                                             -5.181313037967997e-06]},
                  {"prior": 0.42409341131356293, "moments": [0.5598948594660005,
                                                             2.0558989633632125e+295,
                                                             1.188647876123908e-143]},
                  {"prior": 0.19600608323977364, "moments": [1.0, 6.848648441917102e+300,
                                                             -4.785337121766439]}]


@pytest.mark.parametrize("argv, code, stream", [
    (["sweep", "--mu2", "1:1:1", *ULP_APART], 0, "out"),
    (["bound", [{"prior": 0.5, "moments": [0.0, 1.9999999999999998]},
                {"prior": 0.5, "moments": [1.0, 2.9999999999999996]}]], 0, "out"),
    (["feasibility", "--moments", "1,0,1e160,0,1"], 1, "out"),
    (["witness", SD_POWER], 1, "out"),
    (["bound", MAP_POWER], 0, "out"),
    (["witness", ATOM_POWER], 1, "out"),
    (["witness", RESIDUAL_POWER], 1, "err"),
], ids=["sweep_ulp_apart", "bound_ulp_apart", "feasibility_sd_power", "witness_sd_power",
        "bound_map_power", "witness_atom_power", "witness_residual_power"])
def test_ulp_apart_and_far_inputs_answer(argv, code, stream, tmp_path, capsys):
    # variances an ulp apart make the Gaussian quadratic's leading coefficient
    # 0; the others take powers past the double range. Each answers with its
    # exit code and JSON (the sweep: CSV), and main raises nothing
    if not isinstance(argv[1], str):
        argv = [argv[0], write_problem(tmp_path, argv[1])]
    got, out, err = run(argv, capsys)
    assert got == code
    if stream == "err":
        assert out == ""
        assert strict_json(err)["error"] == "INFEASIBLE"
    elif argv[0] == "sweep":
        assert out.splitlines()[1:] == ["1,2,0.444444444444,0.5,0.361836804916"]
    else:
        payload = strict_json(out)
        if argv[0] == "feasibility":
            assert payload["reason"] == "NOT_PSD"
        elif argv[0] == "witness":
            assert payload["report"]["certified"] is False
        else:
            assert payload["lower"] <= payload["upper"]


TANGENT_PAIR = [{"prior": 0.19276355112477117, "moments": [-6191.5, 5038334672.25]},
                {"prior": 0.8072364488752288, "moments": [169.47, 28720.08090000039]}]


@pytest.mark.parametrize("argv, gaussian", [
    (["sweep", "--mu2", "1000:1000:1", "--sigma1sq", "1e6", "--sigma2sq", "1e-8",
      "--priors", "0.3,0.7"], 8.819757e-08),
    (["bound", TANGENT_PAIR], 2.991566e-10),
    (["sweep", "--mu2", "1e154:1e154:1", "--sigma1sq", "1", "--sigma2sq",
      "1.0000000000000002"], 0.0),
], ids=["sweep_tangency", "bound_tangency", "sweep_far_root"])
def test_gaussian_baseline_of_a_narrow_or_far_class(argv, gaussian, tmp_path, capsys):
    # a narrow class makes b^2 - 4ac of the crossing quadratic cancel far below
    # its terms, yet two crossings remain; a leading coefficient that underflows
    # in the units of the other two puts the far crossing past the doubles.
    # The nonzero values are 60-digit mpmath integrals between exact crossings
    if argv[0] == "bound":
        argv = [argv[0], write_problem(tmp_path, argv[1])]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if argv[0] == "bound":
        report = json.loads(out)
        upper, got = report["upper"], report["gaussian"]
    else:
        upper, got = map(float, out.splitlines()[1].split(",")[3:])
    assert got <= upper
    assert got == pytest.approx(gaussian, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu2", "0:0:1", "--sigma1sq", "1e300", "--sigma2sq", "1e-30"],
    ["bound", [{"prior": 0.5, "moments": [0.0, 1e300]},
               {"prior": 0.5, "moments": [1e-10, 1.0000000001e-20]}]],
    ["bound", [{"prior": 0.5, "moments": [0.0, 1e-320]}, {"prior": 0.5, "moments": [0.0, 1e10]}]],
    ["bound", [{"prior": 0.9, "moments": [5e-324, 5e-324]},
               {"prior": 0.1, "moments": [-4.0, 18.0]}]],
    ["bound", [{"prior": 0.5, "moments": [0.0, 1e300]}, {"prior": 0.5, "moments": [0.0, 1e-30]}]],
    ["sweep", "--mu2", "0:0:1", "--sigma1sq", "1e300", "--sigma2sq", "1"],
], ids=["sweep_log_ratio", "bound_log_ratio", "bound_subnormal_variance",
        "bound_subnormal_mean", "bound_equal_means", "sweep_equal_means"])
def test_variances_past_the_doubles_answer(argv, tmp_path, capsys):
    # a variance ratio that underflows to 0, a 0.5 / sigma^2 that overflows, and
    # upper-bound coefficients of equal means squared from a sd of 1e150: each
    # answers without a warning. One class is narrower than the other by 1e20 or
    # more where both have mass, so the Bayes error of the Gaussians is below 1e-12
    if argv[0] == "bound":
        argv = [argv[0], write_problem(tmp_path, argv[1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if argv[0] == "bound":
        report = strict_json(out)
        upper, got = report["upper"], report["gaussian"]
    else:
        upper, got = map(float, out.splitlines()[1].split(",")[3:])
    assert got == pytest.approx(0.0, abs=1e-12)
    assert math.isfinite(got) and got <= upper


def test_bound_reports_the_trivial_ceiling(tmp_path, capsys):
    # (G - 1) / G for any G >= 2; one class is refused (test_usage_errors_exit_two)
    for G, ceiling in ((2, 0.5), (4, 0.75), (10, 0.9)):
        classes = [{"prior": 1.0 / G, "moments": [float(i)]} for i in range(G)]
        code, out, _ = run(["bound", write_problem(tmp_path, classes)], capsys)
        assert code == 0
        assert json.loads(out)["trivial"] == pytest.approx(ceiling)


@pytest.mark.parametrize("argv, message", [
    (["bound", [{"prior": 0.5, "moments": [0, 1]}] * 2],
     "problem file must be an object with a 'classes' list"),
    (["bound", {"classes": [{"prior": 0.5, "moments": [0, 1]}]}], "need at least two classes"),
    (["witness", {"classes": [{"prior": 0.5, "moments": []}, {"prior": 0.5, "moments": [0, 1]}]}],
     "each class needs a non-empty moments list"),
    (["sweep", "--priors", "0.3,0.6"], "sweep needs exactly two priors summing to 1"),
    (["sweep", "--sigma2sq", "0"], "sweep variances must be positive"),
    (["sweep", "--mu2", "1:2"], "expected FROM:TO:STEP, got '1:2'"),
    (["sweep", "--mu2=a:1:1"], "expected FROM:TO:STEP, got 'a:1:1'"),
], ids=["list_file", "one_class", "no_moments", "priors", "variance", "two_parts", "not_a_number"])
def test_usage_errors_exit_two(argv, message, tmp_path, capsys):
    if not isinstance(argv[-1], str):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(argv[-1]))
        argv = [argv[0], str(path)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses the option value itself
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def test_bound_missing_file_exits_two(capsys):
    code, _, err = run(["bound", "/nonexistent/problem.json"], capsys)
    assert code == 2
    assert err


def test_bound_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(["bound", str(path)], capsys)
    assert code == 2


def test_sweep_rows_and_bit_stability(capsys):
    argv = ["sweep", "--mu2", "0:2:1", "--sigma1sq", "1", "--sigma2sq", "1",
            "--priors", "0.5,0.5"]
    code, out1, _ = run(argv, capsys)
    assert code == 0
    code, out2, _ = run(argv, capsys)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "mu2,sigma2sq,lower,upper,gaussian"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert [float(v) for v in first] == pytest.approx([0.0, 1.0, 0.5, 0.5, 0.5])
    last = lines[3].split(",")
    assert float(last[0]) == 2.0
    assert float(last[2]) == pytest.approx(0.25, abs=1e-9)
    assert float(last[3]) == pytest.approx(0.5, abs=1e-9)
    assert float(last[4]) == pytest.approx(normal_cdf(-1.0), abs=1e-9)


def test_sweep_default_covers_both_panels(capsys):
    code, out, _ = run(["sweep", "--mu2", "0:1:0.5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    variances = {line.split(",")[1] for line in lines[1:]}
    assert variances == {"1", "5"}
    assert len(lines) == 1 + 2 * 3


SWEEP_SNAPSHOT = Path(__file__).resolve().parents[1] / "bench" / "snapshots" / "sweep_default.csv"


def test_sweep_default_matches_snapshot(capsys):
    # the default sweep is byte-stable: any digit that moves must be explained
    code, out, _ = run(["sweep"], capsys)
    assert code == 0
    assert out == SWEEP_SNAPSHOT.read_text(encoding="utf-8")


def test_witness_roundtrip(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [0, 1]},
        {"prior": 0.5, "moments": [2, 5]},
    ])
    out_path = tmp_path / "witness.json"
    code, _, _ = run(["witness", path, "--out", str(out_path)], capsys)
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["report"]["certified"] is True
    assert len(payload["measures"]) == 2
    for atoms in payload["measures"]:
        assert sum(a["mass"] for a in atoms) == pytest.approx(1.0, abs=1e-9)
        assert all(math.isfinite(a["x"]) for a in atoms)


# a looser verdict tolerance widens the n >= 4 back-off only up to the
# construction margin, inside the 1e-6 certification slack
@pytest.mark.parametrize("tol", ["1e-9", "1e-6"])
def test_witness_four_moments(tmp_path, capsys, tol):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [0, 1, 0, 3]},
        {"prior": 0.5, "moments": [2, 5, 14, 43]},
    ])
    code, out, _ = run(["witness", path, "--tol", tol], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["certified"] is True
    assert payload["report"]["lower"] == pytest.approx(0.25, abs=1e-12)
    for atoms, fourth in zip(payload["measures"], (3.0, 43.0)):
        masses = [a["mass"] for a in atoms]
        assert sum(masses) == pytest.approx(1.0, abs=1e-9)
        assert sum(w * a["x"] ** 4 for a, w in zip(atoms, masses)) == pytest.approx(
            fourth, rel=1e-9)


def test_sweep_parser_defaults_survive_reuse(capsys):
    # the parser is built once per process; a sweep with its own grid must
    # leave the shared defaults of the next default sweep untouched
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(["sweep", "--mu2", "0:1:1", "--sigma2sq", "2"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 2
    code, out, _ = run(["sweep"], capsys)
    assert code == 0
    assert out == SWEEP_SNAPSHOT.read_text(encoding="utf-8")


@pytest.mark.parametrize("spec", ["inf:1:1", "0:inf:1", "0:1:inf",
                                  "nan:1:1", "0:nan:1", "0:1:nan",
                                  "-inf:0:1", "-1e308:1e308:1"])
def test_sweep_range_rejects_non_finite(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", f"--mu2={spec}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--mu2" in err


def test_refused_sweep_prints_no_rows(capsys):
    # row 0 answers, row 1 squares mu2 past the double range: the whole grid
    # is checked before any row is printed
    code, out, err = run(["sweep", "--mu2", "0:1e160:1e159"], capsys)
    assert code == 2
    assert out == ""
    assert "moments must be finite" in err


def one_row_line(mu2, s1, s2, p1, p2):
    """A sweep row computed by the one-row public functions."""
    c1, c2 = ClassSpec(p1, 0.0, s1), ClassSpec(p2, mu2, mu2 * mu2 + s2)
    gauss = gaussian_pair_bayes_error(GaussianPair(mu1=0.0, mu2=mu2, sigma1sq=s1,
                                                   sigma2sq=s2, p1=p1, p2=p2))
    values = [mu2, s2, lower_bound([c1, c2], 2).value, upper_bound(c1, c2).value, gauss]
    return ",".join(format(v, ".12g") for v in values)


def assert_rows_match_one_row_calls(mu2s, s1, s2s, p1, p2):
    # the batched pass over the grid, bit for bit against one call per row
    s2, mu2 = (a.reshape(-1, 1) for a in np.meshgrid(s2s, mu2s, indexing="ij"))
    c1, c2 = ClassSpec(p1, 0.0, s1), ClassSpec(p2, mu2, mu2 * mu2 + s2)
    mass = _two_moment_mass(c1, c2)
    low = _two_moment_rows(c1, c2, mass)
    up, s_star, clipped = _upper_rows(c1, c2, mass)
    for i, (m, v) in enumerate(zip(mu2.ravel().tolist(), s2.ravel().tolist())):
        one = [ClassSpec(p1, 0.0, s1), ClassSpec(p2, m, m * m + v)]
        ub = upper_bound(*one)
        assert low[i, 0] == lower_bound(one, 2).value, (m, v)
        assert (up[i, 0], s_star[i, 0], clipped[i, 0]) == (ub.value, ub.s_star, ub.clipped), (m, v)


@settings(max_examples=60, deadline=None)
@given(mu2s=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
       log_s1=st.floats(-3.0, 3.0),
       log_s2s=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
       p1=st.floats(0.05, 0.95))
def test_sweep_rows_equal_one_row_calls(mu2s, log_s1, log_s2s, p1):
    assert_rows_match_one_row_calls(mu2s, 10.0 ** log_s1, [10.0 ** e for e in log_s2s],
                                    p1, 1.0 - p1)


@settings(max_examples=60, deadline=None)
@given(mu2s=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-150.0, 150.0)),
                     min_size=1, max_size=12),
       log_s1=st.floats(-300.0, 300.0),
       log_s2s=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=3),
       p1=st.floats(0.05, 0.95))
def test_sweep_rows_equal_one_row_calls_over_the_double_range(mu2s, log_s1, log_s2s, p1):
    # the batched rows skip lower_bound's feasibility check: every row the sweep
    # can build passes it (here mu2^2 + sigma2^2 <= 2e300 is always finite)
    mu2s = [sign * 10.0 ** e for sign, e in mu2s]
    s2s = [10.0 ** e for e in log_s2s]
    for m in mu2s:
        for v in s2s:
            assert mm.is_feasible([1.0, m, m * m + v]).feasible, (m, v)
    assert_rows_match_one_row_calls(mu2s, 10.0 ** log_s1, s2s, p1, 1.0 - p1)


@pytest.mark.parametrize("argv, grid", [
    # equal priors and variances at mu2 = 0: the crossing polynomial is all zeros
    (["--mu2", "0:0:1", "--sigma2sq", "1"], ([0.0], 1.0, [1.0], 0.5, 0.5)),
    # 1e16 + 1e-10 rounds to 1e16: class 2 is a point mass
    (["--mu2", "1e8:1e8:1", "--sigma2sq", "1e-10"], ([1e8], 1.0, [1e-10], 0.5, 0.5)),
    # negative mu2 puts class 2 left of class 1 (a leading '-' needs --mu2=)
    (["--mu2=-3:3:0.5", "--priors", "0.3,0.7"],
     ([-3.0 + 0.5 * i for i in range(13)], 1.0, [1.0, 5.0], 0.3, 0.7)),
    # 3 mu2^2 overflows: lower_bound's feasibility check, which the batched rows
    # skip, judges each row in units 2^e
    (["--mu2", "8e153:1e154:1e152", "--sigma2sq", "1"],
     ([8e153 + 1e152 * i for i in range(21)], 1.0, [1.0], 0.5, 0.5)),
    # point-mass rows next to a regular one: their shift polynomials, built
    # with the regular row's and then dropped, must not overflow
    (["--mu2", "0:2e8:1e8", "--sigma1sq", "1e-300", "--sigma2sq", "1e-10"],
     ([0.0, 1e8, 2e8], 1e-300, [1e-10], 0.5, 0.5)),
])
def test_sweep_edge_rows_equal_one_row_calls(argv, grid, capsys):
    code, out, _ = run(["sweep", *argv], capsys)
    assert code == 0
    mu2s, s1, s2s, p1, p2 = grid
    assert_rows_match_one_row_calls(mu2s, s1, s2s, p1, p2)
    expected = [one_row_line(m, s1, v, p1, p2) for v in s2s for m in mu2s]
    assert out.splitlines()[1:] == expected


def test_sweep_point_mass_row_value(capsys):
    code, out, _ = run(["sweep", "--mu2", "1e8:1e8:1", "--sigma2sq", "1e-10"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "100000000,1e-10,0,5e-17,0"


def test_sweep_solves_roots_per_degree_not_per_row(monkeypatch, capsys):
    # the default sweep's 502 rows share a handful of eigenvalue calls, one
    # per polynomial degree, not one or more per row; only the upper bound's
    # quintics reach them, as the lower bound's quadratics have a closed form
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    code, out, _ = run(["sweep"], capsys)
    assert code == 0
    assert out == SWEEP_SNAPSHOT.read_text(encoding="utf-8")
    assert 1 <= len(calls) <= 6, calls
    assert all(shape[1:] == (5, 5) for shape in calls), calls


def public_report(classes, n_moments, tol):
    """The ``bound`` report from ``lower_bound``, ``upper_bound`` and
    ``gaussian_pair_bayes_error``, each called on its own."""
    res = lower_bound(classes, n_moments, tol)
    report = {"lower": res.value, "lower_attained": res.attained, "delta_star": res.delta_star,
              "epsilons": list(res.epsilons), "upper": None, "s_star": None, "gaussian": None,
              "trivial": (len(classes) - 1) / len(classes)}
    if len(classes) == 2 and n_moments >= 2:
        ub = upper_bound(*classes)
        report["upper"] = ub.value
        report["s_star"] = ub.s_star if math.isfinite(ub.s_star) else None
        if all(c.sigma2 > 0.0 for c in classes):
            report["gaussian"] = gaussian_pair_bayes_error(GaussianPair(
                mu1=classes[0].gamma1, mu2=classes[1].gamma1, sigma1sq=classes[0].sigma2,
                sigma2sq=classes[1].sigma2, p1=classes[0].prior, p2=classes[1].prior))
    return report


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bound_report_is_the_public_path(n):
    # one shared-mass map serves both bounds in the report; the public
    # functions each build their own. Regular classes, point masses and
    # classes of at most k atoms (singular for n >= 4), at offsets and scales
    rng = np.random.default_rng(600 + n)
    kinds = {"regular": (n // 2 + 1, 7), "point": (1, 1), "singular": (max(n // 2, 1), n // 2 + 1)}
    for _ in range(40):
        classes = []
        prior = float(rng.uniform(0.1, 0.9))
        for p in (prior, 1.0 - prior):
            lo, hi = kinds[rng.choice(list(kinds))]
            size = int(rng.integers(lo, hi + 1))
            spread = 10.0 ** rng.uniform(-2.0, 2.0) * rng.uniform(-1.0, 1.0, size)
            x = rng.uniform(-10.0, 10.0) + spread
            measure = DiscreteMeasure.from_atoms(zip(x, rng.dirichlet(np.ones(size))))
            classes.append(ClassSpec.from_moments(p, mm.moments_of(measure, n)[1:]))
        tol = float(rng.choice([1e-9, 1e-6]))
        try:
            expected = public_report(classes, n, tol)
        except InfeasibleSequenceError as exc:
            with pytest.raises(InfeasibleSequenceError, match=re.escape(str(exc))):
                cli._bound_report(classes, n, tol)
        else:
            assert cli._bound_report(classes, n, tol) == expected


def test_bound_standardizes_each_class_once(tmp_path, capsys, monkeypatch):
    # an n = 5 bound on two eight-atom classes: one frame per class gives its
    # verdict and its shared-mass map, and the upper bound reads that map
    passes = []
    standardize = mm._standardize
    monkeypatch.setattr(mm, "_standardize",
                        lambda g, tol: passes.append(g.size) or standardize(g, tol))
    for module in (cli, lowerbound, upperbound):
        monkeypatch.setattr(module, "_two_moment_mass", None)
    classes = []
    for prior, step, start in ((0.4, 1.0, 0.0), (0.6, 2.0, 3.0)):
        measure = DiscreteMeasure(tuple((start + step * i, w) for i, w in
                                        enumerate((0.1, 0.15, 0.1, 0.2, 0.1, 0.15, 0.1, 0.1))))
        classes.append({"prior": prior, "moments": mm.moments_of(measure, 5)[1:]})
    code, out, _ = run(["bound", write_problem(tmp_path, classes)], capsys)
    assert code == 0 and json.loads(out)["upper"] is not None
    assert passes == [6, 6]
