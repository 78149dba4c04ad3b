"""End-to-end tests of the command-line interface."""

import json
import math
from pathlib import Path

import pytest

from momentbounds import cli, normal_cdf


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


def test_bound_infeasible_class_exits_one(tmp_path, capsys):
    path = write_problem(tmp_path, [
        {"prior": 0.5, "moments": [2, 1]},
        {"prior": 0.5, "moments": [0, 1]},
    ])
    code, _, err = run(["bound", path], capsys)
    assert code == 1
    assert "INFEASIBLE" in err


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
