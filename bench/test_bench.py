"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import snapshot  # noqa: E402
from tracing import CREDITED, REPORTED, Tracer  # noqa: E402
from workloads import WORKLOADS, make_round, opening_ops  # noqa: E402

cli = run.load_cli(ROOT)
SNAPSHOTS = {"sweep_default.csv": snapshot.SWEEP.read_text("utf-8")}


def rounds(workload, seed, count=2):
    rng = np.random.default_rng(seed)
    return [(op.kind, op.argv, op.snapshot, op.problem.to_json() if op.problem else None)
            for _ in range(count) for op in make_round(workload, rng)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert rounds(workload, 5) == rounds(workload, 5)
    assert rounds(workload, 5) != rounds(workload, 6)


def test_problems_are_probability_measures_with_shared_support():
    for kind in ("low-order", "high-order"):
        for op in make_round(kind, np.random.default_rng(3)):
            prob = op.problem
            assert abs(sum(prob.priors) - 1.0) <= 1e-12
            for atoms in prob.atoms:
                assert abs(sum(w for _, w in atoms) - 1.0) <= 1e-12
                assert min(w for _, w in atoms) > 0.0
            if len(prob.priors) == 2:
                assert checks.bayes_error(prob.atoms, prob.priors) > 0.0


def module_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "momentbounds" or name.startswith("momentbounds.")}


def test_wrappers_cover_every_lookup_name_and_are_restored():
    lowerbound = sys.modules["momentbounds.lowerbound"]
    search = sys.modules["momentbounds._search"]
    before = module_namespaces()
    with Tracer():
        assert lowerbound.grid_golden_max is search.grid_golden_max
        assert lowerbound.grid_golden_max is not before["momentbounds._search"]["grid_golden_max"]
        assert cli.lower_bound is lowerbound.lower_bound
        assert cli.lower_bound is not before["momentbounds.cli"]["lower_bound"]
        for module, func in REPORTED + CREDITED:
            original = before[f"momentbounds.{module}"][func]
            for name, namespace in before.items():
                for attr, value in namespace.items():
                    if value is original:
                        assert getattr(sys.modules[name], attr) is not original, (name, attr)
    after = module_namespaces()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, (name, attr)


def first_round(cli_like, workload, seed, tmp_path, **kwargs):
    """The opening operations and one round of ``workload``."""
    stats = run.RunStats()
    run.run_round(cli_like, opening_ops(workload), stats, tmp_path, SNAPSHOTS, is_round=False,
                  **kwargs)
    ops = make_round(workload, np.random.default_rng(seed))
    run.run_round(cli_like, ops, stats, tmp_path, SNAPSHOTS, **kwargs)
    return stats


def test_low_order_operations_are_answered_and_correct(tmp_path):
    # the workloads issue only operations today's program answers
    for seed in range(20):
        stats = first_round(cli, "low-order", seed, tmp_path)
        assert stats.failed == 0 and stats.wrong == 0, dict(stats.failures)
        assert stats.rounds == 1 and stats.ok_per_s > 0.0


def test_high_order_operation_is_answered_and_correct(tmp_path):
    stats = first_round(cli, "high-order", 0, tmp_path)
    assert stats.attempted == 1 and stats.failed == 0 and stats.wrong == 0


def test_traced_outputs_match_and_self_times_partition_the_run(tmp_path):
    plain = first_round(cli, "low-order", 4, tmp_path, keep_outputs=True)
    with Tracer() as tracer:
        traced = first_round(cli, "low-order", 4, tmp_path, tracer=tracer, keep_outputs=True)
    assert plain.outputs == traced.outputs
    assert tracer.calls[0] == traced.attempted  # cli.main
    # every nanosecond of the cli.main spans is some traced function's self time
    assert sum(tracer.self_ns) == tracer.total_ns[0]
    assert len(tracer.span_start) == sum(tracer.calls)


class CorruptingCli:
    """Runs the real CLI, then damages its stdout the way ``mutate`` says."""

    def __init__(self, mutate):
        self.mutate = mutate

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        print(self.mutate(argv[0], buf.getvalue()), end="")
        return code


def corrupt_sweep_digit(command, text):
    lines = text.splitlines(keepends=True)
    row = lines[-1]
    pos = len(row) - 3  # a digit of the gaussian column
    digit = "1" if row[pos] != "1" else "2"
    lines[-1] = row[:pos] + digit + row[pos + 1:]
    return "".join(lines)


def corrupt_witness_atom(command, text):
    if command != "witness":
        return text
    payload = json.loads(text)
    payload["measures"][0][0]["x"] += 1e-3 * (1.0 + abs(payload["measures"][0][0]["x"]))
    return json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("workload,mutate", [("sweep", corrupt_sweep_digit),
                                             ("low-order", corrupt_witness_atom)])
def test_corrupted_output_is_counted_wrong(tmp_path, workload, mutate):
    clean = first_round(cli, workload, 2, tmp_path)
    assert clean.wrong == 0 and clean.ok_units > 0
    damaged = first_round(CorruptingCli(mutate), workload, 2, tmp_path)
    assert damaged.attempted == clean.attempted and damaged.failed == 0
    assert damaged.wrong > 0
    assert damaged.ok_units < clean.ok_units


def test_sweep_check_recomputes_the_gaussian_column():
    argv = ["sweep", "--mu2", "0:2.4:0.1", "--sigma1sq", "2", "--sigma2sq", "3",
            "--priors", "0.3,0.7"]
    code, _, out, _ = run.call_cli(cli, argv)
    assert code == 0 and checks.check_sweep(argv, out) == (25, 25)
    lines = out.splitlines()
    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) + 1e-6)
    lines[5] = ",".join(fields)
    assert checks.check_sweep(argv, "\n".join(lines) + "\n") == (24, 25)


def test_behaviour_snapshots_match(tmp_path):
    sweep, results = snapshot.record(cli, tmp_path)
    assert snapshot.diff(sweep, results) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
