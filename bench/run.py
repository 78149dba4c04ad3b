#!/usr/bin/env python3
"""Benchmark for momentbounds: closed-loop, single-client, in-process.

Run from the root of a checkout:

    python3 bench/run.py --workload low-order --seed 1 --seconds 30 --trace 0

Each operation is one ``momentbounds.cli.main`` call (a ``sweep``, or a
``bound`` or ``witness`` on a generated problem file); the next one starts
when it returns. After the workload's opening operations, rounds of
operations with fresh seeded inputs (see workloads.py) run until about
``--seconds`` have passed. Every answer is checked by the benchmark's own
code. ``ok_per_s`` is the rounds' checked results over the time spent in
their ``cli.main`` calls.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
inputs twice, for half the time each, first plain and then with every traced
function wrapped (tracing.py); it prints the per-layer metrics, the tracing
overhead, and fails the run if any traced output differs from the plain one.
The spans go to ``.bench_out/spans-<workload>.npz``.

The line before the last is a report with the environment, the failure and
wrong-answer shares, the latency median and 90th percentile with the sample
counts behind them; the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import REPORTED, Tracer, metric_prefix  # noqa: E402
from workloads import WORKLOADS, make_round, opening_ops  # noqa: E402

#: fresh interpreters started to time ``import momentbounds.cli``.
SETUP_REPEATS = 11
SNAPSHOT_DIR = HERE / "snapshots"
OUT_DIR = ".bench_out"


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    ok_units: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    rounds: int = 0
    round_units: int = 0  # ok units of the rounds, opening operations excluded
    round_busy_s: float = 0.0  # time in cli.main of the rounds' operations
    latencies_s: list[float] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    outputs: list[tuple] = field(default_factory=list)

    @property
    def ok_per_s(self) -> float:
        return self.round_units / self.round_busy_s if self.round_busy_s > 0.0 else 0.0


def load_cli(root: Path):
    """Import ``momentbounds.cli`` from the checkout's ``src``, nowhere else."""
    pkg = root / "src" / "momentbounds"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no momentbounds sources at {pkg}")
    sys.path.insert(0, str(root / "src"))
    from momentbounds import cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported momentbounds from {cli.__file__}, not {pkg}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[object, float, str, str]:
    """One timed ``cli.main`` call: (exit code, seconds, stdout, stderr).

    An exception escaping ``main`` is a failed operation; its type becomes
    the exit code so that it is tallied by name.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the benchmark must keep running and count it
            code = f"raised {type(exc).__name__}"
            err.write(repr(exc))
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def failure_label(code, stderr: str) -> str:
    if isinstance(code, str):
        return code
    try:
        return f"exit {code} {json.loads(stderr)['error']}"
    except (ValueError, KeyError, TypeError):
        return f"exit {code}"


def check_op(op, argv, stdout: str, snapshots: dict) -> tuple[int, int]:
    """(accepted, expected) results of one answered operation."""
    try:
        if op.kind == "sweep":
            return checks.check_sweep(argv, stdout, snapshots.get(op.snapshot))
        if op.kind == "bound":
            return checks.check_bound(op.problem, stdout)
        return checks.check_witness(op.problem, stdout)
    except (ValueError, KeyError, TypeError):  # unreadable output is a wrong answer
        return 0, 1


def run_round(cli, ops, stats: RunStats, workdir: Path, snapshots: dict,
              tracer: Tracer | None = None, keep_outputs: bool = False,
              is_round: bool = True) -> None:
    """Run ``ops`` in order into ``stats``; with ``is_round`` they are one
    round and count towards ``ok_per_s``."""
    problem_path = workdir / "problem.json"
    units, busy = stats.ok_units, stats.busy_s
    for op in ops:
        argv = list(op.argv)
        if op.problem is not None:
            problem_path.write_text(json.dumps(op.problem.to_json()), encoding="utf-8")
            argv.append(str(problem_path))
        if tracer is not None:
            tracer.op = stats.attempted
        code, elapsed, out, err = call_cli(cli, argv)
        stats.attempted += 1
        stats.busy_s += elapsed
        if code != 0:
            stats.failed += 1
            stats.failures[f"{op.kind}: {failure_label(code, err)}"] += 1
        else:
            stats.latencies_s.append(elapsed)
            good, expected = check_op(op, argv, out, snapshots)
            stats.ok_units += good
            if good < expected:
                stats.wrong += 1
        if keep_outputs:
            stats.outputs.append((code, out, err))
    if is_round:
        stats.rounds += 1
        stats.round_units += stats.ok_units - units
        stats.round_busy_s += stats.busy_s - busy


def run_workload(cli, workload: str, seed: int, seconds: float, workdir: Path,
                 snapshots: dict, tracer: Tracer | None = None,
                 keep_outputs: bool = False) -> RunStats:
    """The opening operations, then whole rounds of ``workload``, ending at
    the round boundary nearest to ``seconds``: another round starts while the
    time so far plus half a mean round is short of ``seconds``. At least one
    round runs."""
    rng = np.random.default_rng(seed)
    stats = RunStats()
    start = time.perf_counter()
    run_round(cli, opening_ops(workload), stats, workdir, snapshots, tracer, keep_outputs,
              is_round=False)
    index = 0
    while index == 0 or (time.perf_counter() - start) * (1.0 + 0.5 / index) < seconds:
        run_round(cli, make_round(workload, rng), stats, workdir, snapshots, tracer,
                  keep_outputs)
        index += 1
    stats.wall_s = time.perf_counter() - start
    return stats


def measure_setup(root: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter importing ``momentbounds.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import momentbounds.cli"], cwd=root, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile: the smallest sample with at least q% of
    the samples at or below it. It is always one measured latency, never an
    interpolation across the gap between two kinds of operation."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(root: Path, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(root), "src_sha256": source_digest(root), "seed": seed}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_report(stats: RunStats) -> dict:
    """Median and 90th percentile of answered-operation latency, each with the
    number of samples beyond it (a percentile is trustworthy with ten)."""
    ms = [t * 1e3 for t in stats.latencies_s]
    out = {"latency_samples": len(ms), "latency_over": "answered operations"}
    if not ms:
        return out
    for q in (50, 90):
        value = percentile(ms, q)
        out[f"latency_p{q}_ms"] = value
        out[f"p{q}_samples_beyond"] = sum(v > value for v in ms)
    return out


def shares(stats: RunStats) -> dict:
    return {"fail_share": stats.failed / stats.attempted,
            "wrong_share": stats.wrong / stats.attempted,
            "failures": dict(sorted(stats.failures.items()))}


def layer_metrics(tracer: Tracer, traced: RunStats, plain: RunStats) -> dict:
    out = {}
    per_fn = tracer.per_function()
    for module, func in REPORTED:
        name = metric_prefix(module, func)
        for key, unit in (("calls", "count"), ("self_ms", "ms"), ("total_ms", "ms"),
                          ("errors", "count")):
            out[f"{name}.{key}"] = metric(per_fn[name][key], unit)
    ops = traced.attempted
    shared = per_fn["moments.max_shared_mass"]["calls"]
    out["moments.max_shared_mass.probes_per_call"] = metric(
        tracer.probes_under_shared_mass / shared if shared else 0.0, "1/call")
    out["moments.is_feasible.calls_per_op"] = metric(
        per_fn["moments.is_feasible"]["calls"] / ops, "1/op")
    out["search.grid_golden_max.calls_per_op"] = metric(
        per_fn["search.grid_golden_max"]["calls"] / ops, "1/op")
    out["trace.ops"] = metric(ops, "count")
    out["trace.ok_per_s"] = metric(traced.ok_per_s, "1/s")
    out["trace.untraced_ok_per_s"] = metric(plain.ok_per_s, "1/s")
    out["trace.overhead_share"] = metric(
        1.0 - traced.ok_per_s / plain.ok_per_s if plain.ok_per_s else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_cli(root)
    snapshots = {"sweep_default.csv": (SNAPSHOT_DIR / "sweep_default.csv").read_text("utf-8")}
    out_dir = root / OUT_DIR
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(root, args.seed)}
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = run_workload(cli, args.workload, args.seed, half, workdir, snapshots,
                                 keep_outputs=True)
            with Tracer() as tracer:
                stats = run_workload(cli, args.workload, args.seed, half, workdir, snapshots,
                                     tracer=tracer, keep_outputs=True)
            tracer.save(out_dir / f"spans-{args.workload}.npz")
            compared = min(len(plain.outputs), len(stats.outputs))
            identical = plain.outputs[:compared] == stats.outputs[:compared]
            metrics = layer_metrics(tracer, stats, plain)
            report.update(traced_ops_compared=compared, traced_output_identical=identical,
                          spans=len(tracer.span_start), untraced=shares(plain))
            identical = identical and plain.wrong == 0
        else:
            stats = run_workload(cli, args.workload, args.seed, args.seconds, workdir, snapshots)
            identical = True
            latency = latency_report(stats)
            metrics = {"ok_per_s": metric(stats.ok_per_s, "1/s"),
                       "setup_s": metric(measure_setup(root), "s"),
                       "peak_rss_mb": metric(
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")}
            report.update(latency, setup_repeats=SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(attempted=stats.attempted, rounds=stats.rounds,
                  round_busy_s=stats.round_busy_s, round_units=stats.round_units,
                  wall_s=stats.wall_s, busy_s=stats.busy_s, ok_units=stats.ok_units,
                  **shares(stats))
    print(json.dumps(report))
    print(json.dumps({"correct": stats.wrong == 0 and identical, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
