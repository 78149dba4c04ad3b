#!/usr/bin/env python3
"""Behaviour snapshots: the default sweep CSV, and bound/witness results on a
fixed problem set with n = 2, 3, 4 and 6.

Today's failures are part of the record (exit code and error JSON), so a later
fix shows up as a difference instead of being absorbed silently.

    python3 bench/snapshot.py            # compare; exit 1 and list differences
    python3 bench/snapshot.py --update   # record the current behaviour

Run from the root of a checkout. The sweep workload compares its first
operation with ``snapshots/sweep_default.csv`` on every run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, SNAPSHOT_DIR, call_cli, load_cli  # noqa: E402

PROBLEMS = SNAPSHOT_DIR / "problems.json"
RESULTS = SNAPSHOT_DIR / "results.json"
SWEEP = SNAPSHOT_DIR / "sweep_default.csv"


def record(cli, workdir: Path) -> tuple[str, dict]:
    """Current default sweep text and per-problem bound/witness outcomes."""
    code, _, sweep, err = call_cli(cli, ["sweep"])
    if code != 0:
        raise SystemExit(f"error: default sweep exited {code}: {err}")
    results = {}
    for name, problem in json.loads(PROBLEMS.read_text("utf-8")).items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        for command in ("bound", "witness"):
            code, _, out, err = call_cli(cli, [command, str(path)])
            results[f"{name} {command}"] = {"exit": code, "stdout": out, "stderr": err}
    return sweep, results


def diff(sweep: str, results: dict) -> list[str]:
    lines = []
    if sweep != SWEEP.read_text("utf-8"):
        lines.append("default sweep differs from snapshots/sweep_default.csv")
    stored = json.loads(RESULTS.read_text("utf-8"))
    for key in sorted(set(stored) | set(results)):
        old, new = stored.get(key), results.get(key)
        if old != new:
            lines.append(f"{key}: {json.dumps(old)} -> {json.dumps(new)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true", help="overwrite the snapshots")
    args = parser.parse_args(argv)
    root = Path.cwd()
    cli = load_cli(root)
    workdir = root / OUT_DIR / "snapshot-problems"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sweep, results = record(cli, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.update:
        SWEEP.write_text(sweep, encoding="utf-8")
        RESULTS.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    changes = diff(sweep, results)
    for line in changes:
        print(line)
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
