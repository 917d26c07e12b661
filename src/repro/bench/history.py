"""Benchmark trajectory: fold BENCH_*.json results into one history.

Each benchmark module writes its current numbers to a ``BENCH_<name>.json``
file at the repo root — a snapshot, overwritten per run.  This module
appends those snapshots to ``BENCH_trajectory.json`` so the performance
*trajectory* across commits/runs is preserved: one entry per merge run,
keyed by an increasing run index, carrying every benchmark file's data.

Identical consecutive snapshots are not re-appended (re-running the merge
without re-running the benchmarks is a no-op), so the trajectory grows
only when the numbers actually change.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import subprocess

SCHEMA_VERSION = 1
TRAJECTORY_NAME = "BENCH_trajectory.json"


def collect_bench_files(root: str) -> dict[str, dict]:
    """Read every ``BENCH_*.json`` in ``root`` (except the trajectory
    itself); returns {benchmark name: payload}."""
    results: dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        base = os.path.basename(path)
        if base == TRAJECTORY_NAME:
            continue
        name = base[len("BENCH_"):-len(".json")]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                results[name] = json.load(handle)
        except (OSError, ValueError):
            # A half-written or corrupt snapshot must not poison the
            # trajectory; skip it and keep the rest.
            continue
    return results


def load_trajectory(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {"schema": SCHEMA_VERSION, "runs": []}
    if not isinstance(data, dict) or not isinstance(data.get("runs"), list):
        return {"schema": SCHEMA_VERSION, "runs": []}
    data.setdefault("schema", SCHEMA_VERSION)
    return data


def merge(root: str, timestamp: str | None = None) -> dict:
    """Fold the current BENCH_*.json snapshots into the trajectory file
    under ``root``.  Returns a report: {path, runs, appended, benchmarks}.
    """
    snapshots = collect_bench_files(root)
    path = os.path.join(root, TRAJECTORY_NAME)
    trajectory = load_trajectory(path)
    runs = trajectory["runs"]
    appended = False
    if snapshots:
        last = runs[-1]["benchmarks"] if runs else None
        if last != snapshots:
            entry = {"run": len(runs) + 1, "benchmarks": snapshots}
            if timestamp:
                entry["timestamp"] = timestamp
            runs.append(entry)
            appended = True
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(trajectory, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return {"path": path, "runs": len(runs), "appended": appended,
            "benchmarks": sorted(snapshots)}


def stamp(**extra) -> dict:
    """Which code, Python and host produced a BENCH record: the checkout's
    HEAD commit (``git_dirty`` when the working tree differs from it),
    plus whatever the caller adds (sample counts, say)."""
    here = os.path.dirname(os.path.abspath(__file__))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=here, text=True,
                                  capture_output=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {"git_sha": sha,
            "git_dirty": bool(status) if sha else None,
            "python": platform.python_version(),
            "host": platform.node(),
            "nproc": os.cpu_count(),
            **extra}


def record_benchmark(root: str | None = None) -> dict:
    """Convenience hook for benchmark modules: merge after writing a
    BENCH_*.json.  ``root`` defaults to the repository root (two levels
    above this file's package)."""
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return merge(root)
