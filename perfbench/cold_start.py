"""cold-interp, cold-elide, cold-speculate: fresh ``python -m repro run``
processes on one tier each (paper section 4.2 start-up).

On ``interp`` and ``--elide`` the bug-corpus entries that print through
``printf`` before their bug fires run in a seed-shuffled order: a first
run on an empty cache directory, then a rerun on the same directory, now
warm.  After one pair per entry, pairs go on round-robin while another
still fits in the run's seconds.
On ``--speculate`` one entry, drawn by the seed, runs once on an empty
cache: its safe-O2 clone is not cached across processes, so a rerun
would repeat the same 20-30 s of work.  Every process must exit with
code 3 and report the manifest's bug first.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from collections import defaultdict

import layertrace
from common import (Context, Outcome, geomean, median, set_timings,
                    verdict_problem)

CANDIDATES = ("null_list_head", "heap_bucket_read", "printf_int_as_long")
TIER_FLAGS = {"interp": [], "elide": ["--elide"],
              "speculate": ["--speculate"]}
HEALTH_CHECKS = 5
# Every process of one benchmark run must end within this many seconds
# of the run's start, so a hung engine fails the run instead of
# stalling it.
RUN_BUDGET = 150.0
REPORT_PREFIX = "=== safe-sulong: "


def judge(returncode: int, stderr: str, entry) -> str | None:
    """None when the process exited with code 3 and its first report
    matches the manifest entry, else what went wrong."""
    if returncode != 3:
        return f"exit code {returncode}, expected 3"
    for line in stderr.splitlines():
        if line.startswith(REPORT_PREFIX):
            # "<kind> [read|write] [overflow|underflow] [of ...] at ..."
            words = line[len(REPORT_PREFIX):].split(" at ", 1)[0].split()
            access = next((w for w in words[1:3]
                           if w in ("read", "write")), None)
            direction = next((w for w in words[1:3]
                              if w in ("overflow", "underflow")), None)
            return verdict_problem(entry, words[0], access, direction)
    return "no bug report"


def _launch(ctx: Context, argv: list[str], env: dict,
            deadline: float) -> tuple:
    started = time.perf_counter()
    try:
        done = subprocess.run(argv, env=env, cwd=ctx.work,
                              stdin=subprocess.DEVNULL,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None, ""
    return time.perf_counter() - started, done.returncode, done.stderr


def run(ctx: Context, tier: str, entries: tuple[str, ...] = CANDIDATES,
        expected: dict | None = None) -> Outcome:
    """``expected`` maps an entry name to its manifest entry (the
    corpus manifest unless given)."""
    from repro.corpus.manifest import ENTRIES

    outcome = Outcome()
    budget_end = time.perf_counter() + RUN_BUDGET
    rng = random.Random(ctx.seed)
    entries = list(entries)
    rng.shuffle(entries)
    # One first run only: see the module docstring.
    once = tier == "speculate"
    if once:
        entries = [rng.choice(entries)]
        outcome.flags.append(f"{tier} entry {entries[0]}")
    manifest = {entry.name: entry for entry in ENTRIES}
    if expected is None:
        expected = manifest
    trace_dir = ctx.path("trace") if ctx.trace else None

    ctx.calibration.start()
    # Set-up: the hermetic directories plus a health check of the
    # entry point in the same environment.
    setup_times = []
    for attempt in range(HEALTH_CHECKS):
        started = time.perf_counter()
        os.makedirs(ctx.path(f"health-{attempt}"))
        done = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              env=ctx.child_env(), cwd=ctx.work,
                              stdin=subprocess.DEVNULL,
                              capture_output=True, timeout=60)
        setup_times.append(time.perf_counter() - started)
        outcome.check(done.returncode == 0,
                      f"health check: exit code {done.returncode}")
    if trace_dir:
        os.makedirs(trace_dir)

    times = defaultdict(lambda: defaultdict(list))

    def launch(entry: str, phase: str, cache: str) -> None:
        env = ctx.child_env(trace_dir, f"{tier}.{phase}")
        seconds, code, stderr = _launch(
            ctx, [sys.executable, "-m", "repro", "run", "--cache-dir",
                  cache, *TIER_FLAGS[tier], manifest[entry].path], env,
            budget_end)
        problem = "timeout" if code is None \
            else judge(code, stderr, expected[entry])
        if outcome.check(problem is None,
                         f"{entry} {tier}.{phase}: {problem}"):
            times[phase][entry].append(seconds)

    started = time.perf_counter()
    pairs = 0

    def another_fits() -> bool:
        elapsed = time.perf_counter() - started
        return elapsed * (pairs + 1) / pairs <= ctx.seconds

    # Every entry once, then round-robin while another first run and
    # rerun still fit in the run's seconds.
    while pairs < len(entries) or (not once and another_fits()):
        entry = entries[pairs % len(entries)]
        cache = ctx.path(f"cache-{entry}-{pairs}")
        launch(entry, "first", cache)
        if not once:
            launch(entry, "rerun", cache)
        pairs += 1

    # Per phase: geometric mean over entries of each entry's median, so
    # every seed weighs the same programs.
    figures = {phase: geomean(median(values)
                              for values in by_entry.values())
               for phase, by_entry in times.items()}
    outcome.samples = {"setup_s": setup_times}
    for phase, by_entry in times.items():
        for entry, values in by_entry.items():
            outcome.samples[f"{phase}.{tier}.{entry}"] = values
    outcome.operations = sum(len(values) for by_entry in times.values()
                             for values in by_entry.values())
    set_timings(ctx, outcome,
                geomean(figures.values()) if figures else None,
                median(setup_times))
    for phase, value in figures.items():
        name = "first_run_s" if phase == "first" else "rerun_s"
        outcome.layers[f"cold.{name}.{tier}"] = (value, "s")
    if trace_dir:
        outcome.trace_summary = layertrace.summarize(
            layertrace.load(trace_dir))
    return outcome
