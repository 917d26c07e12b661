"""peak-shootout: the nine shootout programs at steady state (Fig. 16).

Each program runs in-process through ``ManagedSession`` on two tiers:
``interp`` (full checks, no JIT — the default tier of ``run`` and
``hunt``) and ``spec`` (speculative elision with the JIT at its default
threshold).  Set-up builds every session and warms it until its JIT
compile count stops growing; the timed phase then runs all sessions
round-robin while another round fits in the run's seconds (at least
``MIN_ROUNDS`` rounds).
Every iteration's stdout must equal the program's ``gcc -O0`` output
stored in ``perfbench/expected``.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections import defaultdict

import layertrace
from common import (EXPECTED_DIR, Context, Outcome, geomean, median,
                    set_timings)

TIERS = ("interp", "spec")
MIN_ROUNDS = 3
# Warm-up ends once the compile count held still for this many
# iterations (bounded, so a program that never settles still runs).
STABLE_ITERATIONS = 2
MAX_WARMUP = 40


def _session(tier: str, program: str):
    from repro.bench.harness import ManagedSession, program_source
    from repro.obs.profile import DEFAULT_JIT_THRESHOLD

    source = program_source(program)
    if tier == "interp":
        return ManagedSession(source, jit_threshold=None,
                              filename=program + ".c")
    return ManagedSession(source, jit_threshold=DEFAULT_JIT_THRESHOLD,
                          filename=program + ".c", speculate=True)


def _warm(tier: str, session, check) -> None:
    """Iterate until the session's compile count stops growing; the
    interpreter tier compiles nothing, so one iteration (which prepares
    every function it calls) warms it."""
    if tier == "interp":
        check(session.run_iteration())
        return
    compiled = -1
    steady = 0
    for _ in range(MAX_WARMUP):
        check(session.run_iteration())
        now = session.compiled_functions
        steady = steady + 1 if now == compiled else 0
        compiled = now
        if steady >= STABLE_ITERATIONS:
            return


def run(ctx: Context, programs: list[str] | None = None,
        expected_dir: str = EXPECTED_DIR,
        tiers: tuple[str, ...] = TIERS) -> Outcome:
    from repro.bench.harness import PROGRAMS

    outcome = Outcome()
    ctx.calibration.start()
    programs = list(programs or PROGRAMS)
    random.Random(ctx.seed).shuffle(programs)
    expected = {}
    for program in programs:
        with open(os.path.join(expected_dir, program + ".out"), "rb") \
                as handle:
            expected[program] = handle.read()

    tracer = restore = None
    if ctx.trace:
        tracer = layertrace.Tracer()
        restore = layertrace.install(tracer, layertrace.BOUNDARIES
                                     + layertrace.HARNESS_BOUNDARIES)
    try:
        samples = _measure(ctx, outcome, tiers, programs, expected,
                           tracer)
    finally:
        if restore is not None:
            restore()

    setup_times, iteration_times = samples
    outcome.operations = sum(map(len, iteration_times.values()))
    per_session = {key: median(values)
                   for key, values in iteration_times.items()}
    set_timings(ctx, outcome, geomean(per_session.values()),
                median(setup_times.values()))
    outcome.samples = {"setup_s": list(setup_times.values())}
    for (tier, program), values in sorted(iteration_times.items()):
        outcome.samples[f"iter_s.{tier}.{program}"] = values
    for tier in tiers:
        outcome.flags.append("{} geomean {:.6f} s".format(tier, geomean(
            seconds for (name, _), seconds in per_session.items()
            if name == tier)))
    if tracer is not None:
        outcome.trace_summary = layertrace.summarize(
            [tracer.record(cache=layertrace.cache_counts())])
    return outcome


def _measure(ctx, outcome, tiers, programs, expected, tracer):
    """Set up and warm every session, then time round-robin."""
    sessions = {}
    setup_times: dict[str, float] = defaultdict(float)
    for tier in tiers:
        for program in programs:
            if tracer is not None:
                tracer.request = f"{tier}.{program}"

            def check(output, key=(tier, program)):
                outcome.check(output == expected[key[1]],
                              f"{key[0]}.{key[1]}: stdout differs from "
                              "gcc -O0")

            started = time.perf_counter()
            session = _session(tier, program)
            _warm(tier, session, check)
            setup_times[program] += time.perf_counter() - started
            sessions[(tier, program)] = (session, check)

    # All 18 sessions stay alive for the round-robin, where a real run
    # holds one program: freeze what set-up built so the collector's
    # full passes do not rescan it inside timed iterations, and start
    # every iteration with empty young generations so each triggers the
    # same collections.
    gc.collect()
    gc.freeze()
    iteration_times = defaultdict(list)
    try:
        started = time.perf_counter()
        rounds = 0
        # Another round only while it still fits in the run's seconds.
        while rounds < MIN_ROUNDS or (time.perf_counter() - started) \
                * (rounds + 1) / rounds <= ctx.seconds:
            for key, (session, check) in sessions.items():
                if tracer is not None:
                    tracer.request = f"{key[0]}.{key[1]}"
                gc.collect()
                seconds, output = session.timed_iteration()
                check(output)
                iteration_times[key].append(seconds)
            rounds += 1
    finally:
        gc.unfreeze()
    return setup_times, iteration_times
