"""Peak-performance experiment (paper Figure 16 and the §4.3 text).

Warms each configuration up, then samples steady-state iteration times
and reports them relative to Clang -O0 — the same normalization as the
paper's box plots.
"""

from __future__ import annotations


from .harness import FIGURE16_PROGRAMS, make_session

DEFAULT_CONFIGURATIONS = ["clang-O0", "clang-O3", "asan-O0", "safe-sulong"]


def measure_peak(program: str, configuration: str, warmup: int = 4,
                 samples: int = 3) -> float:
    """Best steady-state seconds per iteration (see
    :func:`measure_peaks`)."""
    return measure_peaks(program, [configuration], warmup,
                         samples)[configuration]


def measure_peaks(program: str, configurations: list[str],
                  warmup: int = 4, samples: int = 3,
                  min_sample_s: float = 0.0) -> dict[str, float]:
    """Best steady-state seconds per iteration of ``program`` under each
    configuration.

    The minimum is the standard robust estimator for benchmarks: timing
    noise on a shared machine is strictly one-sided (interference only
    ever makes an iteration slower).  Samples are taken round-robin
    over the configurations, so a slow phase of the host hits every
    configuration alike instead of whichever one it happened to meet.
    The cycle collector is paused during samples so garbage accumulated
    by *earlier* experiments in the same process cannot tax this one.
    With ``min_sample_s``, each sample repeats the iteration until it
    spans at least that long (the last warm-up iteration sets the
    count), so a program of a few milliseconds is not timed at the
    scheduler's granularity."""
    import gc
    import math
    sessions = {}
    repeats = {}
    for configuration in configurations:
        session = sessions[configuration] = make_session(program,
                                                         configuration)
        last = 0.0
        for _ in range(warmup):
            last, _output = session.timed_iteration()
        repeats[configuration] = \
            max(1, math.ceil(min_sample_s / last)) if last > 0 else 1
    times: dict[str, list[float]] = {name: [] for name in configurations}
    gc.collect()
    gc.disable()
    try:
        for _ in range(samples):
            for configuration, session in sessions.items():
                count = repeats[configuration]
                total = 0.0
                for _ in range(count):
                    seconds, _output = session.timed_iteration()
                    total += seconds
                times[configuration].append(total / count)
    finally:
        gc.enable()
    return {name: min(values) for name, values in times.items()}


def relative_peaks(programs: list[str] | None = None,
                   configurations: list[str] | None = None,
                   warmup: int = 4, samples: int = 3
                   ) -> dict[str, dict[str, float]]:
    """program -> configuration -> time relative to clang -O0."""
    programs = programs or FIGURE16_PROGRAMS
    configurations = configurations or DEFAULT_CONFIGURATIONS
    table: dict[str, dict[str, float]] = {}
    for program in programs:
        baseline = measure_peak(program, "clang-O0", warmup, samples)
        row = {"clang-O0": 1.0}
        for configuration in configurations:
            if configuration == "clang-O0":
                continue
            seconds = measure_peak(program, configuration, warmup, samples)
            row[configuration] = seconds / baseline
        table[program] = row
    return table


def format_table(table: dict[str, dict[str, float]]) -> str:
    configurations = list(next(iter(table.values())).keys())
    lines = [f"{'benchmark':16}"
             + "".join(f"{c:>14}" for c in configurations)]
    for program, row in table.items():
        lines.append(f"{program:16}" + "".join(
            f"{row[c]:>14.2f}" for c in configurations))
    return "\n".join(lines)


def memcheck_slowdowns(programs: list[str] | None = None,
                       warmup: int = 1, samples: int = 1
                       ) -> dict[str, float]:
    """Valgrind-style slowdowns relative to Clang -O0 (§4.3: 10–58x,
    lowest on spectralnorm/fasta/fannkuchredux)."""
    programs = programs or FIGURE16_PROGRAMS
    table = {}
    for program in programs:
        baseline = measure_peak(program, "clang-O0", warmup, samples)
        memcheck = measure_peak(program, "memcheck-O0", warmup, samples)
        table[program] = memcheck / baseline
    return table
