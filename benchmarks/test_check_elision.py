"""Static check elision (ISSUE: proven-safe checks are compiled out).

Measures interpreter throughput on shootout programs with and without
the `repro.opt.elide` pass.  Elision is a *proof* pass: a load/store is
only annotated when the dataflow analyses prove the dynamic check can
never fire, so the elided configuration must be at least as fast and
exactly as safe (safety is asserted by tests/opt/test_elide.py; this
file asserts the performance half and records the numbers).

Emits `BENCH_elision.json` at the repository root:
    {program: {"plain_s": ..., "elided_s": ..., "plain_ops_per_s": ...,
               "elided_ops_per_s": ..., "speedup": ...},
     "_provenance": {commit, Python, host, warmup, samples,
                     min_sample_s}}

The file (and the trajectory entry) is written only when the gates
pass.
"""

import json
import os

from repro.bench import history
from repro.bench.peak import measure_peaks

WARMUP = 3
# Plain and elided samples alternate, so a slow phase of a shared host
# lands on both; one such phase in a run of 3 samples per side read
# nbody at 0.80x and spectralnorm at 1.51x.
SAMPLES = 5
# Each sample repeats the program until it spans this long: a ~15 ms
# program (fannkuchredux) timed one iteration at a time reads anywhere
# from 0.7x to 1.15x on a shared host.
MIN_SAMPLE_S = 0.2

# Check-dense shootout members: tight loops over arrays (bounds/null/
# lifetime checks on every access) where elision has the most to prove.
PROGRAMS = ["fannkuchredux", "spectralnorm", "nbody", "mandelbrot"]

# Timing noise allowance: "no slower" up to scheduler jitter.
NOISE = 1.05

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_elision.json")


def test_elision_speeds_up_interpreter(benchmark):
    def regenerate():
        table = {}
        for program in PROGRAMS:
            peaks = measure_peaks(
                program, ["safe-sulong-interp", "safe-sulong-interp-elide"],
                WARMUP, SAMPLES, MIN_SAMPLE_S)
            plain = peaks["safe-sulong-interp"]
            elided = peaks["safe-sulong-interp-elide"]
            table[program] = {
                "plain_s": plain,
                "elided_s": elided,
                "plain_ops_per_s": 1.0 / plain,
                "elided_ops_per_s": 1.0 / elided,
                "speedup": plain / elided,
            }
        return table

    table = benchmark.pedantic(regenerate, iterations=1, rounds=1)
    table["_provenance"] = history.stamp(warmup=WARMUP, samples=SAMPLES,
                                         min_sample_s=MIN_SAMPLE_S)

    print("\ninterpreter, static check elision:")
    for program in PROGRAMS:
        row = table[program]
        print(f"  {program:16} {row['plain_s']:7.3f}s -> "
              f"{row['elided_s']:7.3f}s  ({row['speedup']:.2f}x)")

    # Elision must never cost performance: every check it removes was
    # pure overhead, and the pass adds no runtime work of its own.
    for program in PROGRAMS:
        row = table[program]
        assert row["speedup"] > 1.0 / NOISE, (program, row)
    # ...and must measurably pay off on at least one program.
    assert max(table[program]["speedup"] for program in PROGRAMS) > 1.10, \
        table

    with open(RESULTS_PATH, "w") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    history.record_benchmark()

    benchmark.extra_info["elision"] = table
