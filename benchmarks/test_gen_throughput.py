"""Throughput of the generative differential oracle (ROADMAP item 5).

Three rates matter for running the oracle as an endless corpus:

- **generation** — seeded program construction is pure Python string
  work and must never be the bottleneck (thousands/sec);
- **oracle** — five-way differential execution per program; the warm
  rate (shared compilation cache) is what a long sweep actually pays;
- **reduction** — predicate evaluations to reach a fixpoint when
  minimizing one planted program with the full-check tier.

Emits ``BENCH_gen.json`` at the repository root:
    {"gen_throughput": {"generate_per_s", "oracle_per_s",
                        "oracle_cold_s", "oracle_warm_s",
                        "reduce_steps", "reduce_lines", ...},
     "_provenance": {commit, Python, host, gen_count, oracle_count}}

Gates are deliberately loose (single-core CI): generation ≥ 50/s,
warm oracle ≥ 0.4/s, and reduction reaches a fixpoint within budget.
"""

import json
import os
import time

from repro.bench import history
from repro.gen import GenConfig, generate, reduce_source, sweep
from repro.tools import SafeSulongRunner

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_gen.json")

MIN_GENERATE_PER_S = 50.0
MIN_ORACLE_WARM_PER_S = 0.4
GEN_COUNT = 60
ORACLE_COUNT = 10
REDUCE_BUDGET = 900


def _measure(tmp_path) -> dict:
    started = time.perf_counter()
    for seed in range(GEN_COUNT):
        generate(seed)
    generate_per_s = GEN_COUNT / (time.perf_counter() - started)

    cache_dir = str(tmp_path / "cache")
    per_program = []

    def timed(_report):
        per_program.append(time.perf_counter())

    started = time.perf_counter()
    summary = sweep(ORACLE_COUNT, base_seed=0, plant_mode="mixed",
                    cache_dir=cache_dir, on_report=timed)
    total = time.perf_counter() - started
    assert summary.ok, [r.summary_line() for r in summary.bugs]
    stamps = [started] + per_program
    laps = [b - a for a, b in zip(stamps, stamps[1:])]
    cold = laps[0]
    warm = sorted(laps[1:])[len(laps[1:]) // 2]  # median warm lap

    program = generate(1, GenConfig(plant="spatial"))
    runner = SafeSulongRunner(cache_dir=cache_dir, use_cache=True)

    def predicate(source):
        result = runner.run(source, filename="candidate.c")
        return any(bug.kind == "out-of-bounds" for bug in result.bugs)

    started = time.perf_counter()
    reduced = reduce_source(program.source, predicate,
                            max_steps=REDUCE_BUDGET)
    reduce_s = time.perf_counter() - started

    return {
        "generate_per_s": round(generate_per_s, 1),
        "oracle_per_s": round(ORACLE_COUNT / total, 3),
        "oracle_cold_s": round(cold, 3),
        "oracle_warm_s": round(warm, 3),
        "oracle_programs": ORACLE_COUNT,
        "reduce_steps": reduced.steps,
        "reduce_lines_before": reduced.original_lines,
        "reduce_lines_after": reduced.reduced_lines,
        "reduce_s": round(reduce_s, 3),
        "reduce_fixpoint": not reduced.exhausted,
    }


def test_gen_throughput(benchmark, tmp_path):
    table = {"gen_throughput":
             benchmark.pedantic(lambda: _measure(tmp_path),
                                iterations=1, rounds=1),
             "_provenance": history.stamp(gen_count=GEN_COUNT,
                                          oracle_count=ORACLE_COUNT)}
    row = table["gen_throughput"]
    print(f"\ngen: {row['generate_per_s']:.0f} programs/s generated, "
          f"oracle {row['oracle_per_s']:.2f}/s "
          f"(cold {row['oracle_cold_s']:.2f} s, "
          f"warm {row['oracle_warm_s']:.2f} s), "
          f"reduce {row['reduce_lines_before']}->"
          f"{row['reduce_lines_after']} lines "
          f"in {row['reduce_steps']} steps")

    with open(RESULTS_PATH, "w") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    history.record_benchmark()

    assert row["generate_per_s"] >= MIN_GENERATE_PER_S, row
    assert 1.0 / row["oracle_warm_s"] >= MIN_ORACLE_WARM_PER_S, row
    assert row["reduce_fixpoint"], row
    assert row["reduce_lines_after"] < row["reduce_lines_before"], row

    benchmark.extra_info["gen"] = table
