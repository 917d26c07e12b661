"""Smoke test of the benchmark itself, at a tiny size.

Runs each workload on a few inputs (three corpus entries, one shootout
program on the interpreter tier, one entry on cold-interp) and checks
that

* every metric ``BENCHMARK.json`` names is emitted with its unit, in
  both the untraced and the traced result line;
* a corrupted expected output, a wrong verdict and a wrong
  out-of-bounds direction each become failed operations, never a
  number in a correct result.

Usage, from the repository root::

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from types import SimpleNamespace

import common
import run

SERVE_ENTRIES = ["null_list_head", "uaf_queue_pop", "heap_avg_read"]
PROGRAM = "fannkuchredux"


def _benchmark_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def _check_metrics(line: dict, expected: list[tuple[str, str]],
                   label: str) -> None:
    got = {name: metric["unit"] for name, metric in line["metrics"].items()}
    want = dict(expected)
    if got != want:
        raise AssertionError(f"{label}: metrics {sorted(got)} differ from "
                             f"{sorted(want)} (or their units)")
    for name, metric in line["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def _expect_correct(outcome: common.Outcome, trace: bool,
                    label: str) -> dict:
    line = run.result(outcome, trace)
    if not line["correct"] or line["failed"]:
        raise AssertionError(f"{label}: not correct: {outcome.failures}")
    return line


def _expect_failed(outcome: common.Outcome, label: str) -> None:
    line = run.result(outcome, False)
    if line["correct"] or not line["failed"]:
        raise AssertionError(f"{label}: the fault was not counted as a "
                             "failed operation")


def _context(workload: str, trace: bool, seconds: float) -> common.Context:
    return common.Context(f"smoke-{workload}", 7, seconds, trace)


def main() -> int:
    if not common.have_sources():
        print("smoke: no engine sources", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    import cold_start
    import peak_shootout
    import serve_corpus

    spec = _benchmark_spec()
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if end_to_end != run.END_TO_END or per_layer != run.PER_LAYER:
        raise AssertionError("BENCHMARK.json and run.py list different "
                             "metrics")
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        raise AssertionError("BENCHMARK.json lists a workload run.py "
                             "does not run")

    cases = [
        ("serve-corpus", lambda ctx: serve_corpus.run(
            ctx, entries=SERVE_ENTRIES, setups=1), 2.0),
        ("peak-shootout", lambda ctx: peak_shootout.run(
            ctx, programs=[PROGRAM], tiers=("interp",)), 0.1),
        ("cold-interp", lambda ctx: cold_start.run(
            ctx, "interp", entries=("null_list_head",)), 0.0),
    ]
    for workload, start, seconds in cases:
        for trace in (False, True):
            started = time.perf_counter()
            ctx = _context(workload, trace, seconds)
            try:
                outcome = start(ctx)
            finally:
                ctx.close()
            line = _expect_correct(outcome, trace, workload)
            _check_metrics(line, per_layer if trace else end_to_end,
                           f"{workload} trace={int(trace)}")
            print(f"smoke: {workload} trace={int(trace)} ok "
                  f"({time.perf_counter() - started:.1f}s)")

    # A wrong verdict, or an out-of-bounds report on the wrong side of
    # its object, is a failed operation.
    from repro.corpus.manifest import by_name
    wrong_kind = {"null_list_head": SimpleNamespace(
        category="use-after-free", access=None, direction=None)}
    oob = by_name("heap_bucket_read")
    wrong_side = {oob.name: SimpleNamespace(
        category=oob.category, access=oob.access, direction="underflow")}
    ctx = _context("serve-corpus", False, 0.5)
    try:
        outcome = serve_corpus.run(ctx, entries=["null_list_head"],
                                   setups=1, expected=wrong_kind)
    finally:
        ctx.close()
    _expect_failed(outcome, "serve-corpus wrong verdict")
    for label, expected in (("wrong verdict", wrong_kind),
                            ("wrong direction", wrong_side)):
        ctx = _context("cold-interp", False, 0.0)
        try:
            outcome = cold_start.run(ctx, "interp", entries=tuple(expected),
                                     expected=expected)
        finally:
            ctx.close()
        _expect_failed(outcome, f"cold-interp {label}")
    print("smoke: wrong verdicts counted as failures ok")

    # A corrupted expected output is a failed operation.
    ctx = _context("peak-shootout", False, 0.1)
    try:
        corrupted = ctx.path("expected")
        shutil.copytree(common.EXPECTED_DIR, corrupted)
        path = os.path.join(corrupted, PROGRAM + ".out")
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[0] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        outcome = peak_shootout.run(ctx, programs=[PROGRAM],
                                    tiers=("interp",), expected_dir=corrupted)
    finally:
        ctx.close()
    _expect_failed(outcome, "peak-shootout corrupted expected output")
    print("smoke: corrupted expected output counted as failures ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
