"""The repository's benchmark: one command, five workloads.

``BENCHMARK.json`` lists serve-corpus and the three cold-start tiers
(cold-interp, cold-elide, cold-speculate); peak-shootout runs by hand
only (see ``perfbench/rationale.json`` for why).

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-corpus --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are scaled to a reference host speed by a probe that times
fixed chunks of work alongside the workload (``perfbench/calibrate.py``),
and the raw seconds are in the provenance line;
``--trace 1`` runs the same workload with spans around every layer's
public functions and reports the per-layer metrics instead.  Human
notes go to stderr; stdout ends with a provenance line and then the
result line ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/rationale.json`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback

import common
import layertrace

WORKLOADS = ("serve-corpus", "peak-shootout", "cold-interp", "cold-elide",
             "cold-speculate")

END_TO_END = [("op_s", "s"), ("setup_s", "s"), ("max_rss_mb", "MiB")]

# Span name -> per-layer metric (self seconds, summed over the run).
SPAN_METRICS = [
    ("process.startup", "process.startup_s"),
    ("process", "process.glue_s"),
    ("cfront.preprocess", "cfront.preprocess_s"),
    ("cfront.parse", "cfront.parse_s"),
    ("cfront.sema", "cfront.sema_s"),
    ("cfront.irgen", "cfront.irgen_s"),
    ("cache.frontend", "cache.frontend_s"),
    ("libc.load", "libc.load_s"),
    ("ir.link", "ir.link_s"),
    ("analysis.summaries", "analysis.summaries_s"),
    ("opt.elide", "opt.elide_s"),
    ("opt.safe_o2", "opt.safe_o2_s"),
    ("opt.speculate", "opt.speculate_s"),
    ("core.prepare", "core.prepare_s"),
    ("core.jit_compile", "core.jit_compile_s"),
    ("core.execute", "core.execute_s"),
    ("core.engine", "core.engine_s"),
]
COUNT_METRICS = ["cfront.tokens", "cache.hits", "cache.misses",
                 "cache.stores", "cache.rejects", "opt.elide.checks",
                 "opt.safe_o2.functions", "opt.speculate.loops",
                 "core.prepared", "core.jit_compiled", "core.guard_trips",
                 "core.deopts"]

PER_LAYER = (
    [("service.jobs_per_s", "jobs/s"), ("service.submit_s", "s"),
     ("service.latency_p50_s", "s"), ("service.latency_p85_s", "s"),
     ("service.overhead_s", "s"),
     ("harness.worker_s", "s"),
     ("harness.queue_s", "s"), ("harness.retries", "count"),
     ("harness.rung_descents", "count"),
     ("harness.worker_accounted", "ratio"),
     ("harness.worker_unaccounted", "ratio")]
    + [(metric, "s") for _span, metric in SPAN_METRICS]
    + [(name, "count") for name in COUNT_METRICS]
    + [("cache.hit_ratio", "ratio")]
    + [(f"cold.first_run_s.{tier}", "s")
       for tier in ("interp", "elide", "speculate")]
    + [(f"cold.rerun_s.{tier}", "s") for tier in ("interp", "elide")]
    + [("trace.op_s", "s"), ("trace.ops", "count"), ("trace.spans", "count"),
       ("trace.overhead_s", "s"), ("host.reference_s", "s")])


def layer_metrics(outcome: common.Outcome) -> dict:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    values = {name: value for name, (value, _unit)
              in outcome.layers.items()}
    summary = outcome.trace_summary
    if summary is not None:
        for span, metric in SPAN_METRICS:
            values[metric] = summary["seconds"].get(span, 0.0)
        counts = summary["counts"]
        for name in COUNT_METRICS:
            values[name] = counts.get(name, 0)
        lookups = counts.get("cache.hits", 0) + counts.get("cache.misses",
                                                           0)
        values["cache.hit_ratio"] = (counts.get("cache.hits", 0) / lookups
                                     if lookups else 0.0)
        values["trace.spans"] = summary["spans"]
        values["trace.overhead_s"] = summary["spans"] \
            * layertrace.span_cost()
    values["trace.op_s"] = outcome.raw.get("op_s", 0.0)
    values["trace.ops"] = outcome.operations
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def result(outcome: common.Outcome, trace: bool) -> dict:
    """The result line.  A metric a failed run could not measure reads
    0; such a run is never ``correct``."""
    if trace:
        metrics = layer_metrics(outcome)
    else:
        metrics = {name: {"value": outcome.metrics.get(name, (0.0,))[0],
                          "unit": unit} for name, unit in END_TO_END}
    failed = len(outcome.failures)
    complete = all(name in outcome.metrics for name, _unit in END_TO_END)
    return {"correct": failed == 0 and complete and outcome.attempted > 0,
            "attempted": max(1, outcome.attempted), "failed": failed,
            "metrics": metrics}


def run_workload(name: str, ctx: common.Context) -> common.Outcome:
    if name == "serve-corpus":
        import serve_corpus
        return serve_corpus.run(ctx)
    if name == "peak-shootout":
        import peak_shootout
        return peak_shootout.run(ctx)
    import cold_start
    return cold_start.run(ctx, tier=name.split("-", 1)[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_sources():
        print(f"perfbench: no engine sources under {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    for key in common.SCRUBBED_ENV:
        os.environ.pop(key, None)
    # A terminated run still stops the processes it started (the
    # workloads' finally blocks).
    signal.signal(signal.SIGTERM, lambda *_args: sys.exit(1))

    ctx = common.Context(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    try:
        outcome = run_workload(args.workload, ctx)
    except Exception:  # noqa: BLE001 — report and fail the run
        traceback.print_exc()
        return 1
    finally:
        ctx.close()

    line = result(outcome, bool(args.trace))
    for note in outcome.failures[:20] + outcome.flags:
        print(f"perfbench: {note}", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"provenance": common.provenance(ctx, outcome)}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
