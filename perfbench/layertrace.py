"""Spans around each layer's public functions, recorded from outside the
engine.

:func:`install` replaces the boundary functions listed in
:data:`BOUNDARIES` with wrappers that record one span per call (name,
start, end, parent span, request id) plus the counts the layer's return
value carries.  Spans stay in memory; a child process writes its own at
exit (``hook/sitecustomize.py``) into the directory named by
``PERFBENCH_TRACE_DIR``, and :func:`summarize` merges them into
per-layer self times: a span's duration minus the part its child spans
cover.
"""

from __future__ import annotations

import functools
import glob
import importlib
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: str | None = None
        self.marks: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, start: float | None = None) -> int:
        stack = self._stack()
        span = [name, time.perf_counter() if start is None else start,
                None, stack[-1] if stack else None, self.request]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def mark(self, name: str) -> None:
        """Remember when something first happened (e.g. run_job entry)."""
        self.marks.setdefault(name, time.perf_counter())

    def record(self, **extra) -> dict:
        """Everything recorded, JSON-ready; a span still open ends now."""
        now = time.perf_counter()
        spans = [[name, start, now if end is None else end, parent, request]
                 for name, start, end, parent, request in self.spans]
        return {"pid": os.getpid(), "request": self.request,
                "spans": spans, "counts": dict(self.counts),
                "marks": self.marks, **extra}


# -- boundaries -------------------------------------------------------------------

def _count_tokens(tracer, result, args):
    tracer.counts["cfront.tokens"] += len(result)


def _count_checks(tracer, result, args):
    tracer.counts["opt.elide.checks"] += int(result or 0)


def _count_loops(tracer, result, args):
    tracer.counts["opt.speculate.loops"] += len(result or ())


def _counter(name):
    def count(tracer, result, args):
        tracer.counts[name] += 1
    return count


def _before_clone(args):
    function = args[0]
    return function.is_definition \
        and getattr(function, "_safe_o2_clone", None) is None


def _count_clone(tracer, fresh, args):
    if fresh:
        tracer.counts["opt.safe_o2.functions"] += 1


def _before_run(args):
    runtime = args[0]
    return runtime.guard_trips, runtime.deopts


def _count_run(tracer, before, args):
    runtime = args[0]
    tracer.counts["core.guard_trips"] += runtime.guard_trips - before[0]
    tracer.counts["core.deopts"] += runtime.deopts - before[1]


# (span name, module, attribute path, before-hook, after-hook).  The
# after-hook gets the return value, or the before-hook's value when one
# is given (the latter also runs when the call raises).
BOUNDARIES = [
    ("cfront.preprocess", "repro.cfront.preprocessor",
     "Preprocessor.process_text", None, _count_tokens),
    ("cfront.parse", "repro.cfront.parser", "parse", None, None),
    ("cfront.sema", "repro.cfront.sema", "analyze", None, None),
    ("cfront.irgen", "repro.cfront.irgen", "generate", None, None),
    ("cache.frontend", "repro.cache", "CompilationCache.compile_source",
     None, None),
    ("libc.load", "repro.core.engine", "libc_module", None, None),
    ("ir.link", "repro.ir.module", "Module.link", None, None),
    ("analysis.summaries", "repro.analysis.interproc.driver",
     "module_summaries", None, None),
    ("opt.elide", "repro.opt.elide", "run_module", None, _count_checks),
    ("opt.safe_o2", "repro.opt.pipeline", "optimized_clone",
     _before_clone, _count_clone),
    ("opt.speculate", "repro.opt.speculate", "analyze_function", None,
     _count_loops),
    ("core.prepare", "repro.core.interpreter", "prepare_function", None,
     _counter("core.prepared")),
    ("core.jit_compile", "repro.core.jit", "compile_function", None,
     _counter("core.jit_compiled")),
    ("core.execute", "repro.core.interpreter", "Runtime.run_main",
     _before_run, _count_run),
    # The engine's own work around the layers above: runtime set-up
    # (memory, intrinsics) and result assembly.
    ("core.engine", "repro.core.engine", "SafeSulong.run_source", None,
     None),
]

# The peak workload builds sessions through the bench harness, which
# imports libc_module under its own name.
HARNESS_BOUNDARIES = [
    ("libc.load", "repro.bench.harness", "libc_module", None, None),
]


def _wrap(tracer: Tracer, name: str, original, before, after):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
            if before is not None:
                after(tracer, state, args)
        if before is None and after is not None:
            after(tracer, result, args)
        return result
    return wrapper


def _marked(tracer: Tracer, original):
    # run_job's first call into the engine: where a worker's start-up
    # (interpreter boot, imports, job load) ends.
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.mark("run_job")
        return original(*args, **kwargs)
    return wrapper


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Applies a module's wrappers right after its first import, so
    tracing imports nothing the traced process would not."""

    def __init__(self, pending: dict, apply):
        self.pending = pending
        self.apply = apply

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_wrap(module):
            exec_module(module)
            self.apply(fullname)
        spec.loader.exec_module = exec_and_wrap
        return spec


def install(tracer: Tracer, boundaries=BOUNDARIES):
    """Wrap every boundary, now for modules already imported and on
    first import for the rest; returns a function that puts the
    originals back."""
    pending = defaultdict(list)
    for name, module_name, path, before, after in boundaries:
        pending[module_name].append(
            (path, functools.partial(_wrap, tracer, name, before=before,
                                     after=after)))
    pending["repro.tools"].append(
        ("make_runner", functools.partial(_marked, tracer)))
    replaced = []

    def apply(module_name: str) -> None:
        for path, wrap in pending.pop(module_name, ()):
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attr)
            replaced.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    for module_name in [name for name in pending if name in sys.modules]:
        apply(module_name)
    finder = _WrapOnImport(pending, apply)
    sys.meta_path.insert(0, finder)

    def restore() -> None:
        sys.meta_path.remove(finder)
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
    return restore


def cache_counts() -> dict:
    """hits/misses/stores/rejects summed over this process's caches."""
    cache = sys.modules.get("repro.cache")
    totals: Counter = Counter()
    for instance in getattr(cache, "_INSTANCES", {}).values():
        totals.update(instance.stats.snapshot())
    return dict(totals)


def span_cost(samples: int = 20000) -> float:
    """Seconds one begin/end pair costs, for the overhead estimate."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(samples):
        tracer.end(tracer.begin("calibrate"))
    return (time.perf_counter() - started) / samples


# -- merging ----------------------------------------------------------------------

def load(trace_dir: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def self_times(record: dict) -> list[tuple[str, float]]:
    """(name, self seconds) for every span of one process."""
    spans = record["spans"]
    covered = defaultdict(float)
    for _name, start, end, parent, _request in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(name, end - start - covered[index])
            for index, (name, start, end, _parent, _request)
            in enumerate(spans)]


def summarize(records: list[dict]) -> dict:
    """Per-layer self-time totals and counts over ``records``."""
    seconds: Counter = Counter()
    counts: Counter = Counter()
    spans = 0
    for record in records:
        for name, own in self_times(record):
            seconds[name] += own
            spans += 1
        # A child process's own time splits at its first engine call:
        # start-up (interpreter boot, imports, job or CLI parsing) and
        # the rest (result serialization, exit).
        marks = record.get("marks") or {}
        if "run_job" in marks and "started" in record:
            startup = marks["run_job"] - record["started"]
            seconds["process.startup"] += startup
            seconds["process"] -= startup
        counts.update(record.get("counts") or {})
        counts.update({f"cache.{key}": value for key, value
                       in (record.get("cache") or {}).items()})
    return {"seconds": seconds, "counts": counts, "spans": spans}
