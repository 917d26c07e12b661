"""Start-up hook for the processes a traced benchmark run starts.

Python imports ``sitecustomize`` at start-up from ``PYTHONPATH``; the
benchmark puts this directory there (and the pool passes it on to its
workers) only for traced runs.  When ``PERFBENCH_TRACE_DIR`` is set,
the layer wrappers are installed, a root span is opened at the
process's start, and at exit the spans are written to
``<trace dir>/<pid>.json``.  A process without a request id (the
``repro serve`` parent itself) records nothing.
"""

import os
import sys


def _process_start(now: float) -> float:
    """The perf_counter reading at this process's exec (10 ms ticks)."""
    import time
    try:
        with open("/proc/self/stat", "r") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return now
    return now - max(0.0, age)


def _request() -> str | None:
    request = os.environ.get("PERFBENCH_REQUEST")
    if request:
        return request
    argv = sys.argv
    # ``python -m repro.harness.worker JOBFILE``: at start-up argv[0] is
    # still "-m"; the job file names the corpus entry.
    if len(argv) == 2 and argv[1].endswith(".json") \
            and os.path.basename(argv[1]).startswith("job-"):
        import json
        try:
            with open(argv[1], "r", encoding="utf-8") as handle:
                job = json.load(handle)
        except (OSError, ValueError):
            return None
        return "worker:" + str(job.get("corpus_entry") or job.get("id"))
    return None


def _start() -> None:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        return
    request = _request()
    if request is None:
        return
    import atexit
    import json
    import time

    now = time.perf_counter()
    sys.path.append(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import layertrace

    tracer = layertrace.Tracer()
    tracer.request = request
    started = _process_start(now)
    root = tracer.begin("process", start=started)
    layertrace.install(tracer)

    def dump() -> None:
        tracer.end(root)
        record = tracer.record(started=started,
                               cache=layertrace.cache_counts())
        path = os.path.join(trace_dir, f"{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)

    atexit.register(dump)


_start()
