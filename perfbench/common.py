"""Shared plumbing for the benchmark: paths, the hermetic child
environment, statistics, memory and the provenance stamp."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess

from calibrate import REFERENCE_S, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK_DIR = os.path.join(HERE, "hook")
EXPECTED_DIR = os.path.join(HERE, "expected")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# Variables that would make a child share state with an earlier run, or
# inject faults into it.
SCRUBBED_ENV = ("REPRO_NO_CACHE", "REPRO_CACHE_DIR", "REPRO_HARNESS_FAULTS")
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
REQUEST_ENV = "PERFBENCH_REQUEST"


def have_sources() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


class Context:
    """One benchmark run: its seed, time budget, trace flag and a fresh
    private work directory inside the checkout."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        # Host-speed probe; the workload starts it (see calibrate.py).
        self.calibration = Calibration()
        self.work = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "tmp"))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def child_env(self, trace_dir: str | None = None,
                  request: str | None = None) -> dict:
        """The environment of every process a workload starts: no
        inherited cache or fault settings, temp files and the default
        cache location inside the work directory, and the start-up
        hook on ``PYTHONPATH`` when tracing."""
        env = {key: value for key, value in os.environ.items()
               if key not in SCRUBBED_ENV and key != "PYTHONPATH"
               and key not in (TRACE_DIR_ENV, REQUEST_ENV)}
        env["TMPDIR"] = self.path("tmp")
        env["XDG_CACHE_HOME"] = self.path("xdg-cache")
        paths = [SRC]
        if trace_dir is not None:
            paths.insert(0, HOOK_DIR)
            env[TRACE_DIR_ENV] = trace_dir
            if request is not None:
                env[REQUEST_ENV] = request
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def close(self) -> None:
        self.calibration.stop()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


class Outcome:
    """What one workload run measured.  ``samples`` maps a metric name
    to the raw values its figure summarizes (for the provenance
    stamp); ``failures`` holds one line per failed operation."""

    def __init__(self):
        self.attempted = 0
        # Timed operations behind the headline figure.
        self.operations = 0
        self.failures: list[str] = []
        self.flags: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        # layertrace.summarize() of the traced run's spans, if any.
        self.trace_summary: dict | None = None
        # Timings as measured, before scaling to the reference host.
        self.raw: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def set_timings(ctx: Context, outcome: Outcome, op_s: float | None,
                setup_s: float) -> None:
    """Stop the calibration probe and record the run's headline timings,
    scaled to the reference host by its chunk times, and the memory
    high-water mark."""
    ctx.calibration.stop()
    scale = ctx.calibration.scale()
    outcome.raw["setup_s"] = setup_s
    outcome.metrics["setup_s"] = (setup_s * scale, "s")
    if op_s is not None:
        outcome.raw["op_s"] = op_s
        outcome.metrics["op_s"] = (op_s * scale, "s")
    outcome.metrics["max_rss_mb"] = (max_rss_mb(), "MiB")
    outcome.layers["host.reference_s"] = (ctx.calibration.seconds(), "s")


def verdict_problem(entry, kind: str | None, access: str | None = None,
                    direction: str | None = None) -> str | None:
    """None when a first bug report matches the corpus manifest entry,
    judged as ``tests/corpus/test_corpus.py`` judges it, else what
    differs."""
    from repro.core.errors import BugKind

    if kind is None:
        return "no bug report"
    accepted = (entry.category,)
    if entry.category == BugKind.VARARGS:
        # The missing argument is read past the end of the varargs
        # array (paper section 3.4), so either kind is a detection.
        accepted = (BugKind.VARARGS, BugKind.OUT_OF_BOUNDS)
    if kind not in accepted:
        return f"verdict {kind!r}, expected {' or '.join(accepted)}"
    if entry.category == BugKind.OUT_OF_BOUNDS \
            and (access, direction) != (entry.access, entry.direction):
        return (f"out-of-bounds {access} {direction}, expected "
                f"{entry.access} {entry.direction}")
    return None


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def max_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when the checkout is
    not a git repository."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def provenance(ctx: Context, outcome: Outcome) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    summaries = {}
    for name, values in sorted(outcome.samples.items()):
        q1, q2, q3 = quartiles(values)
        summaries[name] = {"n": len(values), "median": q2,
                           "q1": q1, "q3": q3}
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "attempted": outcome.attempted,
        "failures": outcome.failures[:20],
        "flags": outcome.flags,
        "samples": summaries,
        "raw_s": outcome.raw,
        "calibration": {"reference_s": REFERENCE_S,
                        "samples": ctx.calibration.samples},
    }
