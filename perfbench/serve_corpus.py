"""serve-corpus: the bug corpus through ``repro serve`` over HTTP.

Two closed-loop clients, each with ``DEPTH`` (4) tasks in flight (it
waits for its oldest task to complete before sending the next), submit
the 68 corpus entries, in a seed-shuffled order, to a
``repro serve --jobs 2`` child at the service's default top rung
(elision + JIT).  The headline is wall time per completed job over the
timed pass.  Set-up starts the server and primes its fresh cache with
one program outside the corpus, so every timed job finds libc and
analysis artifacts warm but its own front-end entry cold.
"""

from __future__ import annotations

import base64
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import layertrace
from common import (Context, Outcome, median, percentile, set_timings,
                    verdict_problem)

JOBS = 2
CLIENTS = 2
# Tasks each client keeps in flight.  With one, the two clients' tasks
# often land in different lease batches, and since a batch finishes
# before the next is leased, throughput flips between one and two busy
# workers from run to run.
DEPTH = 4
SETUPS = 3
JOB_TIMEOUT = 90.0
PRIME_POLL_S = 0.02

PRIME_SOURCE = """\
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int main(void) {
    char *word = malloc(16);
    strcpy(word, "perfbench");
    printf("%s %d\\n", word, (int)strlen(word));
    free(word);
    return 0;
}
"""
PRIME_STDOUT = b"perfbench 9\n"


def _post(url: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, {}


def _follow(base: str, task_id: str, deadline: float) -> dict | None:
    """The job's completion entry, or None if it did not finish in time."""
    while time.monotonic() < deadline:
        wait = max(1.0, min(60.0, deadline - time.monotonic()))
        last = None
        with urllib.request.urlopen(f"{base}/job/{task_id}?wait={wait:.0f}",
                                    timeout=wait + 30) as response:
            for line in response:
                if line.strip():
                    last = json.loads(line)
        if last and last.get("state") == "done":
            return last
    return None


class Server:
    """One ``repro serve`` child with a fresh state and cache directory."""

    def __init__(self, ctx: Context, name: str, trace_dir: str | None):
        self.state = ctx.path(name, "state")
        self.cache = ctx.path(name, "cache")
        os.makedirs(self.state)
        announce = os.path.join(self.state, "serve.json")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--quiet",
             "--state-dir", self.state, "--cache-dir", self.cache,
             "--port", "0", "--jobs", str(JOBS)],
            env=ctx.child_env(trace_dir), cwd=ctx.work,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True)
        deadline = time.monotonic() + 60
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited early (rc={self.process.returncode})")
            try:
                with open(announce, "r", encoding="utf-8") as handle:
                    port = json.load(handle)["port"]
                break
            except (FileNotFoundError, ValueError, KeyError):
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("serve announced no port in 60s")
                time.sleep(0.02)
        self.base = f"http://127.0.0.1:{port}"

    def stop(self) -> None:
        """SIGTERM, wait, then sweep the process group so no pool worker
        outlives the server."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _poll(base: str, task_id: str, deadline: float) -> dict | None:
    """Like ``_follow``, but asks every ``PRIME_POLL_S`` without waiting.
    ``?wait`` answers in steps of the server's 0.25 s poll interval, and
    the priming job ends close to a step boundary, so set-up time would
    read in two modes a quarter second apart from one run to the next."""
    while time.monotonic() < deadline:
        with urllib.request.urlopen(f"{base}/job/{task_id}?wait=0",
                                    timeout=30) as response:
            entry = json.loads(response.read().splitlines()[-1])
        if entry.get("state") == "done":
            return entry
        time.sleep(PRIME_POLL_S)
    return None


def _prime(server: Server, campaign: str) -> str | None:
    """Run the priming program; returns a failure description or None."""
    status, reply = _post(server.base + "/submit", {
        "source": PRIME_SOURCE, "filename": "prime.c",
        "campaign": campaign})
    if status != 202:
        return f"prime: HTTP {status}"
    entry = _poll(server.base, reply["id"], time.monotonic() + JOB_TIMEOUT)
    result = ((entry or {}).get("record") or {}).get("result") or {}
    stdout = base64.b64decode(result.get("stdout_b64", ""))
    if result.get("bugs") or result.get("status") != 0 \
            or stdout != PRIME_STDOUT:
        return f"prime: wrong result {json.dumps(result)[:200]}"
    return None


def judge(entry: dict | None, expected) -> str | None:
    """None when the job finished with its first bug report matching the
    manifest entry ``expected``, else what went wrong."""
    if entry is None:
        return "timeout"
    record = entry.get("record") or {}
    if record.get("timed_out"):
        return "worker timeout"
    if record.get("worker_error"):
        return f"worker crash: {record['worker_error'][:120]}"
    result = record.get("result") or {}
    if result.get("internal_error"):
        return f"internal error: {result['internal_error'][:120]}"
    bugs = result.get("bugs") or [{}]
    return verdict_problem(expected, bugs[0].get("kind"),
                           bugs[0].get("access"), bugs[0].get("direction"))


class Clients:
    """Closed-loop clients sharing one seed-shuffled entry sequence."""

    def __init__(self, server: Server, entries: list[str],
                 expected: dict, seed: int, outcome: Outcome):
        self.server = server
        self.entries = entries
        self.expected = expected
        self.seed = seed
        self.outcome = outcome
        self.lock = threading.Lock()
        self.next = 0
        self.jobs: list[dict] = []
        self.end = 0.0

    def _take(self) -> tuple[str, str]:
        with self.lock:
            cycle, index = divmod(self.next, len(self.entries))
            self.next += 1
        # Another pass over the corpus needs fresh task ids, which are
        # content-addressed: the campaign tag carries the pass number.
        return self.entries[index], f"perfbench-{self.seed}-{cycle}"

    def _submit(self) -> dict:
        name, campaign = self._take()
        job = {"name": name, "submitted": time.monotonic(), "id": None,
               "problem": None}
        try:
            status, reply = _post(self.server.base + "/submit", {
                "corpus_entry": name, "campaign": campaign})
        except (OSError, ValueError) as error:
            job["problem"] = f"client error: {error}"
            return job
        job["acked"] = time.monotonic()
        if status == 202:
            job["id"] = reply["id"]
        else:
            job["problem"] = f"HTTP {status}"
        return job

    def _finish(self, job: dict) -> None:
        entry = None
        problem = job["problem"]
        if problem is None:
            try:
                entry = _follow(self.server.base, job["id"],
                                job["acked"] + JOB_TIMEOUT)
                problem = judge(entry, self.expected[job["name"]])
            except (OSError, ValueError) as error:
                problem = f"client error: {error}"
        done = time.monotonic()
        with self.lock:
            self.end = max(self.end, done)
            if not self.outcome.check(problem is None,
                                      f"{job['name']}: {problem}"):
                return
            record = entry["record"]
            self.jobs.append({
                "name": job["name"],
                "submit_s": job["acked"] - job["submitted"],
                "latency_s": done - job["submitted"],
                "duration_s": record.get("duration_s") or 0.0,
                "queue_s": record.get("queue_s") or 0.0,
                "attempts": record.get("attempts") or 1,
                "rung_index": record.get("rung_index") or 0})

    def _client(self, stop_at: float) -> None:
        """Keep ``DEPTH`` tasks in flight; wait on the oldest before
        sending the next."""
        in_flight: list[dict] = []
        while in_flight or time.monotonic() < stop_at:
            while len(in_flight) < DEPTH and time.monotonic() < stop_at:
                in_flight.append(self._submit())
            self._finish(in_flight.pop(0))

    def run(self, seconds: float) -> float:
        start = time.monotonic()
        threads = [threading.Thread(target=self._client,
                                    args=(start + seconds,))
                   for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return max(self.end, start) - start


def run(ctx: Context, entries: list[str] | None = None,
        expected: dict | None = None, setups: int = SETUPS) -> Outcome:
    """``expected`` maps an entry name to its manifest entry (the
    corpus manifest unless given)."""
    from repro.corpus.manifest import ENTRIES

    outcome = Outcome()
    if expected is None:
        expected = {entry.name: entry for entry in ENTRIES}
    entries = list(entries or expected)
    random.Random(ctx.seed).shuffle(entries)
    trace_dir = ctx.path("trace") if ctx.trace else None
    if trace_dir:
        os.makedirs(trace_dir)

    ctx.calibration.start()
    setup_times = []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(ctx, f"serve-{attempt}", trace_dir)
            problem = _prime(server, f"perfbench-{ctx.seed}-prime")
            setup_times.append(time.perf_counter() - started)
            outcome.check(problem is None, problem or "")
        clients = Clients(server, entries, expected, ctx.seed, outcome)
        wall = clients.run(ctx.seconds)
    finally:
        if server is not None:
            server.stop()

    jobs = clients.jobs
    if not jobs:
        outcome.failures.append("no job completed")
        return outcome
    per_job = wall / len(jobs)
    outcome.operations = len(jobs)
    retries = sum(job["attempts"] - 1 for job in jobs)
    descents = sum(1 for job in jobs if job["rung_index"] > 0)
    if retries or descents:
        outcome.flags.append(f"degraded: {retries} retries, {descents} "
                             "jobs on a lower rung")
    set_timings(ctx, outcome, per_job, median(setup_times))
    latencies = [job["latency_s"] for job in jobs]
    outcome.samples = {"setup_s": setup_times, "latency_s": latencies,
                       "worker_s": [job["duration_s"] for job in jobs]}
    outcome.layers = {
        "service.jobs_per_s": (len(jobs) / wall, "jobs/s"),
        "service.submit_s": (median(job["submit_s"] for job in jobs), "s"),
        "service.latency_p50_s": (median(latencies), "s"),
        "service.latency_p85_s": (percentile(latencies, 0.85), "s"),
        "service.overhead_s": (median(job["latency_s"] - job["duration_s"]
                                      for job in jobs), "s"),
        "harness.worker_s": (sum(job["duration_s"] for job in jobs), "s"),
        "harness.queue_s": (sum(job["queue_s"] for job in jobs), "s"),
        "harness.retries": (retries, "count"),
        "harness.rung_descents": (descents, "count"),
    }
    if trace_dir:
        _worker_layers(outcome, trace_dir, jobs)
    return outcome


def _worker_layers(outcome: Outcome, trace_dir: str,
                   jobs: list[dict]) -> None:
    """Fold the worker processes' spans of the timed jobs into the
    layer table."""
    timed = {"worker:" + job["name"] for job in jobs}
    summary = layertrace.summarize(
        [record for record in layertrace.load(trace_dir)
         if record.get("request") in timed])
    outcome.trace_summary = summary
    # Self times nest, so over all spans they add up to the workers'
    # whole lives.  The root span's remainder ("process": result
    # serialization, exit) is the part no layer accounts for; start-up
    # up to run_job is the harness's own layer.
    seconds = summary["seconds"]
    glue = seconds.get("process", 0.0)
    layers = sum(seconds.values()) - glue
    worker_total = sum(job["duration_s"] for job in jobs)
    if worker_total:
        outcome.layers["harness.worker_accounted"] = (
            layers / worker_total, "ratio")
        outcome.layers["harness.worker_unaccounted"] = (
            glue / worker_total, "ratio")
