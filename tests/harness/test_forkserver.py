"""Fork-server workers: a forked child must be indistinguishable from a
fresh ``python -m repro.harness.worker`` process — same results, no
state carried between jobs, the same exit statuses — and the server's
death or a watchdog kill must leave no process behind."""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.manifest import ENTRIES
from repro.harness.faults import CRASH_EXIT_CODE, parse_faults
from repro.harness.forkserver import ForkServer, worker_env
from repro.harness.pool import WorkerPool, WorkTask
from repro.harness.quotas import Quotas
from repro.obs.profile import DEFAULT_JIT_THRESHOLD

CLEAN = "int main(void) { return 0; }\n"
# Long enough in the interpreter (a few seconds) to be killed mid-run.
SPIN = ("int main(void) {\n"
        "    volatile unsigned s = 0;\n"
        "    for (unsigned i = 0; i < 200000; i++) s += i;\n"
        "    return 0;\n"
        "}\n")


def _serve_options(cache_dir):
    """The options ``repro serve`` runs its top rung with."""
    options = dict(Quotas().engine_options())
    options.update(elide_checks=True, jit_threshold=DEFAULT_JIT_THRESHOLD,
                   use_cache=True, cache_dir=cache_dir)
    return options


def _job(entry, options, **extra):
    job = {"corpus_entry": entry, "id": entry, "tool": "safe-sulong",
           "options": options, "max_steps": Quotas().max_steps}
    job.update(extra)
    return job


def _fresh(job, workdir):
    """Run one job in a fresh worker process; returns its payload."""
    path = os.path.join(workdir, f"fresh-{job['id']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    done = subprocess.run(
        [sys.executable, "-m", "repro.harness.worker", path],
        stdin=subprocess.DEVNULL, capture_output=True, env=worker_env(),
        cwd=workdir, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def _forked(server, job, workdir):
    """Run one job in a child of ``server``; returns (status, payload,
    stderr text)."""
    stem = os.path.join(workdir, f"forked-{job['id']}-{time.time_ns()}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    worker = server.spawn(stem + ".json", cwd=workdir,
                          stdout=stem + ".out", stderr=stem + ".err",
                          tool=job["tool"], options=job["options"])
    status = worker.wait()
    with open(stem + ".out", encoding="utf-8") as handle:
        out = handle.read()
    with open(stem + ".err", encoding="utf-8") as handle:
        err = handle.read()
    payload = json.loads(out.strip().splitlines()[-1]) if out.strip() \
        else None
    return status, payload, err


def _canonical(result):
    return json.dumps(result, sort_keys=True)


def _running(pid):
    """True while ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    except OSError:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return state not in ("Z", "X")


def _gone(pids, within):
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        if not any(_running(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


@pytest.fixture()
def server():
    with ForkServer() as owned:
        yield owned


class TestDifferential:
    def test_every_corpus_entry_matches_a_fresh_process(self, tmp_path,
                                                        server):
        """All 68 corpus entries at serve's top rung: the forked
        worker's serialized result (status, bugs with stacks,
        stdout/stderr bytes) is byte-identical to a fresh process's."""
        assert len(ENTRIES) == 68
        options = _serve_options(str(tmp_path / "cache"))
        jobs = [_job(entry.name, options) for entry in ENTRIES]
        # Warm the shared cache so both sides read the same artifacts.
        _fresh(jobs[0], str(tmp_path))
        with ThreadPoolExecutor(max_workers=2) as executor:
            fresh = list(executor.map(
                lambda job: _fresh(job, str(tmp_path)), jobs))
        pool = WorkerPool(jobs=2, timeout=300.0, retries=0,
                          use_ladder=False, fork_server=server)
        records = pool.run([WorkTask(job["id"], job, options=options,
                                     index=index)
                            for index, job in enumerate(jobs)])
        mismatched = []
        for job, payload, record in zip(jobs, fresh, records):
            assert payload["ok"], payload
            assert record["attempts"] == 1, record["worker_failures"]
            if _canonical(record["result"]) \
                    != _canonical(payload["result"]):
                mismatched.append(job["id"])
        assert not mismatched
        assert all(record["result"]["bugs"] for record in records)


class TestIsolation:
    def test_back_to_back_jobs_see_no_state_of_each_other(self, tmp_path,
                                                          server):
        """Two jobs from one server prepare and prove exactly the
        functions they would in two fresh processes, and re-running the
        first after the second reproduces it: module elision and
        memory-tier cache entries die with each child."""
        options = _serve_options(str(tmp_path / "cache"))
        first = _job("uaf_queue_pop", options, collect_metrics=True)
        second = _job("null_list_head", options, collect_metrics=True)

        def view(payload):
            result = dict(payload["result"])
            metrics = result.pop("metrics")
            return {
                "result": _canonical(result),
                "functions": metrics["functions"],
                "proved": metrics.get("proved"),
                "steps": metrics["steps"],
                "counters": {key: value for key, value
                             in metrics["counters"].items()
                             if not key.startswith("cache.")},
                # Which tier served each lookup: a memory-tier entry
                # left behind by an earlier job would show up here.
                "cache": [(event["event"], event.get("artifact"),
                           event.get("tier"))
                          for event in metrics["events"]
                          if event["event"].startswith("cache-")],
            }

        fresh = [view(_fresh(job, str(tmp_path))) for job in (first,
                                                              second)]
        forked = []
        for job in (first, second, first):
            status, payload, err = _forked(server, job, str(tmp_path))
            assert status == 0, err
            forked.append(view(payload))
        assert fresh[0]["proved"] and fresh[1]["proved"]
        # The fresh runs met a cold cache, the forked ones a warm one:
        # compare everything but the cache traffic with them...
        for got, want in ((forked[0], fresh[0]), (forked[1], fresh[1]),
                          (forked[2], fresh[0])):
            assert {**got, "cache": None} == {**want, "cache": None}
        # ...and the cache traffic of the two forked runs of one job.
        # Nothing is served from the memory tier: the parent holds no
        # entry but libc (which a child finds loaded, not looked up).
        assert forked[0]["cache"] and forked[2] == forked[0]
        assert all(tier != "memory" for view in forked
                   for _event, _artifact, tier in view["cache"])
        state = server.status()
        # The parent ran nothing: no child is left, and the memory tier
        # of its one cache holds the libc bundle and nothing else.
        assert state["live"] == []
        assert state["libc"] == {options["cache_dir"]: ["frontend"]}


class TestServerDeath:
    def test_sigkilled_server_mid_batch(self, server):
        """Kill the fork-server while workers run: the victims die with
        it (long before their programs would end), every task still
        completes through retry, and the next spawn starts a new
        server."""
        victims = []
        killed = []
        died = []

        def on_tick(_ids):
            if killed:
                return
            state = server.status()
            if not state["live"]:
                return
            victims.extend(state["live"])
            killed.append(state["pid"])
            os.kill(state["pid"], signal.SIGKILL)
            died.append(_gone(victims, within=1.0))

        tasks = [WorkTask(f"spin{i}", {"source": SPIN,
                                       "filename": f"spin{i}.c",
                                       "max_steps": 50_000_000},
                          index=i) for i in range(3)]
        pool = WorkerPool(jobs=2, timeout=120.0, retries=2, backoff=0.02,
                          on_tick=on_tick, tick_interval=0.05,
                          fork_server=server)
        records = pool.run(tasks)
        assert killed and victims
        assert died == [True], "a worker outlived its fork-server"
        assert [record["triage"] for record in records] == ["ok"] * 3
        retried = [record for record in records if record["attempts"] > 1]
        assert retried
        assert all("exit code -9" in record["worker_failures"][0]
                   for record in retried)
        assert server.status()["pid"] != killed[0]

    def test_bare_pool_stops_its_own_server(self):
        pool = WorkerPool(jobs=1, timeout=60.0, retries=0)
        record = pool.run([WorkTask("clean", {"source": CLEAN,
                                              "filename": "clean.c"})])[0]
        assert record["triage"] == "ok"
        assert record["spawn_s"] is not None and record["spawn_s"] >= 0
        # The pool's own server was stopped and reaped before run()
        # returned: nothing of it is left among our children.
        with pytest.raises(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass


class TestCacheOff:
    def test_server_holds_no_libc_without_the_cache(self, tmp_path,
                                                    server):
        job = {"source": CLEAN, "filename": "clean.c", "id": "clean",
               "tool": "safe-sulong", "options": {"use_cache": False}}
        status, payload, err = _forked(server, job, str(tmp_path))
        assert status == 0 and payload["ok"], err
        assert server.status()["libc"] == {}
        cached = dict(job, options={"use_cache": True,
                                    "cache_dir": str(tmp_path / "c")})
        status, payload, err = _forked(server, cached, str(tmp_path))
        assert status == 0 and payload["ok"], err
        assert server.status()["libc"] == {str(tmp_path / "c"):
                                           ["frontend"]}


class TestExitStatus:
    def _fault_job(self, fault):
        return {"source": CLEAN, "filename": "f.c", "id": fault,
                "tool": "safe-sulong", "options": {}, "fault": fault}

    def test_crash_reads_its_exit_code(self, tmp_path, server):
        status, payload, _ = _forked(server, self._fault_job("crash"),
                                     str(tmp_path))
        assert status == CRASH_EXIT_CODE and payload is None

    def test_worker_kill_reads_as_signal(self, tmp_path, server):
        status, payload, err = _forked(
            server, self._fault_job("worker-kill"), str(tmp_path))
        assert status == -signal.SIGKILL and payload is None
        assert "injected worker kill" in err

    def test_hang_is_killed_through_the_server(self, tmp_path, server):
        job = self._fault_job("hang")
        path = str(tmp_path / "hang.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        err_path = str(tmp_path / "hang.err")
        worker = server.spawn(path, cwd=str(tmp_path),
                              stdout=str(tmp_path / "hang.out"),
                              stderr=err_path, options={})
        deadline = time.monotonic() + 30
        while not os.path.exists(err_path) \
                or "injected hang" not in open(err_path).read():
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert worker.poll() is None
        worker.kill()
        assert worker.wait() == -signal.SIGKILL
        assert _gone([worker.pid], within=5.0)

    def test_watchdog_keeps_the_hang_tail(self):
        pool = WorkerPool(jobs=1, timeout=1.5, retries=0,
                          fault_plan=parse_faults("hang@stuck"))
        task = WorkTask("stuck", {"source": CLEAN, "filename": "s.c"})
        record = pool.run([task])[0]
        assert record["timed_out"] and record["triage"] == "timeout"
        assert "injected hang" in record["stderr_tail"]
