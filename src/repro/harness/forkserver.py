"""Fork-server: one pre-imported parent that forks a worker per job.

Booting a worker costs more than most programs take to run: interpreter
start-up, importing the engine, hashing the libc sources for the bundle
key and re-parsing the libc IR.  The fork-server pays that once.  It is
one exec'd, single-threaded process (``python -m repro.harness.worker
--fork-server``) that imports the worker, :mod:`repro.tools` and the
engine, loads the libc bundle through the compilation cache for each
cache configuration a job asks for, and then forks one child per job.
The child points its stdout/stderr at the pool's files and runs the
ordinary :func:`repro.harness.worker.main` on the job file, so a forked
worker is the same program as a fresh one, started later.

What the parent may hold, and what it may never do:

* it holds imports and libc modules loaded through the cache — nothing
  else.  With the cache off it loads nothing: the child compiles libc
  itself, exactly as ``--no-cache`` means;
* it never runs a program, never starts a thread and never calls
  ``setsid``.  Each child is a copy-on-write snapshot of a parent that
  has run nothing, so no state one job creates (module elision, memory-
  tier cache entries, JIT code) can reach the next, and the server stays
  in its owner's process group, where ``killpg`` sweeps reach it.

Control protocol (one JSON object per line; requests on the server's
stdin, replies on its stdout):

``{"op": "spawn", "seq", "job", "cwd", "stdout", "stderr", "tool", "options"}``
    fork a child for the job file; reply ``{"spawned": seq, "pid"}`` or
    ``{"spawned": seq, "error"}``;
``{"op": "kill", "pid"}``
    SIGKILL the child — only if it is still unreaped, so a pid the
    kernel may have reused is never signalled;
``{"op": "status"}``
    reply ``{"status": {"pid", "live", "libc"}}``: ``libc`` maps each
    cache configuration the server loaded libc for to the artifact
    classes in that cache's memory tier (the libc bundle alone, as long
    as the server has run nothing).

Unprompted, the server reports every child's exit as ``{"exited": pid,
"status"}``, ``status`` read like ``Popen.returncode`` (negative for a
signal).
When its stdin reaches EOF — the owner closed it, or died, even by
``kill -9`` — the server SIGKILLs and reaps its live children and
exits.  Children also carry ``PR_SET_PDEATHSIG``, so a server that is
itself SIGKILLed takes them down with it.

:class:`ForkServer` is the owner's handle.  It starts the server on
first use, hands out :class:`ForkedWorker` objects with the ``poll``/
``wait``/``kill`` subset of ``Popen`` that the pool uses, and restarts
the server on the next spawn after it dies (the attempts in flight
become ordinary worker failures).
"""

from __future__ import annotations

import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
import weakref

# How long an owner waits for the answer to a spawn request.  The first
# spawn of a server includes its boot and (cold) libc compile; a server
# that stays silent this long is wedged and gets replaced.
SPAWN_REPLY_TIMEOUT = 60.0

# Exit code of a child whose set-up failed before the worker ran.
SETUP_FAILED = 70

_PR_SET_PDEATHSIG = 1


def worker_env() -> dict:
    """The environment of the server process: the caller's, with this
    checkout's ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root + os.pathsep + existing
                         if existing else src_root)
    return env


# ---------------------------------------------------------------------------
# Owner side
# ---------------------------------------------------------------------------


class ForkedWorker:
    """One forked child, as the pool sees it (the ``Popen`` subset its
    reaper and watchdog use)."""

    __slots__ = ("server", "pid", "returncode")

    def __init__(self, server: "ForkServer", pid: int):
        self.server = server
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            self.server.pump(0)
        return self.returncode

    def wait(self) -> int:
        while self.returncode is None:
            self.server.pump(None)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            self.server.kill(self.pid)


def _terminate(proc: subprocess.Popen) -> None:
    """Close the control pipe (the server then kills its children and
    exits) and reap the server."""
    for stream in (proc.stdin, proc.stdout):
        try:
            stream.close()
        except OSError:
            pass
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class ForkServer:
    """The owner's handle on one fork-server process.

    Not thread-safe: one pool drives it at a time.  ``stop()`` (or
    leaving the ``with`` block, or dropping the last reference) closes
    the control pipe and waits for the server."""

    def __init__(self):
        self._proc: subprocess.Popen | None = None
        self._finalizer = None
        self._buffer = b""
        self._seq = 0
        self._spawned: dict[int, ForkedWorker | str] = {}
        self._live: dict[int, ForkedWorker] = {}
        self._status: dict | None = None

    def __enter__(self) -> "ForkServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- lifecycle ----------------------------------------------------------------

    def _start(self) -> None:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.worker", "--fork-server"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=worker_env())
        os.set_blocking(proc.stdout.fileno(), False)
        self._proc = proc
        self._buffer = b""
        self._finalizer = weakref.finalize(self, _terminate, proc)

    def stop(self) -> None:
        """Stop the server (its live children die with it) and reap it."""
        self._lost(graceful=True)

    def _lost(self, graceful: bool = False) -> None:
        """The server is gone — stopped, dead, or wedged (then it is
        SIGKILLed): reap it, and let every child in flight read as
        SIGKILLed, which through the server's EOF handling or the
        children's death signal is what happened to them."""
        proc, self._proc = self._proc, None
        if proc is not None:
            self._finalizer.detach()
            if not graceful and proc.poll() is None:
                proc.kill()
            _terminate(proc)
        for worker in self._live.values():
            worker.returncode = -signal.SIGKILL
        self._live.clear()
        self._buffer = b""

    # -- control pipe -------------------------------------------------------------

    def _send(self, message: dict) -> bool:
        proc = self._proc
        if proc is None:
            return False
        try:
            proc.stdin.write(json.dumps(message).encode("utf-8") + b"\n")
            proc.stdin.flush()
        except (BrokenPipeError, ValueError, OSError):
            self._lost()
            return False
        return True

    def pump(self, timeout: float | None) -> None:
        """Read whatever the server has said, waiting up to ``timeout``
        seconds (None: until it says something) for the first byte.
        Without a server this is a plain sleep."""
        proc = self._proc
        if proc is None:
            if timeout:
                time.sleep(timeout)
            return
        fd = proc.stdout.fileno()
        if timeout != 0:
            ready, _, _ = select.select([fd], [], [], timeout)
            if not ready:
                return
        try:
            data = os.read(fd, 65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._lost()
            return
        self._buffer += data
        *lines, self._buffer = self._buffer.split(b"\n")
        for line in lines:
            if line.strip():
                self._dispatch(json.loads(line))

    def _dispatch(self, message: dict) -> None:
        if "spawned" in message:
            if "error" in message:
                self._spawned[message["spawned"]] = message["error"]
                return
            worker = ForkedWorker(self, message["pid"])
            self._live[worker.pid] = worker
            self._spawned[message["spawned"]] = worker
        elif "exited" in message:
            worker = self._live.pop(message["exited"], None)
            if worker is not None:
                worker.returncode = message["status"]
        elif "status" in message:
            self._status = message["status"]
        else:
            # A server that speaks another protocol (its source changed
            # under a running owner) would never report exits: replace
            # it rather than wait on it.
            self._lost()

    def _await(self, check, what: str):
        deadline = time.monotonic() + SPAWN_REPLY_TIMEOUT
        while True:
            found = check()
            if found is not None:
                return found
            if self._proc is None:
                raise OSError(f"fork-server exited before answering "
                              f"{what}")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._lost()
                raise OSError(f"fork-server did not answer {what} in "
                              f"{SPAWN_REPLY_TIMEOUT:.0f}s")
            self.pump(remaining)

    # -- requests -----------------------------------------------------------------

    def _ensure_running(self) -> None:
        if self._proc is None or self._proc.poll() is not None:
            self._lost()
            self._start()

    def spawn(self, job_path: str, *, cwd: str, stdout: str, stderr: str,
              tool: str = "safe-sulong",
              options: dict | None = None) -> ForkedWorker:
        """Fork a worker for ``job_path``; raises OSError when no child
        could be started (the pool retries it like any worker
        failure)."""
        self._ensure_running()
        self._seq += 1
        seq = self._seq
        if not self._send({"op": "spawn", "seq": seq, "job": job_path,
                           "cwd": cwd, "stdout": stdout,
                           "stderr": stderr, "tool": tool,
                           "options": options or {}}):
            raise OSError("fork-server control pipe closed")
        reply = self._await(lambda: self._spawned.pop(seq, None),
                            "a spawn request")
        if isinstance(reply, str):
            raise OSError(reply)
        return reply

    def kill(self, pid: int) -> None:
        if pid in self._live:
            self._send({"op": "kill", "pid": pid})

    def status(self) -> dict:
        """The server's own view: its pid, live children and the cache
        configurations it holds libc for (starts it if needed)."""
        self._ensure_running()
        self._status = None
        if not self._send({"op": "status"}):
            raise OSError("fork-server control pipe closed")
        return self._await(lambda: self._status, "a status request")


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


def _preload() -> None:
    """Import everything a worker imports on its way to a result, so a
    child starts with it in place."""
    from .. import tools  # noqa: F401 — imported for the children
    from ..analysis.interproc import driver  # noqa: F401
    from ..cache import resolve_cache  # noqa: F401
    from ..cfront import errors  # noqa: F401
    from ..corpus import manifest  # noqa: F401
    from ..ir import module  # noqa: F401
    from ..libc import loader  # noqa: F401
    from ..obs import spans  # noqa: F401
    from ..opt import elide  # noqa: F401
    from . import worker  # noqa: F401


def _prctl():
    """``prctl(PR_SET_PDEATHSIG, SIGKILL)`` for the children, or None
    where it is unavailable (non-Linux)."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl
    except (OSError, AttributeError):
        return None


class _Server:
    def __init__(self, requests: int, replies: int):
        self.requests = requests
        self.replies = replies
        self.pid = os.getpid()
        self.live: set[int] = set()
        # cache configuration -> (cache, the libc module loaded through it)
        self.libc: dict[str, tuple] = {}
        self.prctl = _prctl()
        self.wake_r, self.wake_w = os.pipe()
        os.set_blocking(self.wake_r, False)
        os.set_blocking(self.wake_w, False)
        # SIGCHLD wakes select() through the wakeup fd; the handler
        # itself has nothing to do.
        signal.signal(signal.SIGCHLD, lambda *_args: None)
        signal.set_wakeup_fd(self.wake_w, warn_on_full_buffer=False)

    def reply(self, message: dict) -> None:
        data = json.dumps(message).encode("utf-8") + b"\n"
        while data:
            written = os.write(self.replies, data)
            data = data[written:]

    # -- libc ---------------------------------------------------------------------

    def libc_for(self, tool: str, options: dict, cwd: str):
        """The libc module a child of this job should find loaded, or
        None when the job's options leave the cache off (the child then
        compiles libc itself, as a fresh process would)."""
        if tool != "safe-sulong" or not (options.get("use_cache")
                                         or options.get("cache_dir")):
            return None
        from ..cache import resolve_cache
        from ..libc import loader
        # The child runs in ``cwd``: a relative cache directory means
        # the one there.
        key = os.path.join(cwd, options["cache_dir"]) \
            if options.get("cache_dir") else ""
        if key not in self.libc:
            cache = resolve_cache(key or None)
            if cache is None:  # REPRO_NO_CACHE
                return None
            loader._CACHED = None
            try:
                self.libc[key] = cache, loader.libc_module(cache=cache)
            except Exception:  # noqa: BLE001 — the child reports it
                return None
            finally:
                loader._CACHED = None
            # Keep the collector off the loaded objects: children then
            # never write to (and so never copy) those pages.
            gc.freeze()
        return self.libc[key][1]

    # -- requests -----------------------------------------------------------------

    def spawn(self, request: dict) -> None:
        from ..libc import loader
        loader._CACHED = self.libc_for(request.get("tool", "safe-sulong"),
                                       request.get("options") or {},
                                       request["cwd"])
        try:
            pid = os.fork()
        except OSError as error:
            self.reply({"spawned": request["seq"],
                        "error": f"fork failed: {error}"})
            return
        if pid == 0:
            self.child(request)
        self.live.add(pid)
        self.reply({"spawned": request["seq"], "pid": pid})

    def child(self, request: dict) -> None:
        """In the forked child: become the worker for one job and exit
        with its code.  Never returns."""
        code = SETUP_FAILED
        try:
            if self.prctl is not None:
                self.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
                if os.getppid() != self.pid:
                    os._exit(SETUP_FAILED)
            signal.set_wakeup_fd(-1)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
            for fd in (self.requests, self.replies, self.wake_r,
                       self.wake_w):
                os.close(fd)
            os.chdir(request["cwd"])
            for target, path in ((1, request["stdout"]),
                                 (2, request["stderr"])):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                             0o644)
                os.dup2(fd, target)
                os.close(fd)
            from . import worker
            code = worker.main([request["job"]])
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
        except BaseException:  # noqa: BLE001 — report, then exit
            import traceback
            traceback.print_exc()
            code = 1
        finally:
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)

    def kill(self, pid: int) -> None:
        if pid in self.live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def reap(self) -> None:
        while self.live:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                self.live.clear()
                return
            if pid == 0:
                return
            self.live.discard(pid)
            self.reply({"exited": pid,
                        "status": os.waitstatus_to_exitcode(status)})

    def handle(self, request: dict) -> None:
        op = request.get("op")
        if op == "spawn":
            self.spawn(request)
        elif op == "kill":
            self.kill(request.get("pid"))
        elif op == "status":
            self.reply({"status": {
                "pid": self.pid, "live": sorted(self.live),
                "libc": {key: cache.store.memory_classes()
                         for key, (cache, _module) in self.libc.items()}}})

    def shutdown(self) -> None:
        for pid in list(self.live):
            self.kill(pid)
        for pid in list(self.live):
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
        self.live.clear()

    def loop(self) -> int:
        buffer = b""
        try:
            while True:
                ready, _, _ = select.select(
                    [self.requests, self.wake_r], [], [], 1.0)
                if self.wake_r in ready:
                    try:
                        while os.read(self.wake_r, 512):
                            pass
                    except BlockingIOError:
                        pass
                self.reap()
                if self.requests not in ready:
                    continue
                data = os.read(self.requests, 65536)
                if not data:
                    return 0
                buffer += data
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    if line.strip():
                        self.handle(json.loads(line))
        except BrokenPipeError:
            return 0
        finally:
            self.shutdown()


def serve() -> int:
    """Entry point of ``python -m repro.harness.worker --fork-server``."""
    # Private copies of the control pipe; fds 0 and 1 point elsewhere so
    # nothing printed by the server (or by a child before it redirects)
    # can reach the protocol.
    requests, replies = os.dup(0), os.dup(1)
    null = os.open(os.devnull, os.O_RDONLY)
    os.dup2(null, 0)
    os.close(null)
    os.dup2(2, 1)
    # The owner decides the server's lifetime (EOF on the control pipe);
    # a terminal ^C reaches the owner, which then stops it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _preload()
    gc.freeze()
    return _Server(requests, replies).loop()
