"""Durable job queue: idempotent submissions, leases, at-least-once.

State machine per task: ``queued → leased → done``, with
``leased → queued`` when a lease expires (the holder died) or is
explicitly requeued.  Every transition is one WAL record, so the queue
survives ``kill -9`` at any instant:

* a **submission** is acknowledged only after its ``submit`` record is
  fsynced — an accepted submission can never be lost;
* a **lease** carries a wall-clock deadline; a service restart (or a
  wedged batch) simply lets the deadline pass and
  :meth:`JobQueue.requeue_expired` returns the task to the queue —
  at-least-once delivery, with redelivery counted per task so fault
  plans and diagnostics can key on it;
* a **completion** is idempotent: the second ``complete`` for a task id
  (a redelivered task finishing twice) is a no-op, which is what makes
  downstream consumers (report lines, bug-database rows) exactly-once
  *in effect* even though delivery is at-least-once.

Task ids are content-addressed by default (:func:`task_id_for`), so
resubmitting the same program is recognized as the same job — the
service answers from the completed record instead of re-running it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time

from ..harness.faults import crash_point
from .wal import RESET_OP, WriteAheadLog

QUEUED = "queued"
LEASED = "leased"
DONE = "done"

DEFAULT_LEASE_TTL = 30.0
DEFAULT_KEEP_DONE = 10_000

# Fields of a worker record that can be unboundedly large; completion
# records are slimmed before they enter the WAL so one chatty program
# cannot bloat the queue's durable state.
_RECORD_B64_CAP = 64 * 1024


def task_id_for(task: dict) -> str:
    """Content-addressed task id: the same program text (and argv,
    stdin, quotas) submitted twice is the same job."""
    blob = json.dumps(task, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def slim_record(record: dict) -> dict:
    """A completion record bounded for durable storage: metrics and
    span payloads dropped, captured output capped."""
    record = dict(record)
    result = record.get("result")
    if isinstance(result, dict):
        result = dict(result)
        result.pop("metrics", None)
        result.pop("spans", None)
        for key in ("stdout_b64", "stderr_b64"):
            value = result.get(key)
            if isinstance(value, str) and len(value) > _RECORD_B64_CAP:
                result[key] = value[:_RECORD_B64_CAP]
                result[key.replace("_b64", "_truncated")] = True
        record["result"] = result
    return record


class JobQueue:
    """The durable queue over one :class:`WriteAheadLog`."""

    def __init__(self, directory: str, segment_bytes: int | None = None,
                 keep_done: int = DEFAULT_KEEP_DONE):
        kwargs = {}
        if segment_bytes is not None:
            kwargs["segment_bytes"] = segment_bytes
        self.wal = WriteAheadLog(directory, **kwargs)
        self.keep_done = keep_done
        # One writer discipline: HTTP handler threads submit while the
        # supervisor thread leases/renews/completes — every public
        # method serializes on this lock.
        self._lock = threading.RLock()
        # Notified on every completion: followers of a job
        # (``GET /job/<id>?wait=``) wake the moment it is done.
        self._completed = threading.Condition(self._lock)
        self.tasks: dict[str, dict] = {}
        self.status: dict[str, str] = {}
        self.seq_of: dict[str, int] = {}
        self.leases: dict[str, dict] = {}
        self.deliveries: dict[str, int] = {}
        self.results: dict[str, dict] = {}
        self._seq = 0
        self.recovered_leases = 0
        for record in self.wal.replay():
            self._apply(record)
        # Leases found in the WAL belong to a previous incarnation of
        # the service; they stay leased until their deadline passes,
        # then requeue_expired reclaims them (at-least-once).
        self.recovered_leases = sum(
            1 for state in self.status.values() if state == LEASED)

    # -- fold ---------------------------------------------------------------------

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == RESET_OP:
            self.tasks.clear()
            self.status.clear()
            self.seq_of.clear()
            self.leases.clear()
            self.deliveries.clear()
            self.results.clear()
            self._seq = 0
            return
        task_id = record.get("id")
        if op == "submit":
            if task_id in self.tasks:
                return
            seq = int(record.get("seq", self._seq + 1))
            self.tasks[task_id] = record.get("task") or {}
            self.status[task_id] = QUEUED
            self.seq_of[task_id] = seq
            self.deliveries.setdefault(task_id, 0)
            self._seq = max(self._seq, seq)
        elif op == "lease":
            if self.status.get(task_id) in (QUEUED, LEASED):
                self.status[task_id] = LEASED
                self.leases[task_id] = {
                    "worker": record.get("worker", "?"),
                    "deadline": float(record.get("deadline", 0.0)),
                }
                self.deliveries[task_id] = \
                    self.deliveries.get(task_id, 0) + 1
        elif op == "renew":
            lease = self.leases.get(task_id)
            if lease is not None:
                lease["deadline"] = float(record.get("deadline", 0.0))
        elif op == "requeue":
            if self.status.get(task_id) == LEASED:
                self.status[task_id] = QUEUED
                self.leases.pop(task_id, None)
        elif op == "done":
            if task_id in self.tasks and \
                    self.status.get(task_id) != DONE:
                self.status[task_id] = DONE
                self.leases.pop(task_id, None)
                self.results[task_id] = record.get("record") or {}

    # -- producer side ------------------------------------------------------------

    def submit(self, task: dict, task_id: str | None = None) -> \
            tuple[str, bool]:
        """Durably enqueue ``task``; returns ``(task_id, fresh)``.
        Resubmitting an existing id (content-addressed or explicit) is
        idempotent: ``fresh`` is False and nothing is written."""
        task_id = task_id or task_id_for(task)
        with self._lock:
            if task_id in self.tasks:
                return task_id, False
            self._seq += 1
            record = {"op": "submit", "id": task_id, "task": task,
                      "seq": self._seq}
            self.wal.append(record, fsync=True)
            crash_point("queue-submit", task_id)
            self._apply(record)
        return task_id, True

    # -- consumer side ------------------------------------------------------------

    def _queued_ids(self) -> list[str]:
        return sorted(
            (task_id for task_id, state in self.status.items()
             if state == QUEUED),
            key=lambda task_id: self.seq_of.get(task_id, 0))

    def lease(self, worker: str, limit: int,
              ttl: float = DEFAULT_LEASE_TTL,
              now: float | None = None) -> list[dict]:
        """Lease up to ``limit`` queued tasks (FIFO by submit order).
        Returns ``{"id", "task", "seq", "deliveries"}`` per task."""
        now = time.time() if now is None else now
        leased = []
        with self._lock:
            for task_id in self._queued_ids()[:max(0, limit)]:
                record = {"op": "lease", "id": task_id,
                          "worker": worker, "deadline": now + ttl}
                # A lost lease record is harmless (the task just looks
                # queued after a crash and is redelivered), so skip the
                # fsync on the hot scheduling path.
                self.wal.append(record, fsync=False)
                self._apply(record)
                leased.append(
                    {"id": task_id,
                     "task": self.tasks[task_id],
                     "seq": self.seq_of.get(task_id, 0),
                     "deliveries": self.deliveries.get(task_id, 1)})
        return leased

    def renew(self, task_ids, ttl: float = DEFAULT_LEASE_TTL,
              now: float | None = None) -> int:
        """Extend the deadline of still-held leases (the pool's tick
        hook calls this while workers are executing)."""
        now = time.time() if now is None else now
        renewed = 0
        with self._lock:
            for task_id in task_ids:
                if task_id in self.leases:
                    record = {"op": "renew", "id": task_id,
                              "deadline": now + ttl}
                    self.wal.append(record, fsync=False)
                    self._apply(record)
                    renewed += 1
        return renewed

    def requeue_expired(self, now: float | None = None) -> list[str]:
        """Return every task whose lease deadline has passed to the
        queue (the holder died or wedged); at-least-once redelivery."""
        now = time.time() if now is None else now
        with self._lock:
            expired = [task_id for task_id, lease in self.leases.items()
                       if lease["deadline"] <= now]
            for task_id in sorted(expired,
                                  key=lambda t: self.seq_of.get(t, 0)):
                record = {"op": "requeue", "id": task_id}
                self.wal.append(record, fsync=False)
                self._apply(record)
        return expired

    def complete(self, task_id: str, record: dict) -> bool:
        """Durably mark ``task_id`` done.  Returns False (and writes
        nothing) when the task is already done — the idempotency gate
        for redelivered tasks."""
        with self._lock:
            if task_id not in self.tasks or \
                    self.status.get(task_id) == DONE:
                return False
            entry = {"op": "done", "id": task_id,
                     "record": slim_record(record)}
            self.wal.append(entry, fsync=True)
            crash_point("queue-complete", task_id)
            self._apply(entry)
            self.maybe_compact()
            self._completed.notify_all()
        return True

    def wait_done(self, task_id: str, timeout: float) -> bool:
        """Block until ``task_id`` is done or ``timeout`` seconds have
        passed; True when it is done."""
        with self._lock:
            return self._completed.wait_for(
                lambda: self.status.get(task_id) == DONE,
                max(0.0, timeout))

    # -- views --------------------------------------------------------------------

    def depth(self) -> int:
        """Incomplete work (queued + leased): the admission-control
        measure."""
        with self._lock:
            return sum(1 for state in self.status.values()
                       if state != DONE)

    def counts(self) -> dict:
        with self._lock:
            counts = {QUEUED: 0, LEASED: 0, DONE: 0}
            for state in self.status.values():
                counts[state] += 1
            counts["total"] = len(self.status)
        return counts

    def status_of(self, task_id: str) -> dict | None:
        with self._lock:
            state = self.status.get(task_id)
            if state is None:
                return None
            entry = {"id": task_id, "state": state,
                     "seq": self.seq_of.get(task_id, 0),
                     "deliveries": self.deliveries.get(task_id, 0)}
            if state == DONE:
                entry["record"] = self.results.get(task_id)
        return entry

    # -- compaction ---------------------------------------------------------------

    def _forgettable(self) -> set[str]:
        """Done tasks beyond the retention cap: compaction drops them
        entirely (a later resubmission of the same id re-runs)."""
        done_ids = [task_id for task_id, state in self.status.items()
                    if state == DONE]
        done_ids.sort(key=lambda t: self.seq_of.get(t, 0))
        return set(done_ids[:-self.keep_done]) if self.keep_done \
            else set(done_ids)

    def _compaction_records(self, forget: set[str]):
        for task_id in sorted(self.tasks,
                              key=lambda t: self.seq_of.get(t, 0)):
            if task_id in forget:
                continue
            yield {"op": "submit", "id": task_id,
                   "task": self.tasks[task_id],
                   "seq": self.seq_of.get(task_id, 0)}
            state = self.status.get(task_id)
            if state == LEASED:
                lease = self.leases[task_id]
                yield {"op": "lease", "id": task_id,
                       "worker": lease["worker"],
                       "deadline": lease["deadline"]}
            elif state == DONE:
                yield {"op": "done", "id": task_id,
                       "record": self.results.get(task_id) or {}}

    def maybe_compact(self) -> bool:
        with self._lock:
            if not self.wal.needs_compaction():
                return False
            forget = self._forgettable()
            self.wal.compact(self._compaction_records(forget))
            for task_id in forget:
                self.tasks.pop(task_id, None)
                self.status.pop(task_id, None)
                self.seq_of.pop(task_id, None)
                self.deliveries.pop(task_id, None)
                self.results.pop(task_id, None)
        return True

    def close(self) -> None:
        self.wal.close()
