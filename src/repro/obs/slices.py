"""Failure slices: bounded block-level recording and the explain packet.

``repro explain`` re-executes a failing program under the interpreter
with a :class:`BlockRecorder` attached and condenses what it saw into a
single structured JSON packet — the executed CFG path, a sliding window
of basic-block traces with register values near the fault, the faulting
object's allocation/free history, and (for generated programs) the
first block at which the execution tiers diverge.  The packet has a
hard size budget (``DEFAULT_BUDGET``, 64 KiB) so it fits an LLM context
window; trimming removes the data farthest from the fault first and
records every cut in ``packet["budget"]["trims"]``.

The recorder is an interpreter hook: :meth:`BlockRecorder.record` runs
once per basic-block entry (see ``Runtime._run_blocks_recording``) and
does only O(1) work — a ring-buffer append of the entry-state register
file, a visit-count bump, and an output watermark when stdout grew.
Like ``--lines`` mode, an attached recorder pins execution to the
interpreter tier; a disabled observer specializes the hook away
entirely, which ``BENCH_explain.json`` certifies at <3% overhead.

Packet schema (``EXPLAIN_SCHEMA`` is the machine-readable version)::

    {
      "explain_version": 1,
      "manifest":  {...},            # the replay manifest (obs/replay.py)
      "replay": {                    # deterministic across hosts + tiers
        "outcome":    {status, detected, crashed, ...},
        "bugs":       [{kind, location, ..., signature, provenance}],
        "signatures": [...],         # triage signatures, deduplicated
        "cfg_path":   {blocks_entered, unique_blocks, visits, ...},
        "window":     [{step, function, block, line, stdout_len, regs}],
        "heap":       {object, history, allocations, frees} | null,
        "divergence": {agree, outcomes, divergent_tiers, kind, block,
                       common_stdout_prefix} | null,
        "dropped":    {events, visits_capped, out_marks_capped}
      },
      "record":  {id, signatures, matches} | absent,   # vs a bug record
      "budget":  {"limit": N, "size": N, "trims": [...]}
    }

The ``replay`` section deliberately contains no timestamps, absolute
paths, host details, or engine-version strings: replaying the same
manifest anywhere yields byte-identical ``replay`` bytes (the golden
test pins this), which is what makes a slice cheap to verify.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import deque

EXPLAIN_VERSION = 1
DEFAULT_BUDGET = 64 * 1024
DEFAULT_WINDOW = 32

# Per-block-entry capture caps: registers copied per ring entry, CFG
# visit-table keys, and output watermarks.  All are recorder-side
# bounds — the packet trims further.
REG_CAP = 64
MAX_VISITED = 4096
MAX_OUT_MARKS = 4096


class BlockRecorder:
    """Bounded recorder of interpreter basic-block entries.

    ``record`` is the hot path: one call per block entry, doing a ring
    append (entry snapshot), a visit-count increment, and an output
    watermark append when stdout grew since the last entry.  Entries
    keep live references (prepared function, a register-file slice);
    they are rendered JSON-safe only at packet-build time.
    """

    __slots__ = ("window", "steps", "ring", "visits", "visits_capped",
                 "out_marks", "out_marks_capped", "last_out", "prev")

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = max(1, int(window))
        self.steps = 0
        # (step, prepared, block_index, regs_snapshot, stdout_len)
        self.ring: deque = deque(maxlen=self.window)
        # (prepared, block_index) -> entry count
        self.visits: dict = {}
        self.visits_capped = False
        # ((step, prepared, block_index) | None, stdout_len): the block
        # whose execution first brought stdout to that length.  stdout
        # only grows, so out_marks is sorted by length — the divergence
        # bisection binary-searches it.
        self.out_marks: list = []
        self.out_marks_capped = False
        self.last_out = 0
        self.prev = None

    def record(self, prepared, index: int, frame, out_len: int) -> None:
        step = self.steps
        self.steps = step + 1
        self.ring.append(
            (step, prepared, index, frame.regs[:REG_CAP], out_len))
        key = (prepared, index)
        visits = self.visits
        count = visits.get(key)
        if count is not None:
            visits[key] = count + 1
        elif len(visits) < MAX_VISITED:
            visits[key] = 1
        else:
            self.visits_capped = True
        if out_len != self.last_out:
            self.last_out = out_len
            if len(self.out_marks) < MAX_OUT_MARKS:
                # Attribute the write to the previously-entered block:
                # the bytes appeared during its steps, before this
                # block was entered.
                self.out_marks.append((self.prev, out_len))
            else:
                self.out_marks_capped = True
        self.prev = (step, prepared, index)


# -- rendering recorder state into JSON-safe structures ---------------------


def _block_line_map(prepared) -> dict:
    """block label -> source location string of its first located
    instruction (prepared blocks mirror the IR function's block list)."""
    mapping: dict = {}
    function = getattr(prepared, "function", None)
    for block in getattr(function, "blocks", None) or ():
        line = None
        for instruction in getattr(block, "instructions", None) or ():
            loc = getattr(instruction, "loc", None)
            if loc is not None and getattr(loc, "line", 0):
                line = str(loc)
                break
        mapping[getattr(block, "label", "?")] = line
    return mapping


def _stable_label(label):
    """Strip the front end's process-wide uniquifying counter from
    private-global names (``.str.27``, ``name.static.3``): the counter
    keeps running between compiles in one process, so replayed packets
    would differ run-to-run.  C identifiers cannot contain dots, so a
    dotted name with a numeric tail is always compiler-generated."""
    if isinstance(label, str) and "." in label:
        base, _, tail = label.rpartition(".")
        if base and tail.isdigit():
            return base
    return label


def _render_value(value):
    """One register value as a JSON-safe, deterministic rendering."""
    if value is None:
        return None
    kind = type(value)
    if kind is bool:
        return value
    if kind is int:
        # JSON numbers round-trip reliably only in a bounded range;
        # render wider integers (managed wraparound keeps most in u64)
        # as strings.
        if -(2 ** 63) <= value < 2 ** 64:
            return value
        return str(value)
    if kind is float:
        if value != value or value in (float("inf"), float("-inf")):
            return str(value)
        return value
    if kind is str:
        return value[:64]
    from ..core import objects as mo
    if isinstance(value, mo.Address):
        pointee = value.pointee
        if pointee is None:
            return {"ptr": None, "offset": value.offset}
        try:
            size = pointee.byte_size
        except Exception:
            size = None
        try:
            freed = bool(pointee.is_freed())
        except Exception:
            freed = False
        return {"ptr": {"object": _stable_label(
                            getattr(pointee, "label", "object")),
                        "storage": getattr(pointee, "storage", "?"),
                        "size": size, "freed": freed},
                "offset": value.offset}
    name = getattr(value, "name", None)
    if name is not None and (hasattr(value, "ftype")
                             or hasattr(value, "function")):
        return {"fn": _stable_label(name)}
    label = getattr(value, "label", None)
    if label is not None:
        return {"obj": _stable_label(label)}
    return {"repr": type(value).__name__}


def _render_window(recorder: BlockRecorder) -> list:
    lines_cache: dict = {}
    window = []
    for step, prepared, index, regs, out_len in recorder.ring:
        lines = lines_cache.get(id(prepared))
        if lines is None:
            lines = lines_cache[id(prepared)] = _block_line_map(prepared)
        label = prepared.blocks[index].label
        rendered = [[i, _render_value(value)]
                    for i, value in enumerate(regs) if value is not None]
        window.append({
            "step": step,
            "function": _stable_label(prepared.name),
            "block": label,
            "line": lines.get(label),
            "stdout_len": out_len,
            "regs": rendered,
        })
    return window


def _render_cfg_path(recorder: BlockRecorder) -> dict:
    rows = sorted(
        ((_stable_label(prepared.name),
          prepared.blocks[index].label, count)
         for (prepared, index), count in recorder.visits.items()),
        key=lambda row: (-row[2], row[0], row[1]))
    return {
        "blocks_entered": recorder.steps,
        "unique_blocks": len(recorder.visits),
        "visits": [list(row) for row in rows],
        "visits_capped": recorder.visits_capped,
        "visits_truncated": False,
    }


def _mark_block(mark_prev) -> dict | None:
    if mark_prev is None:
        return None
    step, prepared, index = mark_prev
    label = prepared.blocks[index].label
    return {"function": _stable_label(prepared.name), "block": label,
            "step": step, "line": _block_line_map(prepared).get(label)}


def _render_heap(runtime, bugs) -> dict | None:
    """The faulting object's allocation/free history plus bounded heap
    totals.  Needs a runtime with heap tracking (the replay forces it)."""
    if runtime is None:
        return None
    objects = getattr(runtime, "heap_objects", None) or []
    live = freed = 0
    rendered_objects = []
    fault_alloc = fault_free = fault_label = None
    if bugs:
        fault_alloc = getattr(bugs[0], "alloc_site", None)
        fault_alloc = str(fault_alloc) if fault_alloc else None
        fault_free = getattr(bugs[0], "free_site", None)
        fault_free = str(fault_free) if fault_free else None
        fault_label = _stable_label(getattr(bugs[0], "object_label",
                                            None))
    faulting = None
    for ordinal, obj in enumerate(objects):
        try:
            is_freed = bool(obj.is_freed())
        except Exception:
            is_freed = False
        if is_freed:
            freed += 1
        else:
            live += 1
        alloc_site = getattr(obj, "alloc_site", None)
        free_site = getattr(obj, "free_site", None)
        try:
            size = obj.byte_size
        except Exception:
            size = None
        row = {
            "ordinal": ordinal,
            "label": _stable_label(getattr(obj, "label", "object")),
            "storage": getattr(obj, "storage", "?"),
            "size": size,
            "freed": is_freed,
            "alloc_site": str(alloc_site) if alloc_site else None,
            "free_site": str(free_site) if free_site else None,
        }
        rendered_objects.append(row)
        if faulting is None and fault_alloc is not None \
                and row["alloc_site"] == fault_alloc \
                and (fault_label is None or row["label"] == fault_label):
            faulting = row
    history = []
    if faulting is not None:
        # A freed object reports byte_size 0; recover the allocated
        # size from the bug stamp or the "malloc(N)" label.
        size = faulting["size"]
        if not size and bugs:
            size = getattr(bugs[0], "object_size", None) or size
        if not size:
            label = faulting["label"] or ""
            if label.endswith(")") and "(" in label:
                digits = label[label.rfind("(") + 1:-1]
                if digits.isdigit():
                    size = int(digits)
        history.append({"event": "alloc",
                        "site": faulting["alloc_site"],
                        "size": size,
                        "ordinal": faulting["ordinal"]})
        if faulting["free_site"] or faulting["freed"]:
            history.append({"event": "free",
                            "site": faulting["free_site"]})
    elif fault_alloc is not None:
        # The object predates tracking or was reclaimed; reconstruct
        # the history from the bug report's own provenance stamps.
        history.append({"event": "alloc", "site": fault_alloc,
                        "size": getattr(bugs[0], "object_size", None),
                        "ordinal": None})
        if fault_free:
            history.append({"event": "free", "site": fault_free})
    if bugs and history:
        loc = getattr(bugs[0], "location", None)
        history.append({"event": "fault",
                        "kind": getattr(bugs[0], "kind", "?"),
                        "site": str(loc) if loc else None})
    return {
        "tracked": len(objects),
        "live": live,
        "freed": freed,
        "object": faulting,
        "history": history,
        "objects": rendered_objects[:8],
    }


def _render_bugs(result) -> list:
    from ..harness.triage import bug_signature
    from .provenance import render_bug_report
    rendered = []
    for bug in result.bugs:
        location = getattr(bug, "location", None)
        alloc_site = getattr(bug, "alloc_site", None)
        free_site = getattr(bug, "free_site", None)
        entry = {
            "kind": bug.kind,
            "message": bug.message,
            "location": str(location) if location else None,
            "access": bug.access,
            "memory_kind": bug.memory_kind,
            "direction": bug.direction,
            "alloc_site": str(alloc_site) if alloc_site else None,
            "free_site": str(free_site) if free_site else None,
            "stack": [[function, str(loc) if loc else None]
                      for function, loc in (bug.stack or [])],
            "object_label": bug.object_label,
            "object_size": bug.object_size,
        }
        entry["signature"] = bug_signature(entry)
        entry["provenance"] = render_bug_report(
            bug, detector=result.detector)
        rendered.append(entry)
    return rendered


def _render_outcome(result) -> dict:
    stdout = bytes(result.stdout)
    runtime = getattr(result, "runtime", None)
    return {
        "status": result.status,
        "detected": bool(result.bugs)
        or (result.crashed and "SIG" in (result.crash_message or "")),
        "crashed": result.crashed,
        "crash_message": result.crash_message or None,
        "limit_exceeded": bool(result.limit_exceeded),
        "timed_out": bool(getattr(result, "timed_out", False)),
        "internal_error": getattr(result, "internal_error", None),
        "steps": getattr(runtime, "steps", None),
        "stdout_len": len(stdout),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stdout_tail": stdout[-256:].decode("utf-8", "backslashreplace"),
    }


# -- tier divergence --------------------------------------------------------


def bisect_output_divergence(out_marks: list, prefix_len: int):
    """Index of the first output watermark past the common stdout
    prefix, or None.  ``out_marks`` is sorted by length (stdout only
    grows), so this is a binary search — the mark's block is the one
    that wrote the first divergent byte."""
    if not out_marks:
        return None
    lengths = [mark[1] for mark in out_marks]
    index = bisect_right(lengths, prefix_len)
    if index >= len(out_marks):
        return None
    return index


def _common_prefix_len(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    for i in range(limit):
        if a[i] != b[i]:
            return i
    return limit


def divergence_slice(source: str, filename: str, *,
                     recorder: BlockRecorder | None = None,
                     max_steps: int | None = 5_000_000,
                     cache_dir: str | None = None) -> dict:
    """Run the oracle's managed tiers and, on disagreement, bisect the
    interpreter replay's output watermarks to the first divergent
    block."""
    from ..gen.oracle import TierOutcome, managed_tiers, run_tier
    runners = managed_tiers(cache_dir)
    outcomes: dict[str, TierOutcome] = {}
    for name, runner in runners.items():
        try:
            outcomes[name] = run_tier(runner, source, filename,
                                      max_steps=max_steps)
        except Exception as error:  # a tier crashing IS the finding
            outcomes[name] = TierOutcome(
                tier=name, status=None, stdout=b"", detected=False,
                signatures=(), crashed=False, crash_message=None,
                internal_error=f"{type(error).__name__}: {error}",
                limit_exceeded=False, timed_out=False)
    table = {
        name: {
            "status": outcome.status,
            "detected": outcome.detected,
            "stdout_len": len(outcome.stdout),
            "stdout_sha256": hashlib.sha256(outcome.stdout).hexdigest(),
            "signatures": list(outcome.signatures),
            "crashed": outcome.crashed,
            "limit_exceeded": outcome.limit_exceeded,
            "timed_out": outcome.timed_out,
            "internal_error": outcome.internal_error,
        }
        for name, outcome in outcomes.items()
    }
    reference = outcomes["interp"]
    divergent = [name for name in list(runners)[1:]
                 if outcomes[name].comparable() != reference.comparable()
                 or outcomes[name].internal_error]
    slice_data = {
        "checked_tiers": list(runners),
        "agree": not divergent,
        "divergent_tiers": divergent,
        "outcomes": table,
        "kind": None,
        "common_stdout_prefix": None,
        "block": None,
    }
    if not divergent:
        return slice_data
    first = outcomes[divergent[0]]
    prefix = _common_prefix_len(reference.stdout, first.stdout)
    slice_data["common_stdout_prefix"] = prefix
    if reference.stdout != first.stdout:
        slice_data["kind"] = "output"
        if recorder is not None:
            index = bisect_output_divergence(recorder.out_marks, prefix)
            if index is not None:
                slice_data["block"] = _mark_block(
                    recorder.out_marks[index][0])
    else:
        # Same output, different status/detection: the divergence is at
        # (or after) the last block the reference replay entered.
        slice_data["kind"] = "outcome"
        if recorder is not None and recorder.ring:
            step, prepared, bindex, _, _ = recorder.ring[-1]
            slice_data["block"] = _mark_block((step, prepared, bindex))
    return slice_data


# -- packet assembly --------------------------------------------------------


def canonical_packet_bytes(packet: dict) -> bytes:
    """The byte form the size budget and the golden test measure."""
    return json.dumps(packet, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def build_packet(manifest: dict, result, recorder: BlockRecorder | None,
                 *, divergence: dict | None = None,
                 budget: int = DEFAULT_BUDGET) -> dict:
    runtime = getattr(result, "runtime", None)
    replay = {
        "outcome": _render_outcome(result),
        "bugs": _render_bugs(result),
        "cfg_path": (_render_cfg_path(recorder)
                     if recorder is not None else None),
        "window": (_render_window(recorder)
                   if recorder is not None else []),
        "heap": _render_heap(runtime, result.bugs),
        "divergence": divergence,
        "dropped": {
            "visits_capped": bool(recorder and recorder.visits_capped),
            "out_marks_capped": bool(recorder
                                     and recorder.out_marks_capped),
        },
    }
    seen: list[str] = []
    for bug in replay["bugs"]:
        if bug["signature"] not in seen:
            seen.append(bug["signature"])
    replay["signatures"] = seen
    packet = {
        "explain_version": EXPLAIN_VERSION,
        "manifest": manifest,
        "replay": replay,
        "budget": {"limit": budget, "size": 0, "trims": []},
    }
    return trim_packet(packet, budget)


def trim_packet(packet: dict, budget: int) -> dict:
    """Enforce the size budget, cutting farthest-from-fault data first.
    Every stage applied is recorded in ``budget.trims``."""
    replay = packet["replay"]
    trims = packet["budget"]["trims"]

    def size() -> int:
        return len(canonical_packet_bytes(packet))

    def cap_visits(limit):
        cfg = replay.get("cfg_path")
        if cfg and len(cfg["visits"]) > limit:
            cfg["visits"] = cfg["visits"][:limit]
            cfg["visits_truncated"] = True
            return True
        return False

    def cap_regs(limit):
        changed = False
        for entry in replay["window"]:
            if len(entry["regs"]) > limit:
                entry["regs"] = entry["regs"][:limit]
                changed = True
        return changed

    def shrink_window(keep):
        if len(replay["window"]) > keep:
            replay["window"] = replay["window"][-keep:] if keep else []
            return True
        return False

    def drop_heap_objects():
        heap = replay.get("heap")
        if heap and heap.get("objects"):
            heap["objects"] = []
            return True
        return False

    def drop_stdout_tail():
        if replay["outcome"].get("stdout_tail"):
            replay["outcome"]["stdout_tail"] = ""
            return True
        return False

    def trim_provenance(prov_limit, msg_limit):
        changed = False
        for bug in replay["bugs"]:
            if len(bug.get("provenance") or "") > prov_limit:
                bug["provenance"] = bug["provenance"][:prov_limit]
                changed = True
            if len(bug.get("message") or "") > msg_limit:
                bug["message"] = bug["message"][:msg_limit]
                changed = True
        return changed

    def drop_divergence_outcomes():
        divergence = replay.get("divergence")
        if divergence and divergence.get("outcomes"):
            divergence["outcomes"] = {}
            return True
        return False

    def drop_manifest_inputs():
        manifest = packet["manifest"]
        changed = False
        for key in ("stdin_b64", "vfs_b64"):
            value = manifest.get(key)
            if value:
                digest = hashlib.sha256(
                    json.dumps(value, sort_keys=True).encode()
                ).hexdigest()
                manifest[key] = None
                manifest[key.replace("_b64", "_sha256")] = digest
                changed = True
        return changed

    stages = [
        ("visits:64", lambda: cap_visits(64)),
        ("window:regs16", lambda: cap_regs(16)),
        ("window:16", lambda: shrink_window(16)),
        ("visits:16", lambda: cap_visits(16)),
        ("heap:objects", drop_heap_objects),
        ("window:8", lambda: shrink_window(8)),
        ("window:regs4", lambda: cap_regs(4)),
        ("stdout:tail", drop_stdout_tail),
        ("visits:4", lambda: cap_visits(4)),
        ("provenance:2000", lambda: trim_provenance(2000, 500)),
        ("window:2", lambda: shrink_window(2)),
        ("window:regs0", lambda: cap_regs(0)),
        ("manifest:inputs", drop_manifest_inputs),
        # Last resort for tiny budgets: the bug identity (signatures,
        # bug dicts, heap history) always survives.
        ("divergence:outcomes", drop_divergence_outcomes),
        ("provenance:200", lambda: trim_provenance(200, 200)),
        ("window:0", lambda: shrink_window(0)),
        ("visits:0", lambda: cap_visits(0)),
    ]
    for name, stage in stages:
        if size() <= budget:
            break
        if stage():
            trims.append(name)
    packet["budget"]["size"] = size()
    return packet


# -- schema -----------------------------------------------------------------


EXPLAIN_SCHEMA = {
    "explain_version": "int — schema version (1)",
    "manifest": {
        "manifest_version": "int",
        "engine": "str — engine_version() at record time",
        "tool": "str — tool name (safe-sulong, asan-O0, ...)",
        "options": "dict — semantic engine options (quotas, tiers)",
        "filename": "str|null",
        "source_sha256": "str|null — digest of the exact source",
        "max_steps": "int|null",
        "gen?": "dict — (version, seed, config, planted) for repro.gen",
        "fault?": "dict — injected harness fault, if any",
    },
    "replay": {
        "outcome": "dict — status/detected/crashed/limits/stdout digest",
        "bugs": "list — worker-shaped bug dicts + signature + provenance",
        "signatures": "list[str] — deduplicated triage signatures",
        "cfg_path": "dict|null — blocks_entered/unique_blocks/visits",
        "window": "list — last N block entries with register values",
        "heap": "dict|null — faulting object + alloc/free history",
        "divergence": "dict|null — tier outcomes + first divergent block",
        "dropped": "dict — recorder-side truncation flags",
    },
    "record": "dict? — id/signatures/matches when explaining a record",
    "budget": {"limit": "int", "size": "int", "trims": "list[str]"},
}


def validate_packet(packet: dict, budget: int | None = None) -> list[str]:
    """Structural schema check; returns a list of problems (empty =
    valid).  Stdlib-only stand-in for a JSON-Schema validator."""
    problems: list[str] = []

    def need(mapping, key, kinds, where):
        value = mapping.get(key, _MISSING)
        if value is _MISSING:
            problems.append(f"{where}: missing key {key!r}")
            return None
        if kinds is not None and value is not None \
                and not isinstance(value, kinds):
            problems.append(
                f"{where}.{key}: expected {kinds}, got "
                f"{type(value).__name__}")
        return value

    if not isinstance(packet, dict):
        return ["packet is not an object"]
    if packet.get("explain_version") != EXPLAIN_VERSION:
        problems.append("explain_version != %d" % EXPLAIN_VERSION)
    manifest = need(packet, "manifest", dict, "packet")
    if isinstance(manifest, dict):
        need(manifest, "manifest_version", int, "manifest")
        need(manifest, "engine", str, "manifest")
        need(manifest, "tool", str, "manifest")
        need(manifest, "options", dict, "manifest")
    replay = need(packet, "replay", dict, "packet")
    if isinstance(replay, dict):
        outcome = need(replay, "outcome", dict, "replay")
        if isinstance(outcome, dict):
            for key in ("status", "detected", "crashed",
                        "limit_exceeded", "stdout_len", "stdout_sha256"):
                need(outcome, key, None, "replay.outcome")
        bugs = need(replay, "bugs", list, "replay")
        if isinstance(bugs, list):
            for i, bug in enumerate(bugs):
                if not isinstance(bug, dict):
                    problems.append(f"replay.bugs[{i}] is not an object")
                    continue
                for key in ("kind", "signature", "provenance"):
                    need(bug, key, str, f"replay.bugs[{i}]")
        need(replay, "signatures", list, "replay")
        cfg = need(replay, "cfg_path", dict, "replay")
        if isinstance(cfg, dict):
            need(cfg, "blocks_entered", int, "replay.cfg_path")
            need(cfg, "unique_blocks", int, "replay.cfg_path")
            visits = need(cfg, "visits", list, "replay.cfg_path")
            for row in visits if isinstance(visits, list) else ():
                if not (isinstance(row, list) and len(row) == 3):
                    problems.append(
                        "replay.cfg_path.visits rows must be "
                        "[function, block, count]")
                    break
        window = need(replay, "window", list, "replay")
        if isinstance(window, list):
            for i, entry in enumerate(window):
                if not isinstance(entry, dict):
                    problems.append(
                        f"replay.window[{i}] is not an object")
                    continue
                for key in ("step", "function", "block", "regs"):
                    need(entry, key, None, f"replay.window[{i}]")
        heap = replay.get("heap")
        if heap is not None and isinstance(heap, dict):
            need(heap, "history", list, "replay.heap")
        elif heap is not None:
            problems.append("replay.heap is neither null nor an object")
        divergence = replay.get("divergence")
        if divergence is not None:
            if not isinstance(divergence, dict):
                problems.append("replay.divergence is not an object")
            else:
                need(divergence, "agree", bool, "replay.divergence")
                need(divergence, "outcomes", dict, "replay.divergence")
        need(replay, "dropped", dict, "replay")
    budget_info = need(packet, "budget", dict, "packet")
    if isinstance(budget_info, dict):
        need(budget_info, "limit", int, "budget")
        need(budget_info, "trims", list, "budget")
    limit = budget
    if limit is None and isinstance(budget_info, dict):
        limit = budget_info.get("limit")
    if isinstance(limit, int):
        actual = len(canonical_packet_bytes(packet))
        if actual > limit:
            problems.append(
                f"packet is {actual} bytes, over the {limit}-byte budget")
    return problems


_MISSING = object()


# -- text renderer ----------------------------------------------------------


def _format_reg(index: int, value) -> str:
    if isinstance(value, dict):
        ptr = value.get("ptr", _MISSING)
        if ptr is not _MISSING:
            if ptr is None:
                return f"r{index}=NULL+{value.get('offset', 0)}"
            freed = " freed" if ptr.get("freed") else ""
            return (f"r{index}=&{ptr.get('object')}"
                    f"+{value.get('offset', 0)}{freed}")
        if "fn" in value:
            return f"r{index}=@{value['fn']}"
        if "obj" in value:
            return f"r{index}=&{value['obj']}"
        return f"r{index}=<{value.get('repr', '?')}>"
    return f"r{index}={value}"


def render_text(packet: dict) -> str:
    """Human view of one explain packet (``--format text``)."""
    manifest = packet.get("manifest") or {}
    replay = packet.get("replay") or {}
    outcome = replay.get("outcome") or {}
    lines = [f"== repro explain (packet v{packet.get('explain_version')})"]
    digest = manifest.get("source_sha256")
    program = manifest.get("filename") or "?"
    if digest:
        program += f"  sha256:{digest[:12]}"
    lines.append(f"program: {program}")
    gen = manifest.get("gen")
    if gen:
        lines.append(f"generated: seed {gen.get('seed')} "
                     f"(repro.gen v{gen.get('version')})")
    lines.append(f"recorded by: {manifest.get('engine')}  "
                 f"tool {manifest.get('tool')}")
    options = manifest.get("options") or {}
    if options:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(options.items()))
        lines.append(f"options: {rendered}")
    if manifest.get("fault"):
        lines.append(f"injected fault: {manifest['fault']}")
    lines.append("")
    state = []
    if outcome.get("detected"):
        state.append("bug detected")
    if outcome.get("crashed"):
        state.append(f"crashed ({outcome.get('crash_message')})")
    if outcome.get("limit_exceeded"):
        state.append("resource limit")
    if outcome.get("internal_error"):
        state.append(f"internal error: {outcome['internal_error']}")
    if not state:
        state.append("clean exit")
    lines.append(f"outcome: {', '.join(state)}  status={outcome.get('status')}"
                 f"  steps={outcome.get('steps')}"
                 f"  stdout={outcome.get('stdout_len')}B")
    for bug in replay.get("bugs") or ():
        lines.append("")
        lines.append(bug.get("provenance") or bug.get("signature") or "")
    cfg = replay.get("cfg_path")
    if cfg:
        lines.append("")
        lines.append(f"cfg path: {cfg.get('blocks_entered')} block entries, "
                     f"{cfg.get('unique_blocks')} unique blocks"
                     + (" (truncated)" if cfg.get("visits_truncated")
                        or cfg.get("visits_capped") else ""))
        for function, block, count in (cfg.get("visits") or [])[:10]:
            lines.append(f"  {count:>8}x  {function}:{block}")
    window = replay.get("window") or []
    if window:
        lines.append("")
        lines.append(f"last {len(window)} blocks before the fault "
                     "(oldest first):")
        for entry in window:
            where = entry.get("line") or ""
            lines.append(f"  #{entry.get('step')} "
                         f"{entry.get('function')}:{entry.get('block')}"
                         f"  {where}")
            regs = entry.get("regs") or []
            if regs:
                rendered = "  ".join(
                    _format_reg(i, value) for i, value in regs[:8])
                lines.append(f"      {rendered}")
    heap = replay.get("heap")
    if heap and heap.get("history"):
        lines.append("")
        lines.append("faulting object history:")
        for event in heap["history"]:
            bits = [event.get("event", "?")]
            if event.get("kind"):
                bits.append(event["kind"])
            if event.get("size") is not None:
                bits.append(f"{event['size']} B")
            if event.get("site"):
                bits.append(f"at {event['site']}")
            lines.append("  " + " ".join(bits))
    elif heap:
        lines.append("")
        lines.append(f"heap: {heap.get('tracked')} tracked objects, "
                     f"{heap.get('live')} live, {heap.get('freed')} freed")
    divergence = replay.get("divergence")
    if divergence:
        lines.append("")
        if divergence.get("agree"):
            lines.append("tier divergence: none "
                         f"({', '.join(divergence.get('checked_tiers') or [])}"
                         " agree)")
        else:
            lines.append(f"tier divergence: "
                         f"{', '.join(divergence.get('divergent_tiers'))} "
                         f"disagree with interp "
                         f"(kind: {divergence.get('kind')})")
            block = divergence.get("block")
            if block:
                lines.append(f"  first divergent block: "
                             f"{block.get('function')}:{block.get('block')} "
                             f"step {block.get('step')} "
                             f"{block.get('line') or ''}")
            for name, row in sorted(
                    (divergence.get("outcomes") or {}).items()):
                lines.append(
                    f"  {name:<10} status={row.get('status')} "
                    f"detected={row.get('detected')} "
                    f"stdout={row.get('stdout_len')}B "
                    f"{','.join(row.get('signatures') or [])}")
    budget_info = packet.get("budget") or {}
    lines.append("")
    trims = budget_info.get("trims") or []
    lines.append(f"packet: {budget_info.get('size')} bytes "
                 f"(budget {budget_info.get('limit')})"
                 + (f", trimmed: {', '.join(trims)}" if trims else ""))
    record = packet.get("record")
    if record:
        match = "matches" if record.get("matches") else "DOES NOT match"
        lines.append(f"record {record.get('id')}: replay {match} the "
                     "recorded signatures")
    return "\n".join(lines)
