"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts in phases of
minutes: the same pure-Python loop reads two to three times slower in
one phase than in the next, and every timing of the engine (itself pure
Python) drifts with it.  While a workload runs, a probe thread in the
benchmark process therefore times small fixed chunks of reference work,
owned by the benchmark and independent of the code under test, every
``INTERVAL_S`` seconds, and the workload's timings are scaled to a host
on which one chunk takes ``REFERENCE_S`` seconds::

    reported = measured * REFERENCE_S / median(chunk times)

A chunk is timed in the probe thread's own CPU time, so waiting for a
vCPU the workload's processes hold does not count, while a host that
runs every instruction slower does.  The probe samples the very seconds
the workload is timed, bursts included, and uses a few percent of one
vCPU.  A change to the engine moves ``measured`` and leaves the chunks
alone, so it shows in full; a slow host phase moves both and cancels.
The raw seconds and every chunk time are kept in the provenance line.
"""

from __future__ import annotations

import statistics
import threading
import time

# Median CPU seconds of one chunk on a 2-vCPU x86-64 KVM guest (Xeon,
# Python 3.11) in a quiet phase; timings are scaled to it.
REFERENCE_S = 0.0029
# Seconds between chunks.
INTERVAL_S = 0.2
# Stack-machine steps per chunk.
STEPS = 16_000

# A small stack machine, the same kind of work as the engine's own
# dispatch loop: dict lookups, attribute access, list pushes and pops,
# method calls and small-object allocation.
_PROGRAM = (
    ("push", 0), ("store", "i"), ("push", 0), ("store", "acc"),
    # loop: acc = (acc + i * 7) % 1000003; i += 1; while i < limit
    ("load", "acc"), ("load", "i"), ("push", 7), ("mul", None),
    ("add", None), ("push", 1000003), ("mod", None), ("store", "acc"),
    ("load", "i"), ("push", 1), ("add", None), ("store", "i"),
    ("load", "i"), ("load", "limit"), ("lt", None), ("jump_if", 4),
    ("halt", None),
)


class _Frame:
    __slots__ = ("stack", "env", "pc", "steps")

    def __init__(self, limit: int):
        self.stack: list[int] = []
        self.env = {"limit": limit}
        self.pc = 0
        self.steps = 0


class _Machine:
    def __init__(self):
        self.ops = {"push": self.op_push, "store": self.op_store,
                    "load": self.op_load, "add": self.op_add,
                    "mul": self.op_mul, "mod": self.op_mod,
                    "lt": self.op_lt, "jump_if": self.op_jump_if}

    def op_push(self, frame, arg):
        frame.stack.append(arg)

    def op_store(self, frame, arg):
        frame.env[arg] = frame.stack.pop()

    def op_load(self, frame, arg):
        frame.stack.append(frame.env[arg])

    def op_add(self, frame, _arg):
        right = frame.stack.pop()
        frame.stack.append(frame.stack.pop() + right)

    def op_mul(self, frame, _arg):
        right = frame.stack.pop()
        frame.stack.append(frame.stack.pop() * right)

    def op_mod(self, frame, _arg):
        right = frame.stack.pop()
        frame.stack.append(frame.stack.pop() % right)

    def op_lt(self, frame, _arg):
        right = frame.stack.pop()
        frame.stack.append(int(frame.stack.pop() < right))

    def op_jump_if(self, frame, arg):
        if frame.stack.pop():
            frame.pc = arg

    def run(self, steps: int) -> int:
        frame = _Frame(limit=steps // 16)
        ops = self.ops
        program = _PROGRAM
        while True:
            name, arg = program[frame.pc]
            frame.pc += 1
            frame.steps += 1
            if name == "halt":
                return frame.env["acc"]
            ops[name](frame, arg)


_TEXT = """
int table[64];
static long scan(const char *s, int n) {
    long acc = 0;
    for (int i = 0; i < n && s[i] != '\\0'; i++) {
        acc = acc * 31 + (s[i] - 'a') % 7;
        if (acc > 1000003) acc -= table[i & 63];
    }
    return acc;
}
""" * 10
_PUNCT = set("{}[]();,<>=+-*/%&!'\\")


def _tokenize(text: str) -> list[tuple[str, str]]:
    """A hand-written lexer over C-like text, as the front end does."""
    tokens = []
    i, end = 0, len(text)
    while i < end:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isalpha() or ch == "_":
            start = i
            while i < end and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i]))
        elif ch.isdigit():
            start = i
            while i < end and text[i].isdigit():
                i += 1
            tokens.append(("number", text[start:i]))
        else:
            tokens.append(("punct" if ch in _PUNCT else "other", ch))
            i += 1
    return tokens


class _Node:
    """An IR-like object: a few attributes and edges to other nodes."""

    def __init__(self, kind: str, value: int):
        self.kind = kind
        self.value = value
        self.uses: list[_Node] = []
        self.attrs = {"id": value, "kind": kind}


def _graph(tokens: list[tuple[str, str]]) -> int:
    """Build an object graph from the tokens and walk it."""
    nodes = [_Node(kind, len(text) + index)
             for index, (kind, text) in enumerate(tokens)]
    for index, node in enumerate(nodes):
        node.uses.append(nodes[(index * 7 + 3) % len(nodes)])
        node.uses.append(nodes[(index * 13 + 5) % len(nodes)])
    total = 0
    seen = set()
    stack = [nodes[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        total += node.attrs["id"] + len(node.kind)
        stack.extend(node.uses)
    # Break the cycles, so the graph is freed here and not left to the
    # collector: the benchmark's own resident set stays small.
    for node in nodes:
        node.uses.clear()
    return total


def reference_work() -> int:
    """One chunk of reference work: dispatch, lexing and an object
    graph, the three kinds of work the engine's own time goes to."""
    return _Machine().run(STEPS) + _graph(_tokenize(_TEXT))


class Calibration:
    """The probe thread and the chunk times it took through one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._probe, daemon=True,
                                        name="calibration-probe")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        if not self.samples:
            # A run shorter than one interval still gets a figure.
            self._chunk()

    def _probe(self) -> None:
        reference_work()  # warm-up, not kept
        while not self._stop.wait(INTERVAL_S):
            self._chunk()

    def _chunk(self) -> None:
        started = time.thread_time()
        reference_work()
        self.samples.append(time.thread_time() - started)

    def seconds(self) -> float:
        """The median chunk: robust to the odd chunk that a collection
        of the benchmark's own garbage lands in."""
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns seconds measured in this run into seconds
        on the reference host."""
        return REFERENCE_S / self.seconds()
