"""No safe-O2 pass may be superlinear in function size.

One generated C function is built at size N and at 2N: blocks, promoted
locals and instructions all double together.  A pass whose cost grows
with (variables x blocks) or (replacements x instructions) slows down
4-8x at 2N; a linear pass about 2x.  Each pass is timed on fresh clones
of its realistic input, best of 5 samples with N and 2N interleaved, in
process CPU time with the collector off, so a busy host moves both
sizes alike.
"""

import gc
import math
import time

import pytest

from repro.cfront import compile_source
from repro.ir import clone_function
from repro.opt import gvn, licm, mem2reg
from repro.opt.pipeline import (_prune_dead_pure, _simplify_branch_conditions,
                                run_safe_o2_function)

SIZE = 24
MAX_RATIO = 2.5
SAMPLES = 5
# Each sample times enough clones to take about this long at size N.
SAMPLE_SECONDS = 0.025


def _source(size: int) -> str:
    """A loop over ``size`` if/else diamonds, each reading and writing
    two of ``size`` locals, so every local is live around the loop."""
    decls = "\n".join(f"    int v{k} = n + {k};" for k in range(size))
    body = "\n".join(
        f"        if (v{k} > i) v{(k + 1) % size} = v{k} + i * {k + 3};\n"
        f"        else v{k} = v{(k + 1) % size} - i;"
        for k in range(size))
    total = " + ".join(f"v{k}" for k in range(size))
    return (f"int f(int n) {{\n{decls}\n"
            f"    for (int i = 0; i < n; i++) {{\n{body}\n    }}\n"
            f"    return {total};\n}}\n")


def _inputs(size: int) -> dict:
    """Each pass's input as the safe-O2 pipeline hands it over."""
    front = compile_source(_source(size), include_dirs=[]).functions["f"]
    promoted = clone_function(front)
    mem2reg.run(promoted)
    _simplify_branch_conditions(promoted)
    optimized = clone_function(promoted)
    gvn.run(optimized)
    licm.run(optimized)
    gvn.run(optimized)
    return {"mem2reg": front, "gvn": promoted, "licm": promoted,
            "prune_dead_pure": optimized, "safe_o2": front}


PASSES = {
    "mem2reg": mem2reg.run,
    "gvn": gvn.run,
    "licm": licm.run,
    "prune_dead_pure": _prune_dead_pure,
    "safe_o2": run_safe_o2_function,
}


def _sample(run, small, large, count: int) -> tuple[float, float]:
    """CPU seconds for ``count`` runs at each size, alternating sizes run
    by run so a change in host speed hits both alike."""
    clones = [(clone_function(small), clone_function(large))
              for _ in range(count)]
    totals = [0.0, 0.0]
    gc.collect()
    gc.disable()
    try:
        for pair in clones:
            for index, clone in enumerate(pair):
                started = time.process_time()
                run(clone)
                totals[index] += time.process_time() - started
    finally:
        gc.enable()
    return totals[0], totals[1]


@pytest.fixture(scope="module")
def inputs():
    return _inputs(SIZE), _inputs(2 * SIZE)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_pass_is_linear_in_function_size(inputs, name):
    small, large = inputs[0][name], inputs[1][name]
    run = PASSES[name]
    once, _ = _sample(run, small, large, 1)
    count = max(1, math.ceil(SAMPLE_SECONDS / max(once, 1e-6)))
    small_best = large_best = math.inf
    for _ in range(SAMPLES):
        small_seconds, large_seconds = _sample(run, small, large, count)
        small_best = min(small_best, small_seconds)
        large_best = min(large_best, large_seconds)
    ratio = large_best / small_best
    assert ratio <= MAX_RATIO, (
        f"{name}: {large_best / count * 1e3:.2f} ms at size {2 * SIZE} vs "
        f"{small_best / count * 1e3:.2f} ms at {SIZE} ({ratio:.2f}x)")
