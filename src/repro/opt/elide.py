"""Proven-safe check elision (static companion to the dynamic checks).

Runs the pointer/interval analyses over a function and annotates
loads, stores, and geps whose dynamic safety checks are *proven*
redundant:

* ``elide = 1`` — the pointer is definitely non-null and definitely a
  data-object address (it comes from an alloca, a global, or the
  managed allocator, possibly through gep/phi/select), so the
  per-access null/function-pointer check cannot fire.  The access still
  goes through the managed object, whose own bounds and lifetime
  checks remain — a use-after-free or out-of-bounds is still caught.
* ``elide = 2`` — additionally, the byte-offset interval is proven
  inside ``[0, size - access_size]`` of an object proven live: a stack
  or global object (which cannot be freed), or a heap object whose
  allocation site is LIVE on every path to the access.  No check of any
  kind can fire, so the interpreter may also drop its per-access
  exception plumbing.

With interprocedural ``summaries`` (from
:func:`repro.analysis.interproc.module_summaries`) the proofs survive
calls: a call to a summarized-safe callee — one that neither frees nor
retains its pointer arguments — no longer invalidates the liveness of
the heap objects passed to it, and pointers returned by summarized
allocator wrappers carry the same fresh-heap proof a direct ``malloc``
result does.

This is the paper's "safe semantics" discipline in static form: a check
is removed only when the analysis *proves* the abstract machine cannot
reach the error, never because an error looks unlikely.  Unoptimized
(clang -O0-style) IR is what the managed engine executes, so the pass
works there — no mem2reg required; facts flow through registers, which
are SSA even at -O0 (and the summaries are computed on the same
unmutated IR).

The engine proves on demand (:class:`ModuleElision`): a function is
annotated the first time a runtime prepares it, and summaries are
computed only for the SCCs the proved functions reach — a corpus run
prepares about 7 of libc's ~100 definitions.  :func:`run_module` with
no ``functions`` still annotates a whole module up front (the
benchmark harness does).

The annotations are inert until a :class:`~repro.core.interpreter.
Runtime` is created with ``elide_checks=True`` — important because the
libc module is compiled once per process and shared across engines.
"""

from __future__ import annotations

from .. import ir
from ..analysis.cfg import ControlFlowGraph
from ..analysis.heapstate import LIVE, HeapStateAnalysis
from ..analysis.intervals import IntervalAnalysis
from ..analysis.pointers import NONNULL, PointerAnalysis
from ..ir import instructions as inst


def run(function: ir.Function, summaries: dict | None = None) -> int:
    """Annotate one function; returns the number of instructions whose
    checks were (fully or partly) elided.  Idempotent."""
    if not function.is_definition:
        return 0
    cfg = ControlFlowGraph(function)
    intervals = IntervalAnalysis(function, cfg).run()
    pointers = PointerAnalysis(function, intervals, cfg,
                               summaries=summaries).run()
    heap = HeapStateAnalysis(function, pointers, cfg,
                             summaries=summaries).run()
    elided = 0
    for block in cfg.reverse_postorder:
        if block not in pointers.result.input:
            continue
        pointers._current_block = block
        pointer_state = dict(pointers.result.input[block])
        heap_state = dict(heap.result.input.get(block, {}))
        for instruction in block.instructions:
            if isinstance(instruction, (inst.Load, inst.Store)):
                fact = pointers.fact_for(instruction.pointer,
                                         pointer_state)
                level = _proof_level(fact, _access_size(instruction),
                                     heap_state)
                if level > instruction.elide:
                    instruction.elide = level
                    elided += 1
            elif isinstance(instruction, inst.Gep):
                fact = pointers.fact_for(instruction.base, pointer_state)
                if fact.nullness == NONNULL and \
                        fact.region is not None and \
                        fact.region.kind != "param" and \
                        not instruction.proven_nonnull:
                    instruction.proven_nonnull = True
                    elided += 1
            pointers._transfer_instruction(instruction, pointer_state)
            heap._transfer_instruction(instruction, heap_state)
    return elided


def run_module(module: ir.Module, cache=None, functions=None,
               analysis=None) -> int:
    """Annotate ``functions`` (default: every function of ``module``),
    with interprocedural summaries computed for the SCCs they reach
    (incrementally, when ``cache`` is given).  ``analysis`` is a
    :class:`~repro.analysis.interproc.ModuleAnalysis` of the module to
    reuse and extend (see :class:`ModuleElision`).

    A function whose annotations end up *level-1 only* (no level-2
    access, no proven gep) is reset to level 0: a bare level-1 mark
    removes just the null/dispatch test yet changes which node shapes
    the interpreter can pick — in particular it blocks gep+access
    fusion for accesses whose gep lacks the matching non-null proof —
    so with nothing else proven the marks cost more than they save
    (this showed up as nbody's 0.98x in BENCH_elision.json)."""
    from ..analysis.interproc.driver import module_summaries
    if functions is None:
        functions = list(module.functions.values())
        roots = None
    else:
        roots = [function.name for function in functions
                 if function.is_definition]
    summaries = module_summaries(module, cache=cache, roots=roots,
                                 into=analysis)
    total = 0
    for function in functions:
        elided = run(function, summaries)
        if elided and _level1_only(function):
            _reset(function)
            elided = 0
        total += elided
    return total


class ModuleElision:
    """Demand-driven elision for one linked module.

    :meth:`prove` annotates a function the first time a runtime on the
    module prepares it.  The summaries it needs — those of the SCCs the
    function reaches — are computed once into :attr:`analysis` and
    shared by every later proof, so a run pays for the functions it
    executes, not for all of libc.  A function's proof reads only its
    direct callees' summaries, which depend only on their own callees,
    so each proved function carries the marks a whole-module
    :func:`run_module` would give it."""

    __slots__ = ("module", "cache", "analysis", "proved")

    def __init__(self, module: ir.Module, cache=None):
        from ..analysis.interproc.driver import ModuleAnalysis
        self.module = module
        self.cache = cache
        self.analysis = ModuleAnalysis()
        self.proved: set[str] = set()

    def prove(self, function: ir.Function) -> None:
        if function.name in self.proved or not function.is_definition:
            return
        self.proved.add(function.name)
        # A module-global lookup: a wrapper installed on
        # repro.opt.elide.run_module (the per-layer trace) sees it.
        run_module(self.module, cache=self.cache, functions=[function],
                   analysis=self.analysis)


def module_elision(module: ir.Module, cache=None) -> ModuleElision:
    """The module's :class:`ModuleElision`, attached on first use (the
    first caller's ``cache`` serves every later one)."""
    state = getattr(module, "_elision", None)
    if state is None:
        state = module._elision = ModuleElision(module, cache)
    return state


def _level1_only(function: ir.Function) -> bool:
    proven_something = False
    annotated_any = False
    for instruction in function.instructions():
        if isinstance(instruction, (inst.Load, inst.Store)):
            if instruction.elide >= 2:
                proven_something = True
            elif instruction.elide == 1:
                annotated_any = True
        elif isinstance(instruction, inst.Gep) \
                and instruction.proven_nonnull:
            proven_something = True
    return annotated_any and not proven_something


def _reset(function: ir.Function) -> None:
    for instruction in function.instructions():
        if isinstance(instruction, (inst.Load, inst.Store)):
            instruction.elide = 0
        elif isinstance(instruction, inst.Gep):
            instruction.proven_nonnull = False


def _access_size(instruction) -> int | None:
    access_type = instruction.result.type \
        if isinstance(instruction, inst.Load) else instruction.value.type
    try:
        return access_type.size
    except TypeError:
        return None


def _proof_level(fact, access_size: int | None, heap_state) -> int:
    # Level 1 requires a known region: nullness alone is not enough,
    # because e.g. inttoptr of a nonzero integer is "non-null" yet still
    # trips the dynamic invalid-pointer check.  A region proves the
    # value is a genuine object address.
    if fact.nullness != NONNULL or fact.region is None:
        return 0
    region = fact.region
    if region.kind == "param":
        # A param region is an *identity* (for summary collection), not
        # a proof: the caller may pass any bit pattern.  Never elide on
        # it — the summaries pipeline sets param_regions, the elision
        # pipeline does not, so this is defense in depth.
        return 0
    if access_size is None or region.size is None or fact.offset is None:
        return 1
    in_bounds = fact.offset.lo is not None and fact.offset.lo >= 0 and \
        fact.offset.hi is not None and \
        fact.offset.hi + access_size <= region.size
    if not in_bounds:
        return 1
    if not region.freeable:
        return 2  # stack/global object: no lifetime to check
    # A heap object is provably live when its allocation site is LIVE
    # on every path to this point (the join washes any may-freed path
    # to TOP); the summaries keep that proof across calls to callees
    # that neither free nor retain the pointer.
    if heap_state.get(id(region.site)) == LIVE:
        return 2
    return 1
