"""Safe-tier -O2 (opt/pipeline.run_safe_o2): mem2reg + GVN + LICM +
detection-preserving DCE, constrained to transformations valid under
managed semantics.

The contract under test: the optimized IR computes the same values AND
detects the same bugs — a safe-tier pass may remove redundant pure
work, never an instruction whose execution is how an error gets found
(loads, stores, geps, calls, division).
"""

from collections import Counter

import pytest

from repro import ir
from repro.cfront import compile_source
from repro.core.engine import SafeSulong
from repro.ir import instructions as inst
from repro.libc.loader import libc_module
from repro.opt import gvn, licm, mem2reg
from repro.opt.mem2reg import _same_value
from repro.opt.pipeline import (optimized_clone, run_safe_o2,
                                run_safe_o2_function)


def _main(source):
    module = compile_source(source, include_dirs=[])
    return module, module.functions["main"]


def _count(function, kind):
    return sum(1 for i in function.instructions()
               if isinstance(i, kind))


class TestGvn:
    def test_eliminates_redundant_computation(self):
        _module, main = _main("""
            int main(void) {
                int a = 7, b = 9;
                int x = a * b + a;
                int y = a * b + a;
                return x + y - 124;
            }
        """)
        mem2reg.run(main)
        before = _count(main, inst.BinOp)
        assert gvn.run(main)
        assert _count(main, inst.BinOp) < before

    def test_does_not_merge_across_stores(self):
        source = """
            int main(void) {
                int a[2]; a[0] = 3;
                int x = a[0];
                a[0] = 5;
                int y = a[0];
                return x + y;  /* 8, not 6 or 10 */
            }
        """
        module, main = _main(source)
        run_safe_o2_function(main)
        assert SafeSulong().run_module(module).status == 8

    def test_division_not_unified_when_it_may_trap(self):
        # Two identical divisions: GVN may unify them (same trap), but
        # the *result* must still trap when the divisor is zero.
        module, _main_fn = _main("""
            int main(void) {
                int z = 0;
                int a = 10 / z;
                return a;
            }
        """)
        run_safe_o2(module)
        result = SafeSulong().run_module(module)
        assert result.crashed and "division" in result.crash_message


class TestLicm:
    def test_hoists_invariant_arithmetic(self):
        _module, main = _main("""
            int main(void) {
                int n = 1000, a = 13, b = 29, s = 0;
                for (int i = 0; i < n; i++)
                    s += a * b + 7;
                return s & 0xff;
            }
        """)
        mem2reg.run(main)
        # The invariant `a * b + 7` sits in a loop body block before
        # LICM and in a non-loop (preheader) block after.
        from repro.analysis.cfg import ControlFlowGraph
        cfg = ControlFlowGraph(main)
        body = set().union(*cfg.loops.values())
        invariant_in_body = sum(
            1 for block in body for i in block.instructions
            if isinstance(i, inst.BinOp))
        assert licm.run(main)
        cfg = ControlFlowGraph(main)
        body = set().union(*cfg.loops.values())
        remaining = sum(
            1 for block in body for i in block.instructions
            if isinstance(i, inst.BinOp))
        assert remaining < invariant_in_body

    def test_division_never_hoisted(self):
        # 100 / d is invariant but the loop never runs, so hoisting it
        # would *introduce* a trap that the original program does not
        # have.
        module, main = _main("""
            int main(void) {
                int d = 0, s = 0;
                for (int i = 0; i < 0; i++)
                    s += 100 / d;
                return s;
            }
        """)
        run_safe_o2_function(main)
        result = SafeSulong().run_module(module)
        assert not result.crashed
        assert result.status == 0


class TestDetectionPreservingDce:
    def test_dead_load_survives(self):
        # The load's result is unused, but executing it is what detects
        # the out-of-bounds: DCE must keep it.
        module, main = _main("""
            int main(void) {
                int a[4];
                a[0] = 1;
                int i = 5;
                int dead = a[i];
                (void)dead;
                return 0;
            }
        """)
        def gep_loads(function):
            defs = {id(i.result): i for i in function.instructions()
                    if i.result is not None}
            return sum(1 for i in function.instructions()
                       if isinstance(i, inst.Load)
                       and isinstance(defs.get(id(i.pointer)), inst.Gep))

        before = gep_loads(main)
        assert before
        run_safe_o2_function(main)
        # mem2reg legitimately removes scalar-slot loads; the checked
        # array access must survive even though its result is dead.
        assert gep_loads(main) == before
        result = SafeSulong().run_module(module)
        assert result.bugs and result.bugs[0].kind == "out-of-bounds"

    def test_dead_arithmetic_removed(self):
        _module, main = _main("""
            int main(void) {
                int a = 6, b = 7;
                int dead = a * b + a - b;
                (void)dead;
                return 0;
            }
        """)
        mem2reg.run(main)
        run_safe_o2_function(main)
        # The unused multiply/add/sub chain is gone.
        assert _count(main, inst.BinOp) == 0


class TestPipeline:
    PROGRAMS = [
        ("""
         int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
         int main(void) { return fib(15) & 0xff; }
         """, 610 & 0xff),
        ("""
         int main(void) {
             int a[16], s = 0;
             for (int i = 0; i < 16; i++) a[i] = i * i;
             for (int i = 0; i < 16; i++) s += a[i];
             return s & 0xff;
         }
         """, 1240 & 0xff),
    ]

    @pytest.mark.parametrize("source,expected", PROGRAMS)
    def test_optimized_matches_plain(self, source, expected):
        plain = SafeSulong().run_source(source)
        module = compile_source(source, include_dirs=[])
        run_safe_o2(module)
        optimized = SafeSulong().run_module(module)
        assert plain.status == optimized.status == expected

    def test_optimized_clone_memoized_and_original_untouched(self):
        module, main = _main("""
            int main(void) {
                int a = 3, b = 4;
                return a * b + a * b - 23;
            }
        """)
        before = _count(main, inst.BinOp)
        clone = optimized_clone(main)
        assert optimized_clone(main) is clone
        assert _count(main, inst.BinOp) == before  # original intact
        assert _count(clone, inst.BinOp) <= before

    def test_speculative_engine_runs_safe_o2_clone(self):
        # speculate=True is what routes execution through the safe-O2
        # clone; output must match the plain tier.
        source = """
            int main(void) {
                int a[64], s = 0;
                for (int i = 0; i < 64; i++) a[i] = i ^ 21;
                for (int r = 0; r < 10; r++)
                    for (int i = 0; i < 64; i++) s += a[i];
                return s & 0xff;
            }
        """
        plain = SafeSulong().run_source(source)
        spec = SafeSulong(speculate=True).run_source(source)
        assert plain.status == spec.status
        assert plain.stdout == spec.stdout


def _ssa_shape_violations(function):
    """Dead phis (no non-phi instruction reaches them through the phi
    web), trivial phis (one distinct incoming value besides themselves),
    and phis whose incoming blocks are not exactly the block's
    ``compute_predecessors()`` entries, duplicates included."""
    preds = function.compute_predecessors()
    phis = {phi.result: (block, phi)
            for block in function.blocks for phi in block.phis()}
    live, pending = set(), []
    for instruction in function.instructions():
        if isinstance(instruction, inst.Phi):
            continue
        for operand in instruction.operands():
            if operand in phis and operand not in live:
                live.add(operand)
                pending.append(operand)
    while pending:
        for _, value in phis[pending.pop()][1].incoming:
            if value in phis and value not in live:
                live.add(value)
                pending.append(value)
    problems = []
    for result, (block, phi) in phis.items():
        where = f"@{function.name}:{block.label} %{result.name}"
        if result not in live:
            problems.append(f"dead phi {where}")
        distinct = []
        for _, value in phi.incoming:
            if value is not result and not any(
                    _same_value(value, seen) for seen in distinct):
                distinct.append(value)
        if len(distinct) <= 1:
            problems.append(f"trivial phi {where}")
        if Counter(id(pred) for pred, _ in phi.incoming) \
                != Counter(id(pred) for pred in preds[block]):
            problems.append(f"phi incoming != predecessors {where}")
    return problems


class TestSsaShape:
    def test_libc_optimized_clones_have_pruned_phis(self):
        problems, phis = [], 0
        for function in libc_module().functions.values():
            if not function.is_definition:
                continue
            clone = optimized_clone(function)
            assert clone is not function, function._safe_o2_error
            phis += sum(len(block.phis()) for block in clone.blocks)
            problems.extend(_ssa_shape_violations(clone))
        assert phis  # the libc loops do carry values through phis
        assert problems == []

    def test_same_target_condbr_keeps_duplicate_incoming(self):
        # The else arm ends in a condbr whose two arms both go to the
        # join, so the join lists it twice and so must x's phi there.
        source = """
            int main(void) {
                int c = 3, x;
                if (c > 2) x = 5; else x = 6;
                return x;
            }
        """
        module, main = _main(source)
        entry_branch = main.entry.terminator
        else_block = entry_branch.if_false
        join = else_block.terminator.target
        else_block.instructions[-1] = inst.CondBr(
            entry_branch.condition, join, join)
        mem2reg.run(main)
        ir.validate_function(main)
        assert _ssa_shape_violations(main) == []
        [phi] = join.phis()
        assert [pred for pred, _ in phi.incoming].count(else_block) == 2
        assert SafeSulong().run_module(module).status == 5


class TestMem2regShapes:
    """mem2reg alone, on CFG shapes the front end builds from goto and
    dead code; each promoted program must behave like the original."""

    def _promoted_matches_original(self, source):
        engine = SafeSulong()
        original = engine.run_module(engine.compile(source))
        module = engine.compile(source)
        promoted = []
        for name in ("main", "f"):
            function = module.functions.get(name)
            if function is not None and mem2reg.run(function):
                ir.validate_function(function)
                assert _ssa_shape_violations(function) == []
                promoted.append(function)
        assert promoted
        result = SafeSulong().run_module(module)
        assert (result.status, result.stdout) \
            == (original.status, original.stdout)
        assert not result.bugs and not result.crashed
        return promoted

    def test_goto_built_irreducible_loop(self):
        # Two entries into the a/b cycle: neither block dominates the
        # other, so there is no natural loop header.
        [main] = self._promoted_matches_original("""
            #include <stdio.h>
            int main(void) {
                int x = 1, n = 0, k = 5;
                if (k & 1) goto b;
            a:
                x = x * 3 + n;
                n++;
            b:
                x = x + 7;
                n++;
                if (n < 9) goto a;
                printf("%d %d\\n", x, n);
                return x & 0xff;
            }
        """)
        assert any(block.phis() for block in main.blocks)

    def test_unreachable_block_stores_to_promoted_variable(self):
        # The code after `goto loop` is unreachable but still falls into
        # the loop; its stores must not leak into the reachable values.
        self._promoted_matches_original("""
            #include <stdio.h>
            int main(void) {
                int x = 5, s = 0, i = 0;
                goto loop;
                x = 7;
                s = 100;
            loop:
                s += x + i;
                i++;
                if (i < 4) goto loop;
                printf("%d\\n", s);
                return s;
            }
        """)

    def test_variable_live_on_one_arm_only(self):
        # t is redefined on the else arm but dead after the join: the
        # minimal-SSA phi for it there is swept, only r's remains.
        [f] = self._promoted_matches_original("""
            #include <stdio.h>
            int f(int c) {
                int t = c * 3, r = 0;
                if (c > 2) r = t + 1;
                else { t = 9; r = 2; }
                return r;
            }
            int main(void) {
                printf("%d %d\\n", f(5), f(1));
                return f(4);
            }
        """)
        assert sum(len(block.phis()) for block in f.blocks) == 1
