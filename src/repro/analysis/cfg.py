"""Control-flow-graph utilities over ``ir.Function`` blocks.

Predecessors, reverse postorder, immediate dominators (the Cooper/Harvey/
Kennedy iterative algorithm), a ``dominates`` query, dominance
frontiers, and natural-loop detection via back edges.  All clients (the
dataflow solver, the lint driver, the check-elision pass, mem2reg) share
this one view of the CFG.
"""

from __future__ import annotations

from ..ir.module import Block, Function


class ControlFlowGraph:
    """An immutable snapshot of a function's CFG.

    Unreachable blocks (no path from the entry) are excluded from
    ``postorder``/``reverse_postorder`` and have no dominator
    information; they are listed in ``unreachable``.
    """

    def __init__(self, function: Function):
        self.function = function
        self.entry = function.entry
        self.successors: dict[Block, list[Block]] = {
            block: list(block.successors()) for block in function.blocks}
        self.predecessors: dict[Block, list[Block]] = {
            block: [] for block in function.blocks}
        for block, succs in self.successors.items():
            for succ in succs:
                # A block may appear twice as a successor (condbr with
                # identical arms, switch cases sharing a target); record
                # each predecessor once.
                if block not in self.predecessors[succ]:
                    self.predecessors[succ].append(block)

        self.postorder: list[Block] = self._postorder()
        self.reverse_postorder: list[Block] = list(reversed(self.postorder))
        self.rpo_index: dict[Block, int] = {
            block: i for i, block in enumerate(self.reverse_postorder)}
        reachable = set(self.postorder)
        self.unreachable: list[Block] = [
            block for block in function.blocks if block not in reachable]

        self.idom: dict[Block, Block | None] = self._dominators()
        self._dom_depth: dict[Block, int] = self._depths()
        self.back_edges: list[tuple[Block, Block]] = [
            (tail, head)
            for tail in self.postorder
            for head in self.successors[tail]
            if head in reachable and self.dominates(head, tail)]
        self.loops: dict[Block, set[Block]] = self._natural_loops()
        self.loop_headers: set[Block] = set(self.loops)
        # Widening points must break *every* cycle.  Targets of retreating
        # edges (successor not later in RPO) are a superset of natural-loop
        # headers and also cover irreducible regions built with goto.
        self.widen_points: set[Block] = {
            succ
            for block in self.reverse_postorder
            for succ in self.successors[block]
            if succ in self.rpo_index
            and self.rpo_index[succ] <= self.rpo_index[block]}

    # -- traversal ----------------------------------------------------------

    def _postorder(self) -> list[Block]:
        order: list[Block] = []
        visited: set[Block] = set()
        # Iterative DFS; recursion would overflow on long block chains.
        stack: list[tuple[Block, int]] = [(self.entry, 0)]
        visited.add(self.entry)
        while stack:
            block, child = stack[-1]
            succs = self.successors[block]
            if child < len(succs):
                stack[-1] = (block, child + 1)
                succ = succs[child]
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, 0))
            else:
                stack.pop()
                order.append(block)
        return order

    # -- dominators ---------------------------------------------------------

    def _dominators(self) -> dict[Block, Block | None]:
        """Cooper/Harvey/Kennedy "A Simple, Fast Dominance Algorithm"."""
        idom: dict[Block, Block | None] = {self.entry: self.entry}
        rpo = self.rpo_index
        changed = True
        while changed:
            changed = False
            for block in self.reverse_postorder:
                if block is self.entry:
                    continue
                new_idom: Block | None = None
                for pred in self.predecessors[block]:
                    if pred not in idom:
                        continue  # not yet processed (or unreachable)
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom, rpo)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        idom[self.entry] = None  # the entry has no immediate dominator
        return idom

    @staticmethod
    def _intersect(a: Block, b: Block, idom, rpo) -> Block:
        while a is not b:
            while rpo[a] > rpo[b]:
                a = idom[a]
            while rpo[b] > rpo[a]:
                b = idom[b]
        return a

    def _depths(self) -> dict[Block, int]:
        depth: dict[Block, int] = {self.entry: 0}
        for block in self.reverse_postorder:
            if block in depth:
                continue
            parent = self.idom.get(block)
            if parent is not None:
                depth[block] = depth[parent] + 1
        return depth

    def dominates(self, a: Block, b: Block) -> bool:
        """True iff every path from the entry to ``b`` passes through ``a``
        (reflexive: a block dominates itself)."""
        da = self._dom_depth.get(a)
        db = self._dom_depth.get(b)
        if da is None or db is None:
            return False  # unreachable blocks dominate nothing
        while db > da:
            b = self.idom[b]
            db -= 1
        return a is b

    def dominance_frontiers(self) -> dict[Block, set[Block]]:
        """Reachable block -> its dominance frontier: the blocks where
        its dominance ends (Cooper/Harvey/Kennedy, Figure 5)."""
        frontiers: dict[Block, set[Block]] = {
            block: set() for block in self.reverse_postorder}
        for block in self.reverse_postorder:
            preds = [pred for pred in self.predecessors[block]
                     if pred in self.rpo_index]
            if len(preds) < 2:
                continue
            stop = self.idom[block]
            for runner in preds:
                while runner is not stop and block not in frontiers[runner]:
                    frontiers[runner].add(block)
                    runner = self.idom[runner]
        return frontiers

    # -- loops --------------------------------------------------------------

    def _natural_loops(self) -> dict[Block, set[Block]]:
        """header -> set of blocks in the natural loop of its back edges."""
        loops: dict[Block, set[Block]] = {}
        for tail, head in self.back_edges:
            body = loops.setdefault(head, {head})
            if tail in body:
                continue
            stack = [tail]
            body.add(tail)
            while stack:
                block = stack.pop()
                for pred in self.predecessors[block]:
                    if pred not in body and pred in self.rpo_index:
                        body.add(pred)
                        stack.append(pred)
        return loops
