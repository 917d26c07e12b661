"""Promote scalar allocas to SSA registers (LLVM's mem2reg).

Textbook pruned SSA construction (Cytron et al.), in time linear in
the function's instructions plus the phis it places:

1. *Placement.*  A variable needs a phi only at the iterated dominance
   frontier of the blocks that store to it, and only if some block
   loads it before storing it (otherwise no value crosses a block
   boundary).  Frontiers come from :class:`ControlFlowGraph`.
2. *Renaming.*  A walk of the dominator tree keeps one current value
   per variable and undoes a block's stores on the way back up, so a
   block without a phi for a variable inherits the variable's value at
   the exit of its idom (no per-block copy of every variable).
   Unreachable blocks start from ``undef``.  Every replaced load goes
   into one substitution map instead of being rewritten on the spot.
3. *Cleanup.*  Trivial phis (one distinct incoming value besides
   themselves) fold into that value through the same map; phi webs that
   no non-phi instruction uses are swept.  One operand pass at the end
   resolves the map.

Phi incoming lists keep one entry per ``compute_predecessors()`` entry,
so a ``condbr``/``switch`` with several arms to one block yields
duplicate incoming entries, as the executors expect.
"""

from __future__ import annotations

from .. import ir
from ..analysis.cfg import ControlFlowGraph
from ..ir import instructions as inst
from ..ir import types as irt


def _promotable(function: ir.Function) -> list[inst.Alloca]:
    """Allocas of scalar type whose address is only used by direct
    loads/stores (never escapes)."""
    candidates: dict[ir.VirtualRegister, inst.Alloca] = {}
    for instruction in function.instructions():
        if isinstance(instruction, inst.Alloca) and isinstance(
                instruction.allocated_type,
                (irt.IntType, irt.FloatType, irt.PointerType)):
            candidates[instruction.result] = instruction
    for instruction in function.instructions():
        if isinstance(instruction, inst.Load):
            continue
        if isinstance(instruction, inst.Store):
            # The *value* operand escaping disqualifies the alloca.
            if instruction.value in candidates:
                candidates.pop(instruction.value, None)
            continue
        for operand in instruction.operands():
            if operand in candidates:
                candidates.pop(operand, None)
    return list(candidates.values())


def run(function: ir.Function) -> bool:
    allocas = _promotable(function)
    if not allocas:
        return False
    cfg = ControlFlowGraph(function)
    if cfg.predecessors[cfg.entry]:
        # No phi can carry a value into the entry along the implicit
        # function-start edge; the front end never builds such a CFG.
        return False
    variables = {alloca.result: i for i, alloca in enumerate(allocas)}
    undef = [ir.ConstUndef(alloca.allocated_type) for alloca in allocas]

    phis = _place_phis(function, cfg, variables, undef)
    subst: dict[ir.VirtualRegister, ir.Value] = {}

    def resolve(value: ir.Value) -> ir.Value:
        root = value
        while root in subst:
            root = subst[root]
        while value is not root:  # path compression
            next_value = subst[value]
            subst[value] = root
            value = next_value
        return root

    # Rename along the dominator tree: one value per variable, undone on
    # the way back up, so every block starts from its idom's exit values.
    # Unreachable blocks come last, when everything is back to undef.
    children: dict[ir.Block, list[ir.Block]] = {}
    for block in cfg.reverse_postorder[1:]:
        children.setdefault(cfg.idom[block], []).append(block)
    current = list(undef)
    edge_values: dict[tuple[ir.Block, ir.Block], list[ir.Value]] = {}
    stack: list = [*reversed(cfg.unreachable), cfg.entry]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            for var, value in reversed(item):
                current[var] = value
            continue
        block, undo = item, []
        for var, phi in phis.get(block, ()):
            undo.append((var, current[var]))
            current[var] = phi.result
        kept = []
        for instruction in block.instructions:
            if isinstance(instruction, inst.Load) \
                    and instruction.pointer in variables:
                subst[instruction.result] = \
                    current[variables[instruction.pointer]]
            elif isinstance(instruction, inst.Store) \
                    and instruction.pointer in variables:
                var = variables[instruction.pointer]
                undo.append((var, current[var]))
                current[var] = instruction.value
            elif not (isinstance(instruction, inst.Alloca)
                      and instruction.result in variables):
                kept.append(instruction)
        block.instructions = kept
        for succ in block.successors():
            if succ in phis and (block, succ) not in edge_values:
                edge_values[block, succ] = [
                    current[var] for var, _ in phis[succ]]
        stack.append(undo)
        stack.extend(reversed(children.get(block, ())))

    preds = function.compute_predecessors()
    phi_of: dict[ir.VirtualRegister, inst.Phi] = {}
    users: dict[ir.VirtualRegister, list[inst.Phi]] = {}
    worklist: list[inst.Phi] = []
    for block, block_phis in phis.items():
        for index, (_, phi) in enumerate(block_phis):
            phi.incoming = [(pred, resolve(edge_values[pred, block][index]))
                            for pred in preds[block]]
            phi_of[phi.result] = phi
            worklist.append(phi)
    for phi in worklist:
        for _, value in phi.incoming:
            if value in phi_of:
                users.setdefault(value, []).append(phi)

    # Fold trivial phis.  A folded phi's users move to its replacement,
    # so they are revisited if that one folds too.
    while worklist:
        phi = worklist.pop()
        result = phi.result
        if result in subst:
            continue
        unique: list[ir.Value] = []
        for _, value in phi.incoming:
            value = resolve(value)
            if value is not result and not any(
                    _same_value(value, seen) for seen in unique):
                unique.append(value)
                if len(unique) > 1:
                    break
        if len(unique) > 1:
            continue
        replacement = unique[0] if unique else ir.ConstUndef(result.type)
        subst[result] = replacement
        moved = users.pop(result, [])
        worklist.extend(moved)
        if replacement in phi_of:
            users.setdefault(replacement, []).extend(moved)

    # One operand pass over everything but the new phis; the phis those
    # instructions use are the roots of the live phi webs.
    live: list[inst.Phi] = []
    live_set: set[inst.Phi] = set()
    for instruction in function.instructions():
        if isinstance(instruction, inst.Phi) and instruction.result in phi_of:
            continue
        for operand in instruction.operands():
            if operand in subst:
                value = resolve(operand)
                instruction.replace_operand(operand, value)
                operand = value
            phi = phi_of.get(operand)
            if phi is not None and phi not in live_set:
                live_set.add(phi)
                live.append(phi)
    while live:
        phi = live.pop()
        phi.incoming = [(pred, resolve(value))
                        for pred, value in phi.incoming]
        for _, value in phi.incoming:
            used = phi_of.get(value)
            if used is not None and used not in live_set:
                live_set.add(used)
                live.append(used)

    for block in phis:
        block.instructions = [
            instruction for instruction in block.instructions
            if not (isinstance(instruction, inst.Phi)
                    and instruction.result in phi_of
                    and instruction not in live_set)]
    return True


def _place_phis(function: ir.Function, cfg: ControlFlowGraph,
                variables: dict[ir.VirtualRegister, int],
                undef: list[ir.Value]
                ) -> dict[ir.Block, list[tuple[int, inst.Phi]]]:
    """Insert empty phis at the iterated dominance frontier of each
    variable's store blocks; returns block -> [(variable, phi)] in
    variable order.  Variables never loaded before being stored within
    a block stay block-local and get no phis at all."""
    count = len(undef)
    def_blocks: list[list[ir.Block]] = [[] for _ in range(count)]
    crosses = [False] * count
    for block in cfg.reverse_postorder:
        stored: set[int] = set()
        for instruction in block.instructions:
            if isinstance(instruction, inst.Store) \
                    and instruction.pointer in variables:
                var = variables[instruction.pointer]
                if var not in stored:
                    stored.add(var)
                    def_blocks[var].append(block)
            elif isinstance(instruction, inst.Load) \
                    and instruction.pointer in variables:
                var = variables[instruction.pointer]
                if var not in stored:
                    crosses[var] = True

    frontiers = cfg.dominance_frontiers()
    needed: dict[ir.Block, list[int]] = {}
    for var in range(count):
        if not crosses[var]:
            continue
        seen = set(def_blocks[var])
        work = list(def_blocks[var])
        while work:
            for block in frontiers[work.pop()]:
                if block not in needed or needed[block][-1] != var:
                    needed.setdefault(block, []).append(var)
                    if block not in seen:
                        seen.add(block)
                        work.append(block)

    phis: dict[ir.Block, list[tuple[int, inst.Phi]]] = {}
    serial = 0
    for block in function.blocks:
        if block not in needed:
            continue
        row = []
        for var in needed[block]:
            serial += 1
            row.append((var, inst.Phi(ir.VirtualRegister(
                f"m2r.{var}.{serial}", undef[var].type), [])))
        block.instructions[0:0] = [phi for _, phi in row]
        phis[block] = row
    return phis


def _same_value(a: ir.Value, b: ir.Value) -> bool:
    if a is b:
        return True
    if isinstance(a, ir.ConstInt) and isinstance(b, ir.ConstInt):
        return a.type == b.type and a.value == b.value
    if isinstance(a, ir.ConstUndef) and isinstance(b, ir.ConstUndef):
        return a.type == b.type
    return False
