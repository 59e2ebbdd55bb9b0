"""Structural validation of context programs.

Beyond shape checks (SSA dominance, arities, region partition), the key
semantic check is **guard equivalence**: in a tagged dataflow machine a
token is produced under some control condition and must be consumed
under *exactly* the same condition, otherwise an untaken branch either
leaks a token (permanent live state, and the block's free barrier never
fires) or starves a consumer (deadlock). We compute, for every
(producer port, consumer) edge, the *guard sequence* -- the chain of
``(decider, sense)`` pairs under which the token exists / is awaited --
and require them to match.
"""

from __future__ import annotations

from itertools import repeat
from typing import List, Optional, Tuple

from repro.errors import IRError
from repro.ir.ops import CONTEXT_IR_OPS, Op
from repro.ir.program import (
    BlockDef,
    BlockKind,
    ContextProgram,
    IfRegion,
    Lit,
    LoopTerm,
    Param,
    Region,
    Res,
    ReturnTerm,
    ValueRef,
)

Guard = Tuple[Tuple[ValueRef, bool], ...]

# Opcodes read in the per-op loops: a module global is read faster
# than an Enum member.
_MEMORY_OPS = (Op.LOAD, Op.STORE)
_MERGE = Op.MERGE
_SPAWN = Op.SPAWN
_STEER = Op.STEER
_STORE = Op.STORE


def validate_program(program: ContextProgram) -> None:
    """Raise :class:`IRError` if ``program`` is not well formed."""
    if program.entry not in program.blocks:
        raise IRError(f"entry block {program.entry!r} missing")
    program.topo_order()  # raises on call-graph cycles
    for block in program.blocks.values():
        _validate_block(program, block)
    _validate_arrays(program)


def _validate_arrays(program: ContextProgram) -> None:
    arrays = program.arrays
    for block in program.blocks.values():
        for op in block.ops:
            if op.op in _MEMORY_OPS:
                array = op.attrs.get("array")
                if array not in arrays:
                    raise IRError(
                        f"{block.name}/%{op.op_id}: array {array!r} "
                        f"not declared"
                    )
                if op.op is _STORE and arrays[array].read_only:
                    raise IRError(
                        f"{block.name}/%{op.op_id}: store to read-only "
                        f"array {array!r}"
                    )


def _validate_block(program: ContextProgram, block: BlockDef) -> None:
    _check_ops(program, block)
    guards = _check_regions(block)
    _check_guard_equivalence(block, guards)
    _check_terminator(block, guards)


def _check_ops(program: ContextProgram, block: BlockDef) -> None:
    """Op ids, opcodes, operands (in range, backward, on a real port),
    spawn signatures, and at least one token input per op."""
    name = block.name
    ops = block.ops
    n_ops = len(ops)
    n_params = block.n_params
    for i, op in enumerate(ops):
        if op.op_id != i:
            raise IRError(f"{name}: op ids not dense at %{i}")
        if op.op not in CONTEXT_IR_OPS:
            raise IRError(
                f"{name}/%{i}: {op.op.value} is not a context-IR op"
            )
        has_token = False
        for ref in op.inputs:
            cls = ref.__class__
            if cls is Res:
                src = ref.op_id
                if not 0 <= src < n_ops:
                    raise IRError(f"{name}/%{i}: bad op reference {ref}")
                if src >= i:
                    raise IRError(
                        f"{name}/%{i}: forward/self reference {ref} "
                        f"(blocks must be DAGs)"
                    )
                if not 0 <= ref.port < ops[src].n_outputs:
                    raise IRError(f"{name}/%{i}: bad port in {ref}")
                has_token = True
            elif cls is Param:
                if not 0 <= ref.index < n_params:
                    raise IRError(
                        f"{name}/%{i}: bad param index {ref.index}"
                    )
                has_token = True
            elif cls is not Lit:
                raise IRError(f"{name}/%{i}: bad operand {ref!r}")
        if op.op is _SPAWN:
            callee_name = op.attrs.get("callee")
            callee = program.blocks.get(callee_name)
            if callee is None:
                raise IRError(
                    f"{name}/%{i}: spawn of unknown block "
                    f"{callee_name!r}"
                )
            if len(op.inputs) != callee.n_params:
                raise IRError(
                    f"{name}/%{i}: spawn passes {len(op.inputs)} args "
                    f"but {callee_name!r} takes {callee.n_params}"
                )
            if op.n_outputs != callee.n_results:
                raise IRError(
                    f"{name}/%{i}: spawn expects {op.n_outputs} "
                    f"results but {callee_name!r} returns {callee.n_results}"
                )
        if not has_token:
            raise IRError(
                f"{name}/%{i}: {op.op.value} has no token inputs; "
                f"it could never fire (fold constants or materialize a "
                f"trigger token instead)"
            )


def _check_regions(block: BlockDef) -> List[Guard]:
    """Check region-tree partition; return each op's guard sequence,
    indexed by op id."""
    n_ops = len(block.ops)
    seen: List[Optional[Guard]] = [None] * n_ops
    if _record_guards(block, block.region, (), seen) != n_ops:
        missing = [i for i, guard in enumerate(seen) if guard is None]
        raise IRError(
            f"{block.name}: ops missing from region tree: {missing}"
        )
    return seen


def _record_guards(block: BlockDef, region: Region, guard: Guard,
                   seen: List[Optional[Guard]]) -> int:
    """Record in ``seen`` the guard of each op under ``region``;
    returns how many ops it recorded."""
    count = 0
    for item in region.items:
        if isinstance(item, IfRegion):
            count += _record_guards(block, item.then_region,
                                    guard + ((item.decider, True),), seen)
            count += _record_guards(block, item.else_region,
                                    guard + ((item.decider, False),), seen)
        elif 0 <= item < len(seen):
            if seen[item] is not None:
                raise IRError(
                    f"{block.name}: op %{item} appears in two regions"
                )
            seen[item] = guard
            count += 1
        else:
            raise IRError(f"{block.name}: region lists bad op {item}")
    return count


def _produce_guard(block: BlockDef, guards: List[Guard], ref: Res) -> Guard:
    """Guard under which a token appears on ``ref``: a steer's data
    output also needs its decider to take the steer's side."""
    guard = guards[ref.op_id]
    if ref.port == 0:
        producer = block.ops[ref.op_id]
        if producer.op is _STEER:
            sense = bool(producer.attrs["sense"])
            return guard + ((producer.inputs[0], sense),)
    return guard


def _check_guard_equivalence(block: BlockDef, guards: List[Guard]) -> None:
    """Every token input is awaited under the guard it is produced
    under: the op's own guard, or for a merge's two data inputs that
    guard plus the merge decider's side."""
    ops = block.ops
    for op in ops:
        guard = guards[op.op_id]
        if op.op is _MERGE:
            decider = op.inputs[0]
            wants = (guard, guard + ((decider, True),),
                     guard + ((decider, False),))
        else:
            wants = repeat(guard)
        for ref, want in zip(op.inputs, wants):
            cls = ref.__class__
            if cls is Res:
                have = guards[ref.op_id]
                if ref.port == 0 and ops[ref.op_id].op is _STEER:
                    have = _produce_guard(block, guards, ref)
                if have != want:
                    raise IRError(
                        f"{block.name}/%{op.op_id}: token {ref} produced "
                        f"under guard {have} but consumed under {want} "
                        f"(token leak or starvation)"
                    )
            elif cls is Param and want != ():
                # Params are unconditional; consuming a param inside a
                # region would leak it when untaken.
                raise IRError(
                    f"{block.name}/%{op.op_id}: param {ref} consumed "
                    f"under guard {want}; steer it into the region"
                )


def _terminator_refs(block: BlockDef) -> List[ValueRef]:
    term = block.terminator
    if term is None:
        raise IRError(f"{block.name}: missing terminator")
    if isinstance(term, ReturnTerm):
        if block.kind is not BlockKind.DAG:
            raise IRError(f"{block.name}: return terminator on a loop block")
        return list(term.results)
    if isinstance(term, LoopTerm):
        if block.kind is not BlockKind.LOOP:
            raise IRError(f"{block.name}: loop terminator on a DAG block")
        if len(term.next_args) != block.n_params:
            raise IRError(
                f"{block.name}: loop carries {block.n_params} params but "
                f"terminator has {len(term.next_args)} next_args"
            )
        return [term.decider, *term.next_args, *term.results]
    raise IRError(f"{block.name}: unknown terminator {term!r}")


def _check_terminator(block: BlockDef, guards: List[Guard]) -> None:
    # The terminator reads values as if it were one more op, %n.
    n_ops = len(block.ops)
    for ref in _terminator_refs(block):
        if isinstance(ref, Res):
            if not 0 <= ref.op_id < n_ops:
                raise IRError(
                    f"{block.name}/%{n_ops}: bad op reference {ref}"
                )
            if not 0 <= ref.port < block.ops[ref.op_id].n_outputs:
                raise IRError(f"{block.name}/%{n_ops}: bad port in {ref}")
            if _produce_guard(block, guards, ref) != ():
                raise IRError(
                    f"{block.name}: terminator value {ref} is conditional; "
                    f"merge it to the top region first"
                )
        elif isinstance(ref, Param):
            if not 0 <= ref.index < block.n_params:
                raise IRError(f"{block.name}: bad terminator param {ref}")
