"""Slot-indexed execution plans for the data-parallel engine.

The seed engine interpreted :class:`~repro.ir.program.BlockDef`
structures directly: every operand read went through an
``isinstance`` dispatch on the :class:`ValueRef` union and a dict
probe keyed by ``(op_id, port)`` tuples, and every op paid an
``OP_INFO`` lookup plus a fresh ``lambda`` allocation.  This module
compiles each block once into a :class:`VecBlockPlan` where **every
value lives in a dense slot of a flat environment list**:

* slots ``0 .. n_params-1`` hold the block's arguments;
* each op output port gets its own slot, assigned in op order;
* literals are deduplicated into trailing constant slots, pre-placed
  in :attr:`VecBlockPlan.template` -- a block activation is one
  ``list.copy()`` plus an argument splice, after which *every* operand
  read is a single ``env[slot]`` index.

The engine (:mod:`repro.sim.vector.engine`) interprets these plans
with one plain walk over each block's items, and the generated
kernels (:mod:`repro.sim.codegen.vector`) compile each block into one
straight-line function over the same slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.ir.program import (
    BlockDef,
    BlockKind,
    ContextProgram,
    IfRegion,
    Lit,
    LoopTerm,
    OpDef,
    Param,
    Region,
    Res,
    ReturnTerm,
    ValueRef,
)
from repro.sim.vector.analysis import VectorInfo, classify_loop


@dataclass(frozen=True)
class VecOp:
    """One op with all operands and outputs resolved to env slots."""

    op_id: int
    op: object  # repro.ir.ops.Op
    in_slots: Tuple[int, ...]
    out_slots: Tuple[int, ...]
    attrs: Dict[str, object]


#: Region tree items: a compiled op, or a two-sided branch carrying
#: the decider's slot and the compiled sub-regions.
VecItem = Union[VecOp, "VecIf"]


@dataclass(frozen=True)
class VecIf:
    decider_slot: int
    then_items: Tuple[VecItem, ...]
    else_items: Tuple[VecItem, ...]


@dataclass(frozen=True)
class VecBlockPlan:
    """A block compiled to slot-indexed form."""

    name: str
    kind: BlockKind
    n_params: int
    #: Environment template: literals pre-placed in trailing constant
    #: slots, everything else ``None``.  An activation copies this and
    #: splices its arguments into the leading param slots.
    template: Tuple[object, ...]
    items: Tuple[VecItem, ...]
    #: ``None`` for DAG blocks; the loop decider's slot otherwise.
    term_decider: Optional[int]
    term_next: Tuple[int, ...]
    term_results: Tuple[int, ...]


class _SlotAllocator:
    def __init__(self, block: BlockDef):
        self.block = block
        self.n_params = block.n_params
        #: Op id -> the slot of its output port 0; its other ports
        #: follow it.
        self.out_base: List[int] = []
        next_slot = block.n_params
        for op in block.ops:
            self.out_base.append(next_slot)
            next_slot += op.n_outputs
        self.lit_slots: Dict[Tuple[type, object], int] = {}
        self.lit_values: List[object] = []
        self.first_lit = next_slot

    def slot(self, ref: ValueRef) -> int:
        cls = ref.__class__
        if cls is Param:
            return ref.index
        if cls is Res:
            return self.out_base[ref.op_id] + ref.port
        if cls is Lit:
            key = (type(ref.value), ref.value)
            slot = self.lit_slots.get(key)
            if slot is None:
                slot = self.first_lit + len(self.lit_values)
                self.lit_slots[key] = slot
                self.lit_values.append(ref.value)
            return slot
        raise SimulationError(f"unknown value ref {ref!r}")


def _compile_region(alloc: _SlotAllocator, region: Region
                    ) -> Tuple[VecItem, ...]:
    items: List[VecItem] = []
    ops = alloc.block.ops
    slot = alloc.slot
    for item in region.items:
        if isinstance(item, IfRegion):
            items.append(VecIf(
                slot(item.decider),
                _compile_region(alloc, item.then_region),
                _compile_region(alloc, item.else_region),
            ))
        else:
            op = ops[item]
            base = alloc.out_base[op.op_id]
            items.append(VecOp(
                op.op_id, op.op, tuple([slot(r) for r in op.inputs]),
                tuple(range(base, base + op.n_outputs)), op.attrs,
            ))
    return tuple(items)


def build_vec_plan(block: BlockDef) -> VecBlockPlan:
    """Compile one block to slot-indexed form."""
    alloc = _SlotAllocator(block)
    items = _compile_region(alloc, block.region)
    term = block.terminator
    if isinstance(term, ReturnTerm):
        decider = None
        next_slots: Tuple[int, ...] = ()
        result_slots = tuple(alloc.slot(r) for r in term.results)
    else:
        assert isinstance(term, LoopTerm)
        decider = alloc.slot(term.decider)
        next_slots = tuple(alloc.slot(r) for r in term.next_args)
        result_slots = tuple(alloc.slot(r) for r in term.results)
    template = ([None] * alloc.first_lit) + alloc.lit_values
    return VecBlockPlan(
        name=block.name,
        kind=block.kind,
        n_params=block.n_params,
        template=tuple(template),
        items=items,
        term_decider=decider,
        term_next=next_slots,
        term_results=result_slots,
    )


def build_vec_plans(program: ContextProgram
                    ) -> Dict[str, VecBlockPlan]:
    """Compile every block of ``program``."""
    return {name: build_vec_plan(block)
            for name, block in program.blocks.items()}


class VecLowering(NamedTuple):
    """A program's data-parallel lowering: every block's plan, and
    each block's loop classification (its :class:`VectorInfo` if it
    is a vectorizable loop, else None). The engine and the kernel
    generator only read it, so one lowering serves every run of a
    workload."""

    plans: Dict[str, VecBlockPlan]
    vector_info: Dict[str, Optional[VectorInfo]]


def lower_vector(program: ContextProgram) -> VecLowering:
    """Plan and classify every block of ``program``."""
    return VecLowering(build_vec_plans(program),
                       {name: classify_loop(block)
                        for name, block in program.blocks.items()})
