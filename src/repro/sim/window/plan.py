"""Static per-block execution plans for the window engine.

A block's dynamic instruction stream is split into *slices* at SPAWN
boundaries: ops between two transfer points form one fetch unit (the
analog of a WaveScalar wave / TRIPS hyperblock). Transfer points
themselves are fetch items, not instructions: fetch descends into the
callee once the spawn's control guard resolves -- *data* arguments
flow to the child as they are produced (only control gates the block
order, as in WaveScalar).

The plan also precomputes consumer lists, token ports, per-op control
guards, and (for loops) a terminator pseudo-op that consumes the loop
decider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.ops import Op
from repro.ir.program import (
    BlockDef,
    BlockKind,
    ContextProgram,
    Lit,
    LoopTerm,
    Param,
    Res,
    ReturnTerm,
    ValueRef,
)

#: Environment key for a value: ("p", i) for params, (op_id, port) else.
Key = Tuple

#: Plan items: ("slice", index) or ("spawn", op_id).
Item = Tuple[str, int]

# Deposit kinds (per-op firing-rule selector for the engine's drain
# loop; mirrors the tagged engine's ``_DEP_*`` selectors).
DEP_PLAIN = 0
DEP_MERGE = 1


def ref_key(ref: ValueRef) -> Optional[Key]:
    if isinstance(ref, Lit):
        return None
    if isinstance(ref, Param):
        return ("p", ref.index)
    return (ref.op_id, ref.port)


#: Bind-spec selectors: deliver a literal vs. look up / subscribe to a
#: value key (precomputed so the engine's bind loops never touch
#: ``ValueRef`` objects or call ``isinstance``).
BIND_LIT = 0
BIND_KEY = 1


def bind_spec(ref: ValueRef, tag: object) -> Tuple[int, object, object]:
    """``(BIND_LIT, value, tag)`` or ``(BIND_KEY, key, tag)``.

    ``tag`` is the delivery target slot: a ``("p", i)`` param key for
    spawn arguments and loop backedges, a result index for returns.
    """
    if isinstance(ref, Lit):
        return (BIND_LIT, ref.value, tag)
    return (BIND_KEY, ref_key(ref), tag)


@dataclass
class OpPlan:
    op_id: int
    op: Op
    inputs: Tuple[ValueRef, ...]
    token_ports: Tuple[int, ...]
    guard: Tuple[Tuple[Optional[Key], bool], ...]
    slice_index: int
    attrs: Dict[str, object]
    is_spawn: bool = False
    callee: Optional[str] = None
    #: port -> literal value, for every ``Lit`` input (precomputed so
    #: the engine's hot path never touches ``ValueRef`` objects).
    imms: Dict[int, object] = field(default_factory=dict)
    #: Spawn ops only: one :func:`bind_spec` per argument, tagged with
    #: the callee param key -- the engine's spawn path binds straight
    #: from these without touching ``ValueRef`` objects.
    bind_specs: Tuple[Tuple[int, object, object], ...] = ()


@dataclass
class BlockPlan:
    name: str
    kind: BlockKind
    n_params: int
    ops: List[OpPlan]
    #: Loop decider pseudo-op id (None for DAG blocks).
    term_id: Optional[int]
    #: Loop carried-value refs (next iteration's arguments).
    next_arg_refs: Tuple[ValueRef, ...]
    #: Return-value refs.
    result_refs: Tuple[ValueRef, ...]
    #: value key -> list of consumer descriptors
    #: ``(op_id, port, kind, n_token_ports, slice_index, merge_lit)``
    #: (term included; spawns excluded -- their args flow by
    #: subscription).  The trailing four fields repeat :attr:`dep` so
    #: the engine's deposit drain reads one tuple per token.
    consumers: Dict[Key, List[Tuple]]
    items: List[Item]
    slices: List[List[int]]
    #: Per-op deposit descriptor consumed by the engine's drain loop:
    #: ``(kind, n_token_ports, slice_index, merge_lit)`` where
    #: ``merge_lit`` is ``(port1_is_literal, port2_is_literal)`` for
    #: MERGE ops and ``None`` otherwise.  One tuple fetch replaces
    #: three attribute reads per deposited token.
    dep: List[Tuple[int, int, int, Optional[Tuple[bool, bool]]]] = (
        field(default_factory=list)
    )
    #: Per-op: does the op have a (non-empty) control guard?  The
    #: retire scan skips guard resolution entirely for unguarded ops.
    guarded: List[bool] = field(default_factory=list)
    #: :func:`bind_spec` per loop backedge argument, tagged with the
    #: next iteration's param key.
    next_arg_specs: Tuple[Tuple[int, object, object], ...] = ()
    #: :func:`bind_spec` per return value, tagged with the result index.
    result_specs: Tuple[Tuple[int, object, object], ...] = ()

    def op(self, op_id: int) -> OpPlan:
        return self.ops[op_id]


def build_plans(program: ContextProgram) -> Dict[str, BlockPlan]:
    return {name: _plan_block(block)
            for name, block in program.blocks.items()}


def _plan_block(block: BlockDef) -> BlockPlan:
    guards_raw = block.guard_chain()
    term = block.terminator
    if isinstance(term, LoopTerm):
        next_arg_refs = term.next_args
        result_refs = term.results
    else:
        assert isinstance(term, ReturnTerm)
        next_arg_refs = ()
        result_refs = term.results

    ops: List[OpPlan] = []
    slices: List[List[int]] = [[]]
    items: List[Item] = []
    # Ops of one region share their guard chain: convert each once.
    keyed: Dict[int, Tuple[Tuple[Optional[Key], bool], ...]] = {}
    spawn = Op.SPAWN
    for op in block.ops:
        raw = guards_raw[op.op_id]
        guard = keyed.get(id(raw))
        if guard is None:
            guard = keyed[id(raw)] = tuple(
                (ref_key(d), s) for d, s in raw)
        token_ports = []
        imms = {}
        for port, ref in enumerate(op.inputs):
            if ref.__class__ is Lit:
                imms[port] = ref.value
            else:
                token_ports.append(port)
        is_spawn = op.op is spawn
        plan = OpPlan(
            op.op_id, op.op, op.inputs, tuple(token_ports), guard,
            len(slices) - 1, op.attrs, is_spawn, op.attrs.get("callee"),
            imms,
            (tuple(bind_spec(r, ("p", i)) for i, r in enumerate(op.inputs))
             if is_spawn else ()),
        )
        ops.append(plan)
        if is_spawn:
            # Transfer points are fetch items, not instructions.
            items.append(("slice", len(slices) - 1))
            items.append(("spawn", op.op_id))
            slices.append([])
        else:
            slices[-1].append(op.op_id)

    term_id: Optional[int] = None
    if isinstance(term, LoopTerm):
        term_id = len(block.ops)
        term_plan = OpPlan(
            op_id=term_id,
            op=Op.JOIN,  # placeholder opcode; handled specially
            inputs=(term.decider,),
            token_ports=(
                () if isinstance(term.decider, Lit) else (0,)
            ),
            guard=(),
            slice_index=len(slices) - 1,
            attrs={},
            imms=({0: term.decider.value}
                  if isinstance(term.decider, Lit) else {}),
        )
        ops.append(term_plan)
        slices[-1].append(term_id)
    items.append(("slice", len(slices) - 1))

    dep = []
    for plan in ops:
        if plan.op is Op.MERGE:
            dep.append((DEP_MERGE, len(plan.token_ports),
                        plan.slice_index,
                        (1 not in plan.token_ports,
                         2 not in plan.token_ports)))
        else:
            dep.append((DEP_PLAIN, len(plan.token_ports),
                        plan.slice_index, None))

    consumers: Dict[Key, List[Tuple]] = {}
    for plan in ops:
        if plan.is_spawn:
            continue
        op_dep = dep[plan.op_id]
        for port, ref in enumerate(plan.inputs):
            cls = ref.__class__
            if cls is Lit:
                continue
            key = ("p", ref.index) if cls is Param else (ref.op_id,
                                                         ref.port)
            consumers.setdefault(key, []).append(
                (plan.op_id, port) + op_dep
            )

    return BlockPlan(
        name=block.name,
        kind=block.kind,
        n_params=block.n_params,
        ops=ops,
        term_id=term_id,
        next_arg_refs=next_arg_refs,
        result_refs=result_refs,
        consumers=consumers,
        items=items,
        slices=slices,
        dep=dep,
        guarded=[bool(plan.guard) for plan in ops],
        next_arg_specs=tuple(bind_spec(r, ("p", i))
                             for i, r in enumerate(next_arg_refs)),
        result_specs=tuple(bind_spec(r, j)
                           for j, r in enumerate(result_refs)),
    )
