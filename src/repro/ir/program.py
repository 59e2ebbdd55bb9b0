"""Core data structures of the context IR.

A :class:`ContextProgram` is a set of *concurrent blocks* (paper
Sec. III): DAGs of instructions with no internal concurrency. Loops and
function bodies each become one block; dynamic instances of a block are
*contexts*. Blocks reference each other only through ``SPAWN`` ops
(abstract transfer points) and loop terminators (tail-recursive
self-spawns), which the lowerings in :mod:`repro.compiler` turn into
concrete tag-management linkage or flat steer graphs.

Within a block, values are in SSA form. An operand is a
:class:`ValueRef`:

* :class:`Param` -- the block's i-th input,
* :class:`Res` -- output port ``port`` of op ``op_id`` in the same block,
* :class:`Lit` -- an immediate constant (folded into the instruction, so
  constants never occupy tokens -- this mirrors how real dataflow ISAs
  encode immediates and avoids per-tag constant tokens).

Operands are values: two are equal (and hash alike) when their class
and fields are, and none is mutated once built.

Forward branching inside a block is expressed with ``STEER`` and
``MERGE`` ops plus a :class:`Region` tree that records the if-structure.
The region tree is what lets the TYR elaborator build a correct *free
barrier* (paper Sec. IV-A: "correctly generating the free barrier for
all cases was non-trivial") and lets the sequential-dataflow model know
which spawns are control-dependent on which deciders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import IRError
from repro.ir.ops import Op


class Param:
    """Reference to a block parameter by index."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Param:
            return self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.index,))

    def __repr__(self) -> str:
        return f"%p{self.index}"


class Res:
    """Reference to output ``port`` of op ``op_id`` within the block."""

    __slots__ = ("op_id", "port")

    def __init__(self, op_id: int, port: int = 0) -> None:
        self.op_id = op_id
        self.port = port

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Res:
            return self.op_id == other.op_id and self.port == other.port
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.op_id, self.port))

    def __repr__(self) -> str:
        if self.port:
            return f"%{self.op_id}.{self.port}"
        return f"%{self.op_id}"


class Lit:
    """An immediate constant operand."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Lit:
            # As a tuple compares: an identical value (NaN too) is equal.
            return (self.value,) == (other.value,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"#{self.value!r}"


ValueRef = Union[Param, Res, Lit]


class OpDef:
    """A static instruction within a concurrent block.

    ``attrs`` carries op-specific statics: ``array`` for LOAD/STORE,
    ``sense`` (bool) for STEER, ``callee`` for SPAWN, ``n_outputs`` for
    ops with variadic outputs (LOAD emits (value, order); SPAWN emits
    the callee's results plus an order token when memory state is
    threaded through the call).
    """

    __slots__ = ("op_id", "op", "inputs", "n_outputs", "attrs")

    def __init__(self, op_id: int, op: Op, inputs: Tuple[ValueRef, ...],
                 n_outputs: int = 1,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.op_id = op_id
        self.op = op
        self.inputs = inputs
        self.n_outputs = n_outputs
        self.attrs = {} if attrs is None else attrs

    def result(self, port: int = 0) -> Res:
        if port >= self.n_outputs:
            raise IRError(
                f"op %{self.op_id} ({self.op.value}) has {self.n_outputs} "
                f"outputs; port {port} requested"
            )
        return Res(self.op_id, port)

    def __repr__(self) -> str:
        ins = ", ".join(repr(i) for i in self.inputs)
        extra = f" {self.attrs}" if self.attrs else ""
        return f"%{self.op_id} = {self.op.value}({ins}){extra}"


@dataclass
class Region:
    """A node of a block's control-region tree.

    ``kind`` is ``"top"``, ``"then"`` or ``"else"``. ``items`` holds, in
    program order, op ids and nested :class:`IfRegion` subtrees.
    """

    kind: str
    items: List[Union[int, "IfRegion"]] = field(default_factory=list)

    def all_op_ids(self) -> List[int]:
        """All op ids in this region and its descendants, program order."""
        out: List[int] = []
        for item in self.items:
            if isinstance(item, IfRegion):
                out.extend(item.then_region.all_op_ids())
                out.extend(item.else_region.all_op_ids())
            else:
                out.append(item)
        return out


@dataclass
class IfRegion:
    """A two-sided forward branch within a block."""

    decider: ValueRef
    then_region: Region
    else_region: Region


class BlockKind(enum.Enum):
    DAG = "dag"  # function body / straight-line region; returns results
    LOOP = "loop"  # tail-recursive block; iterates or exits


@dataclass
class ReturnTerm:
    """Terminator of a DAG block: return ``results`` to the caller."""

    results: Tuple[ValueRef, ...]


@dataclass
class LoopTerm:
    """Terminator of a LOOP block.

    If ``decider`` is truthy the block tail-spawns itself with
    ``next_args`` (one per parameter); otherwise it returns ``results``
    to the caller.
    """

    decider: ValueRef
    next_args: Tuple[ValueRef, ...]
    results: Tuple[ValueRef, ...]


Terminator = Union[ReturnTerm, LoopTerm]


@dataclass
class BlockDef:
    """A concurrent block: a DAG of ops plus a terminator."""

    name: str
    kind: BlockKind
    param_names: Tuple[str, ...]
    ops: List[OpDef] = field(default_factory=list)
    region: Region = field(default_factory=lambda: Region("top"))
    terminator: Optional[Terminator] = None
    #: Per-block tag-space size override (paper Sec. VII-E / Fig. 18).
    tag_override: Optional[int] = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_results(self) -> int:
        if self.terminator is None:
            raise IRError(f"block {self.name!r} has no terminator")
        return len(self.terminator.results)

    def op(self, op_id: int) -> OpDef:
        return self.ops[op_id]

    def spawns(self) -> List[OpDef]:
        """All SPAWN ops in this block, program order."""
        return [o for o in self.ops if o.op is Op.SPAWN]

    def region_of(self) -> Dict[int, Tuple["IfRegion", ...]]:
        """Map op id -> chain of enclosing IfRegions (outermost first)."""
        out: Dict[int, Tuple[IfRegion, ...]] = {}
        _walk_regions(self.region, (), out,
                      lambda item, sense: (item,))
        return out

    def guard_chain(self) -> Dict[int, Tuple[Tuple[ValueRef, bool], ...]]:
        """Map op id -> ((decider, sense), ...) guarding its execution.

        ``sense`` is True for the then-side. Ops in the top region have
        an empty chain.
        """
        out: Dict[int, Tuple[Tuple[ValueRef, bool], ...]] = {}
        _walk_regions(self.region, (), out,
                      lambda item, sense: ((item.decider, sense),))
        return out


def _walk_regions(region: Region, chain: tuple, out: Dict[int, tuple],
                  link) -> None:
    """Map each op id under ``region`` to ``chain`` extended by
    ``link(if_region, sense)`` for every enclosing branch side. (A
    module-level recursion: a nested one would be a reference cycle.)"""
    for item in region.items:
        if isinstance(item, IfRegion):
            _walk_regions(item.then_region, chain + link(item, True), out,
                          link)
            _walk_regions(item.else_region, chain + link(item, False), out,
                          link)
        else:
            out[item] = chain


@dataclass
class ArrayDecl:
    """A named memory array.

    ``length`` may be None (bound at run time). ``read_only`` arrays are
    never stored to; the frontend uses this to skip order chains.
    """

    name: str
    length: Optional[int] = None
    read_only: bool = False


@dataclass
class ContextProgram:
    """A whole program: blocks, entry point, and array declarations."""

    blocks: Dict[str, BlockDef] = field(default_factory=dict)
    entry: str = "main"
    arrays: Dict[str, ArrayDecl] = field(default_factory=dict)
    #: Free-form metadata (e.g. how many entry results are user-declared
    #: vs. hidden memory-order tokens appended by the frontend).
    meta: Dict[str, object] = field(default_factory=dict)

    def block(self, name: str) -> BlockDef:
        try:
            return self.blocks[name]
        except KeyError:
            raise IRError(f"no block named {name!r}") from None

    def entry_block(self) -> BlockDef:
        return self.block(self.entry)

    def static_instruction_count(self) -> int:
        """Total static ops across all blocks (paper Theorem 2's N)."""
        return sum(len(b.ops) for b in self.blocks.values())

    def max_op_inputs(self) -> int:
        """Largest input arity across all ops (paper Theorem 2's M)."""
        best = 1
        for b in self.blocks.values():
            for o in b.ops:
                best = max(best, len(o.inputs))
        return best

    def call_graph(self) -> Dict[str, List[str]]:
        """Adjacency: block name -> callee names (via SPAWN), no self."""
        out: Dict[str, List[str]] = {}
        for name, block in self.blocks.items():
            callees = []
            for op in block.spawns():
                callee = op.attrs["callee"]
                if callee not in callees:
                    callees.append(callee)
            out[name] = callees
        return out

    def call_sites(self) -> Dict[str, List[Tuple[str, int]]]:
        """Callee name -> its (block name, spawn op id) call sites, in
        program order; blocks nothing calls are absent."""
        sites: Dict[str, List[Tuple[str, int]]] = {}
        for name, block in self.blocks.items():
            for op in block.ops:
                if op.op is Op.SPAWN:
                    sites.setdefault(op.attrs["callee"], []).append(
                        (name, op.op_id))
        return sites

    def topo_order(self) -> List[str]:
        """Blocks in reverse call-graph order (callees before callers).

        Raises :class:`IRError` if the call graph has a cycle other than
        loop self-recursion (general recursion must have been converted
        to tail form, as the paper's Theorem 1 assumes).
        """
        return callees_first(self.call_graph())


def callees_first(graph: Dict[str, List[str]]) -> List[str]:
    """:meth:`ContextProgram.topo_order` of the program whose
    :meth:`~ContextProgram.call_graph` is ``graph``, for a caller that
    already holds the graph."""
    state: Dict[str, int] = {}
    order: List[str] = []
    for name in graph:
        _visit_callees(graph, name, (), state, order)
    return order


def _visit_callees(graph: Dict[str, List[str]], node: str,
                   stack: Tuple[str, ...], state: Dict[str, int],
                   order: List[str]) -> None:
    """Depth-first post-order step of :meth:`ContextProgram.topo_order`
    (``state``: 1 on the stack, 2 done)."""
    st = state.get(node, 0)
    if st == 2:
        return
    if st == 1:
        cycle = " -> ".join(stack + (node,))
        raise IRError(f"call graph has a cycle: {cycle}")
    state[node] = 1
    for callee in graph.get(node, []):
        _visit_callees(graph, callee, stack + (node,), state, order)
    state[node] = 2
    order.append(node)
