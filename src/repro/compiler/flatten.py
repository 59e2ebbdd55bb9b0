"""Flattening: context IR -> flat steer graph for ordered dataflow.

Ordered dataflow architectures (RipTide and most CGRAs; paper
Sec. II-C) execute one static instance of every instruction and
synchronize tokens through FIFO queues, so there are no tags and no
transfer points. This lowering therefore *inlines* the whole program
into a single graph:

* function blocks are cloned per call site (the call graph is acyclic);
* each loop becomes a cycle through **mu** loop-head gates -- stateful
  merges that pop an initial value, then follow the loop decider to
  pop backedge values until the decider goes false (invariant carries
  are mu gates whose backedge is their own output);
* loop exits are steers on the negated decider, feeding the caller's
  consumers directly.

FIFO ordering at every node is what serializes dynamic instances of
the same instruction -- the red edges of the paper's Fig. 5d.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.compiler.graph import new_ports
from repro.errors import CompileError
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

Dest = Tuple[int, int]


class FlatNode:
    """One static instruction of the flat graph (its fields mean what
    :class:`~repro.compiler.graph.TaggedNode`'s do)."""

    __slots__ = ("node_id", "op", "n_inputs", "n_outputs", "imms",
                 "out_edges", "attrs")

    def __init__(self, node_id: int, op: Op, n_inputs: int,
                 n_outputs: int, attrs: Dict[str, object]) -> None:
        self.node_id = node_id
        self.op = op
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.imms: Dict[int, object] = {}
        self.out_edges: List[List[Dest]] = new_ports(n_outputs)
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"<f{self.node_id} {self.op.value}>"


@dataclass
class FlatGraph:
    nodes: List[FlatNode] = field(default_factory=list)
    entry_sources: List[List[Dest]] = field(default_factory=list)
    result_nodes: List[int] = field(default_factory=list)
    #: Program results that folded to constants (index -> value).
    const_results: Dict[int, object] = field(default_factory=dict)
    n_results: int = 0

    def new_node(self, op: Op, n_inputs: int, n_outputs: int,
                 **attrs) -> FlatNode:
        node = FlatNode(len(self.nodes), op, n_inputs, n_outputs, attrs)
        self.nodes.append(node)
        return node

    def check(self) -> None:
        for n in self.nodes:
            for port_edges in n.out_edges:
                for dest_id, dest_port in port_edges:
                    dest = self.nodes[dest_id]
                    if dest_port in dest.imms or dest_port >= dest.n_inputs:
                        raise CompileError(f"{n}: bad edge")


# A value source: ("imm", value) | ("node", id, port) | ("extern", arg)
Src = Tuple


def flatten(program: ContextProgram) -> FlatGraph:
    """Inline a context program into a flat ordered-dataflow graph."""
    return _Flattener(program).run()


class _Flattener:
    def __init__(self, program: ContextProgram):
        self.program = program
        self.g = FlatGraph()

    def run(self) -> FlatGraph:
        entry = self.program.entry_block()
        self.g.entry_sources = [[] for _ in range(entry.n_params)]
        entry_srcs: List[Src] = [
            ("extern", i) for i in range(entry.n_params)
        ]
        results = self._instantiate(entry, entry_srcs, depth=0,
                                    trigger=entry_srcs[0])
        self.g.n_results = len(results)
        for j, src in enumerate(results):
            if src[0] == "imm":
                self.g.const_results[j] = src[1]
                continue
            res = self.g.new_node(Op.COPY, 1, 1, result_index=j)
            self.g.result_nodes.append(res.node_id)
            self._connect(src, res, 0)
        self.g.check()
        return self.g

    # ------------------------------------------------------------------
    def _connect(self, src: Src, dest: FlatNode, port: int) -> None:
        kind = src[0]
        if kind == "imm":
            dest.imms[port] = src[1]
        elif kind == "node":
            self.g.nodes[src[1]].out_edges[src[2]].append(
                (dest.node_id, port)
            )
        elif kind == "extern":
            self.g.entry_sources[src[1]].append((dest.node_id, port))
        else:
            raise CompileError(f"bad flat source {src!r}")

    # ------------------------------------------------------------------
    def _instantiate(self, block: BlockDef, arg_srcs: List[Src],
                     depth: int, trigger: Src) -> List[Src]:
        """Clone ``block`` into the graph; returns result sources.

        ``trigger`` is a source producing exactly one token per
        activation of this block (inherited from the enclosing scope
        when every argument folded to an immediate -- possible when a
        caller passed only literals).
        """
        if depth > 64:
            raise CompileError("call nesting too deep while inlining")
        own = next((s for s in arg_srcs if s[0] != "imm"), None)
        if own is not None:
            trigger = own
        if block.kind is BlockKind.LOOP:
            return self._instantiate_loop(block, arg_srcs, depth, trigger)
        return self._instantiate_dag(block, arg_srcs, depth, trigger)

    def _materialize(self, value: object, trigger: Src) -> Src:
        """Turn an immediate into one token per activation."""
        sel = self.g.new_node(Op.SELECT, 3, 1)
        sel.imms[0] = 1
        sel.imms[1] = value
        self._connect(trigger, sel, 2)
        return ("node", sel.node_id, 0)

    def _instantiate_dag(self, block: BlockDef, arg_srcs: List[Src],
                         depth: int, trigger: Src) -> List[Src]:
        values = self._instantiate_body(block, arg_srcs, depth, trigger)
        term = block.terminator
        assert isinstance(term, ReturnTerm)
        return [self._resolve(r, arg_srcs, values) for r in term.results]

    def _instantiate_loop(self, block: BlockDef, arg_srcs: List[Src],
                          depth: int, trigger: Src) -> List[Src]:
        term = block.terminator
        assert isinstance(term, LoopTerm)
        # Mu gates: one per carried param. Port 0 = initial value,
        # port 1 = backedge value, port 2 = decider (wired below).
        # A mu's initial value must be a real token (exactly one per
        # activation): materialize immediate arguments off the trigger.
        init_srcs: List[Src] = []
        for src in arg_srcs:
            if src[0] == "imm":
                src = self._materialize(src[1], trigger)
            init_srcs.append(src)
        mus = []
        param_srcs: List[Src] = []
        for i in range(block.n_params):
            mu = self.g.new_node(Op.MU, 3, 1)
            self._connect(init_srcs[i], mu, 0)
            mus.append(mu)
            param_srcs.append(("node", mu.node_id, 0))
        values = self._instantiate_body(block, param_srcs, depth, trigger)
        decider = self._resolve(term.decider, param_srcs, values)
        if decider[0] == "imm":
            raise CompileError(
                f"loop {block.name!r} has a constant decider"
            )
        for i, mu in enumerate(mus):
            back = self._resolve(term.next_args[i], param_srcs, values)
            self._connect(back, mu, 1)
            self._connect(decider, mu, 2)
        outs: List[Src] = []
        for r in term.results:
            src = self._resolve(r, param_srcs, values)
            st = self.g.new_node(Op.STEER, 2, 2, sense=False)
            self._connect(decider, st, 0)
            self._connect(src, st, 1)
            outs.append(("node", st.node_id, 0))
        return outs

    def _instantiate_body(self, block: BlockDef, param_srcs: List[Src],
                          depth: int, trigger: Src
                          ) -> Dict[Tuple[int, int], Src]:
        """Clone the block's ops; returns (op, port) -> source map."""
        values: Dict[Tuple[int, int], Src] = {}
        for op in block.ops:
            srcs = [self._resolve(r, param_srcs, values)
                    for r in op.inputs]
            if op.op is Op.SPAWN:
                callee = self.program.block(op.attrs["callee"])
                results = self._instantiate(callee, srcs, depth + 1,
                                            trigger)
                for port, src in enumerate(results):
                    values[(op.op_id, port)] = src
                continue
            if srcs and all(s[0] == "imm" for s in srcs):
                # Inlining a call with literal arguments can fold every
                # input of an instruction to an immediate; it still must
                # fire once per activation.
                srcs[0] = self._materialize(srcs[0][1], trigger)
            node = self.g.new_node(op.op, len(op.inputs), op.n_outputs,
                                   **op.attrs)
            for port, src in enumerate(srcs):
                self._connect(src, node, port)
            for port in range(op.n_outputs):
                values[(op.op_id, port)] = ("node", node.node_id, port)
        return values

    def _resolve(self, ref: ValueRef, param_srcs: List[Src],
                 values: Dict[Tuple[int, int], Src]) -> Src:
        if isinstance(ref, Lit):
            return ("imm", ref.value)
        if isinstance(ref, Param):
            return param_srcs[ref.index]
        assert isinstance(ref, Res)
        return values[(ref.op_id, ref.port)]
