"""Elaboration: context IR -> tagged dataflow graph with TYR linkage.

This pass makes every transfer point explicit, exactly as the paper's
Fig. 10 prescribes. For each call site into a concurrent block it emits:

* an ``extractTag`` capturing the parent's tag (so the child can
  restore it on exit),
* a ``join`` that signals the context is *ready* (all arguments
  arrived),
* an ``allocate`` against the child's tag space -- requested by the
  first argument's arrival, gated by *ready* when the free list runs
  low, and honoring the tail-recursion *spare tag* rule for loops,
* one ``changeTag`` per argument, translating tokens into the child's
  tag space.

For each block it also builds the **free barrier**: a region-aware tree
of ``join``/``merge`` nodes whose transitive fan-in covers every token
sink in the block (steer control outputs, store order tokens, changeTag
control outputs, allocate ready-consumption outputs), terminating in a
``free`` that returns the tag. Conditional regions contribute a
completion token merged over both sides, so the barrier fires exactly
once per context regardless of the path taken (the construction the
paper calls "non-trivial", Sec. IV-A).

Loops get a second, tail-recursive transfer point along the backedge
that re-tags all carried values; its allocate follows the base rule
while the external allocate requires a spare tag (paper Lemma 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CompileError
from repro.compiler.graph import TaggedGraph, TaggedNode, new_ports
from repro.ir.ops import Op
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

#: The pseudo-block owning root-side linkage and result sinks.
ROOT_BLOCK = "<root>"
#: The pseudo call site representing the machine invoking the entry.
ROOT_SITE = (ROOT_BLOCK, -1)

# A value source inside a block elaboration.
#   ("imm", value) / ("param", index) / ("node", node_id, port)
#   / ("spawn", op_id, port) / ("extern", arg_index)
Src = Tuple

# Opcodes read in the per-op loops: a module global is read faster
# than an Enum member.
_LOAD = Op.LOAD
_MERGE = Op.MERGE
_SPAWN = Op.SPAWN
_STEER = Op.STEER
_STORE = Op.STORE


def elaborate(program: ContextProgram) -> TaggedGraph:
    """Compile a context program into an executable tagged graph."""
    return _Elaborator(program).run()


class _Elaborator:
    def __init__(self, program: ContextProgram):
        self.program = program
        self.g = TaggedGraph(entry_block=program.entry)
        self.block_elabs: Dict[str, _BlockElab] = {}
        #: callee -> its call sites, found in one scan of the program.
        self.sites = program.call_sites()

    def run(self) -> TaggedGraph:
        live = self._reachable_blocks()
        for name in self.program.topo_order():
            if name not in live:
                continue  # dead code: never called from the entry
            be = _BlockElab(self, self.program.block(name))
            self.block_elabs[name] = be
            be.build(self.block_elabs)
        self._build_root_site()
        self.g.blocks = sorted(live)
        self.g.tag_overrides = {
            name: self.program.block(name).tag_override
            for name in self.g.blocks
        }
        self.g.check()
        return self.g

    def _reachable_blocks(self) -> set:
        graph = self.program.call_graph()
        live = set()
        frontier = [self.program.entry]
        while frontier:
            name = frontier.pop()
            if name in live:
                continue
            live.add(name)
            frontier.extend(graph.get(name, ()))
        return live

    # ------------------------------------------------------------------
    def _build_root_site(self) -> None:
        entry = self.block_elabs[self.program.entry]
        g = self.g
        n_args = entry.block.n_params
        g.entry_sources = [[] for _ in range(n_args)]

        def attach_extern(arg: int, node: TaggedNode, port: int) -> None:
            g.entry_sources[arg].append((node.node_id, port))

        al = g.new_node(Op.ALLOCATE, ROOT_BLOCK, 2, 2,
                        tagspace=self.program.entry, spare=False)
        attach_extern(0, al, 0)  # request on first argument
        if n_args > 1:
            rj = g.new_node(Op.JOIN, ROOT_BLOCK, n_args, 1)
            for i in range(n_args):
                attach_extern(i, rj, i)
            g.connect(rj, 0, al, 1)
        else:
            attach_extern(0, al, 1)

        for i in range(n_args):
            ct = g.new_node(Op.CHANGE_TAG, ROOT_BLOCK, 2, 2)
            g.connect(al, 0, ct, 0)
            attach_extern(i, ct, 1)
            ct.out_edges[0] = entry.param_feed[i]

        if entry.has_rettag:
            et = g.new_node(Op.EXTRACT_TAG, ROOT_BLOCK, 1, 1)
            attach_extern(0, et, 0)
            ct = g.new_node(Op.CHANGE_TAG, ROOT_BLOCK, 2, 2)
            g.connect(al, 0, ct, 0)
            g.connect(et, 0, ct, 1)
            ct.out_edges[0] = entry.param_feed[entry.rettag_index]
        if entry.needs_caller:
            site_id = entry.site_ids[ROOT_SITE]
            ct = g.new_node(Op.CHANGE_TAG, ROOT_BLOCK, 2, 2,)
            ct.imms[1] = site_id
            g.connect(al, 0, ct, 0)
            ct.out_edges[0] = entry.param_feed[entry.caller_index]

        n_results = entry.block.n_results
        for j in range(n_results):
            res = self.g.new_node(Op.COPY, ROOT_BLOCK, 1, 1, result_index=j)
            self.g.result_nodes.append(res.node_id)
            entry.wire_exit(entry.site_ids[ROOT_SITE], j,
                            [(res.node_id, 0)])


class _BlockElab:
    """Elaborates one concurrent block. It keeps no reference to the
    elaborator, so the two free by reference counting, and with them
    every list they share with the graph."""

    def __init__(self, el: _Elaborator, block: BlockDef):
        self.g = el.g
        self.program = el.program
        self.block = block
        # Call sites into this block (callers elaborate later and wire
        # through the shared lists below).
        sites = list(el.sites.get(block.name, ()))
        if block.name == self.program.entry:
            sites.append(ROOT_SITE)
        if block.kind is BlockKind.LOOP and len(sites) != 1:
            raise CompileError(
                f"loop block {block.name!r} must have exactly one external "
                f"call site, found {len(sites)}"
            )
        self.sites = sites
        self.site_ids = {site: i for i, site in enumerate(sites)}
        self.has_rettag = block.n_results > 0
        self.needs_caller = self.has_rettag and len(sites) > 1
        n_extra = int(self.has_rettag) + int(self.needs_caller)
        self.n_params = block.n_params + n_extra
        self.rettag_index = block.n_params if self.has_rettag else -1
        self.caller_index = (block.n_params + 1 if self.needs_caller
                             else -1)
        #: Consumers of each elaborated param; shared (aliased) with the
        #: caller-side changeTag out-edges.
        self.param_feed: List[List[Tuple[int, int]]] = [
            [] for _ in range(self.n_params)
        ]
        self.node_of_op: Dict[int, TaggedNode] = {}
        self.spawn_feed: Dict[int, List[List[Tuple[int, int]]]] = {}
        self.extra_of_op: Dict[int, List[TaggedNode]] = {}
        self.top_extra: List[TaggedNode] = []
        #: Exit changeTag node per result. With multiple call sites the
        #: nodes are *routed*: they take the caller id as a third input
        #: and look the destination list up in ``route_table`` (the
        #: paper's dynamic-destination changeTag). Callers wire their
        #: destinations through :meth:`wire_exit`.
        self.exit_ct_nodes: List[TaggedNode] = []
        self.routed_exit = False
        #: Nodes whose output port 0 feeds another context or is wired
        #: by a caller later: never a sink of this block's barrier.
        self.deferred: Set[int] = set()
        # Loop-terminator bookkeeping for the free barrier: nodes that
        # fire only when continuing / only when exiting / always.
        self._term_decider: Optional[Src] = None
        self._term_cont: List[TaggedNode] = []
        self._term_exit: List[TaggedNode] = []

    def wire_exit(self, site_id: int, result: int,
                  dests: List[Tuple[int, int]]) -> None:
        """Connect this block's ``result``-th return to ``dests`` for
        call site ``site_id`` (a shared destination list)."""
        ct = self.exit_ct_nodes[result]
        if self.routed_exit:
            ct.attrs["route_table"][site_id] = dests
        else:
            ct.out_edges[0] = dests

    # ------------------------------------------------------------------
    def new(self, op: Op, n_in: int, n_out: int, **attrs) -> TaggedNode:
        return self.g.new_node(op, self.block.name, n_in, n_out, **attrs)

    def resolve(self, ref: ValueRef) -> Src:
        cls = ref.__class__
        if cls is Lit:
            return ("imm", ref.value)
        if cls is Param:
            return ("param", ref.index)
        assert cls is Res
        # Every op but a spawn has its node before anything is wired.
        node = self.node_of_op.get(ref.op_id)
        if node is None:
            return ("spawn", ref.op_id, ref.port)
        return ("node", node.node_id, ref.port)

    def attach(self, src: Src, dest: TaggedNode, port: int) -> None:
        kind = src[0]
        if kind == "imm":
            dest.imms[port] = src[1]
        elif kind == "param":
            self.param_feed[src[1]].append((dest.node_id, port))
        elif kind == "node":
            self.g.nodes[src[1]].out_edges[src[2]].append(
                (dest.node_id, port)
            )
        elif kind == "spawn":
            self.spawn_feed[src[1]][src[2]].append((dest.node_id, port))
        else:
            raise CompileError(f"bad source {src!r}")

    # ------------------------------------------------------------------
    def build(self, block_elabs: Dict[str, "_BlockElab"]) -> None:
        """Elaborate the block; ``block_elabs`` holds its callees'."""
        self._create_body_nodes()
        self._wire_body()
        if isinstance(self.block.terminator, LoopTerm):
            self._build_loop_exit()
        else:
            self._build_return_exit()
        for op in self.block.ops:
            if op.op is _SPAWN:
                self._build_one_linkage(op, block_elabs[op.attrs["callee"]])
        self._build_barrier()

    # ------------------------------------------------------------------
    def _create_body_nodes(self) -> None:
        new = self.new
        for op in self.block.ops:
            kind = op.op
            if kind is _SPAWN:
                self.spawn_feed[op.op_id] = new_ports(op.n_outputs)
                continue
            if kind is _LOAD:
                node = new(kind, len(op.inputs), 2, array=op.attrs["array"])
            elif kind is _STORE:
                node = new(kind, len(op.inputs), 1, array=op.attrs["array"])
            elif kind is _STEER:
                node = new(kind, 2, 2, sense=op.attrs["sense"])
            elif kind is _MERGE:
                node = new(kind, 3, 1)
            else:
                node = new(kind, len(op.inputs), op.n_outputs)
            self.node_of_op[op.op_id] = node

    def _wire_body(self) -> None:
        node_of_op = self.node_of_op
        for op in self.block.ops:
            node = node_of_op.get(op.op_id)
            if node is None:
                continue  # a spawn: wired by its linkage
            for port, ref in enumerate(op.inputs):
                self.attach(self.resolve(ref), node, port)

    # ------------------------------------------------------------------
    # Exits
    # ------------------------------------------------------------------
    def _build_return_exit(self) -> None:
        term = self.block.terminator
        assert isinstance(term, ReturnTerm)
        results = [self.resolve(r) for r in term.results]
        if not results:
            return
        rettag: Src = ("param", self.rettag_index)
        self.routed_exit = len(self.sites) > 1
        for src in results:
            if self.routed_exit:
                ct = self.new(Op.CHANGE_TAG, 3, 2, route_table={})
                self.attach(("param", self.caller_index), ct, 2)
            else:
                ct = self.new(Op.CHANGE_TAG, 2, 2)
            self.attach(rettag, ct, 0)
            self.attach(src, ct, 1)
            self.deferred.add(ct.node_id)
            self.top_extra.append(ct)
            self.exit_ct_nodes.append(ct)

    def _build_loop_exit(self) -> None:
        term = self.block.terminator
        assert isinstance(term, LoopTerm)
        decider = self.resolve(term.decider)

        # Backedge transfer point: steer every carried value (including
        # the return-tag admin param) and re-tag it for the next
        # iteration.
        carried: List[Src] = [self.resolve(r) for r in term.next_args]
        if self.has_rettag:
            carried.append(("param", self.rettag_index))
        steers: List[TaggedNode] = []
        for src in carried:
            st = self.new(Op.STEER, 2, 2, sense=True)
            self.attach(decider, st, 0)
            self.attach(src, st, 1)
            steers.append(st)
            self.top_extra.append(st)
        al = self.new(Op.ALLOCATE, 2, 2, tagspace=self.block.name,
                      spare=False)
        self.g.connect(steers[0], 0, al, 0)  # request
        if len(steers) > 1:
            rj = self.new(Op.JOIN, len(steers), 1)
            for i, st in enumerate(steers):
                self.g.connect(st, 0, rj, i)
            self.g.connect(rj, 0, al, 1)
            self.top_extra.append(rj)
        else:
            self.g.connect(steers[0], 0, al, 1)
        # The allocate and the backedge changeTags fire only when the
        # loop continues; the barrier merges them with the exit side.
        self._term_decider = decider
        self._term_cont.append(al)
        for i, st in enumerate(steers):
            ct = self.new(Op.CHANGE_TAG, 2, 2)
            self.g.connect(al, 0, ct, 0)
            self.g.connect(st, 0, ct, 1)
            # Port 0 emits into the next iteration's tag domain; it is
            # never a sink of *this* context's barrier (and its
            # destination list is shared with the external call site).
            ct.out_edges[0] = self.param_feed[i]
            self.deferred.add(ct.node_id)
            self._term_cont.append(ct)

        # Exit transfer point: restore the parent tag on results.
        # These nodes fire only when the loop exits.
        results = [self.resolve(r) for r in term.results]
        if results:
            st_ret = self.new(Op.STEER, 2, 2, sense=False)
            self.attach(decider, st_ret, 0)
            self.attach(("param", self.rettag_index), st_ret, 1)
            self.top_extra.append(st_ret)
            for src in results:
                st = self.new(Op.STEER, 2, 2, sense=False)
                self.attach(decider, st, 0)
                self.attach(src, st, 1)
                ct = self.new(Op.CHANGE_TAG, 2, 2)
                self.g.connect(st_ret, 0, ct, 0)
                self.g.connect(st, 0, ct, 1)
                self.deferred.add(ct.node_id)
                self.top_extra.append(st)
                self._term_exit.append(ct)
                self.exit_ct_nodes.append(ct)

    # ------------------------------------------------------------------
    # Caller-side linkage for SPAWN ops in this block (paper Fig. 10)
    # ------------------------------------------------------------------
    def _build_one_linkage(self, op: OpDef, callee: "_BlockElab") -> None:
        site_id = callee.site_ids[(self.block.name, op.op_id)]
        extra: List[TaggedNode] = []
        args = [self.resolve(r) for r in op.inputs]
        token_args = [s for s in args if s[0] != "imm"]
        if not token_args:
            raise CompileError(
                f"{self.block.name}: spawn %{op.op_id} has no token "
                f"arguments"
            )
        trigger = token_args[0]

        al = self.new(Op.ALLOCATE, 2, 2,
                      tagspace=callee.block.name,
                      spare=callee.block.kind is BlockKind.LOOP)
        extra.append(al)
        self.attach(trigger, al, 0)
        if len(token_args) > 1:
            rj = self.new(Op.JOIN, len(token_args), 1)
            for i, src in enumerate(token_args):
                self.attach(src, rj, i)
            self.g.connect(rj, 0, al, 1)
            extra.append(rj)
        else:
            self.attach(trigger, al, 1)

        for i, src in enumerate(args):
            ct = self.new(Op.CHANGE_TAG, 2, 2)
            self.g.connect(al, 0, ct, 0)
            self.attach(src, ct, 1)
            # Port 0 emits into the callee's tag domain (and aliases the
            # shared parameter-consumer list): never a barrier sink.
            ct.out_edges[0] = callee.param_feed[i]
            self.deferred.add(ct.node_id)
            extra.append(ct)
        if callee.has_rettag:
            et = self.new(Op.EXTRACT_TAG, 1, 1)
            self.attach(trigger, et, 0)
            ct = self.new(Op.CHANGE_TAG, 2, 2)
            self.g.connect(al, 0, ct, 0)
            self.g.connect(et, 0, ct, 1)
            ct.out_edges[0] = callee.param_feed[callee.rettag_index]
            self.deferred.add(ct.node_id)
            extra.extend([et, ct])
        if callee.needs_caller:
            ct = self.new(Op.CHANGE_TAG, 2, 2)
            ct.imms[1] = site_id
            self.g.connect(al, 0, ct, 0)
            ct.out_edges[0] = callee.param_feed[callee.caller_index]
            self.deferred.add(ct.node_id)
            extra.append(ct)

        # Route the callee's returns to this spawn's consumers.
        for j in range(len(callee.exit_ct_nodes)):
            callee.wire_exit(site_id, j, self.spawn_feed[op.op_id][j])
        self.extra_of_op[op.op_id] = extra

    # ------------------------------------------------------------------
    # Free barrier (paper Sec. IV-A)
    # ------------------------------------------------------------------
    def _dangling(self, node: TaggedNode) -> List[Src]:
        nid = node.node_id
        out = []
        for port, edges in enumerate(node.out_edges):
            if edges:
                continue
            if port == 0 and (nid in self.deferred or node.op is _STEER):
                # A steer's data output is conditional: if unconsumed it
                # is simply discarded on emission. The unconditional
                # control output (port 1) is the barrier contribution.
                continue
            out.append(("node", nid, port))
        return out

    def _build_barrier(self) -> None:
        top_sinks = self._region_sinks(self.block.region)
        for node in self.top_extra:
            top_sinks.extend(self._dangling(node))
        if self._term_decider is not None:
            # Loop terminator: the backedge side fires when continuing,
            # the exit side when leaving -- merge the two completions.
            cont_sinks: List[Src] = []
            for node in self._term_cont:
                cont_sinks.extend(self._dangling(node))
            exit_sinks: List[Src] = []
            for node in self._term_exit:
                exit_sinks.extend(self._dangling(node))
            decider = self._term_decider

            def side_done(side_sinks: List[Src], sense: bool) -> Src:
                if side_sinks:
                    return self._join_sinks(side_sinks)
                st = self.new(Op.STEER, 2, 2, sense=sense)
                self.attach(decider, st, 0)
                self.attach(decider, st, 1)
                top_sinks.append(("node", st.node_id, 1))
                return ("node", st.node_id, 0)

            cont_done = side_done(cont_sinks, True)
            exit_done = side_done(exit_sinks, False)
            merge = self.new(Op.MERGE, 3, 1)
            self.attach(decider, merge, 0)
            self.attach(cont_done, merge, 1)
            self.attach(exit_done, merge, 2)
            top_sinks.append(("node", merge.node_id, 0))
        if not top_sinks:
            raise CompileError(
                f"block {self.block.name!r} has no token sinks; cannot "
                f"build a free barrier"
            )
        done = self._join_sinks(top_sinks)
        free = self.new(Op.FREE, 1, 0, tagspace=self.block.name)
        self.attach(done, free, 0)

    def _join_sinks(self, sinks: List[Src]) -> Src:
        if len(sinks) == 1:
            return sinks[0]
        join = self.new(Op.JOIN, len(sinks), 1)
        for i, src in enumerate(sinks):
            self.attach(src, join, i)
        return ("node", join.node_id, 0)

    def _region_sinks(self, region: Region) -> List[Src]:
        sinks: List[Src] = []
        for item in region.items:
            if isinstance(item, IfRegion):
                src = self._if_completion(item, sinks)
                if src is not None:
                    sinks.append(src)
            else:
                sinks.extend(self._op_sinks(item))
        return sinks

    def _op_sinks(self, op_id: int) -> List[Src]:
        sinks: List[Src] = []
        node = self.node_of_op.get(op_id)
        if node is not None:
            sinks.extend(self._dangling(node))
        for extra in self.extra_of_op.get(op_id, []):
            sinks.extend(self._dangling(extra))
        return sinks

    def _if_completion(self, item: IfRegion,
                       parent_sinks: List[Src]) -> Optional[Src]:
        then_sinks = self._region_sinks(item.then_region)
        else_sinks = self._region_sinks(item.else_region)
        if not then_sinks and not else_sinks:
            return None
        decider = self.resolve(item.decider)

        def side_done(side_sinks: List[Src], sense: bool) -> Src:
            if side_sinks:
                return self._join_sinks(side_sinks)
            # Empty side: a steer on the decider itself produces the
            # completion token when this side is taken; its control
            # output is a sink of the parent region.
            st = self.new(Op.STEER, 2, 2, sense=sense)
            self.attach(decider, st, 0)
            self.attach(decider, st, 1)
            parent_sinks.append(("node", st.node_id, 1))
            return ("node", st.node_id, 0)

        t_done = side_done(then_sinks, True)
        e_done = side_done(else_sinks, False)
        merge = self.new(Op.MERGE, 3, 1)
        self.attach(decider, merge, 0)
        self.attach(t_done, merge, 1)
        self.attach(e_done, merge, 2)
        return ("node", merge.node_id, 0)
