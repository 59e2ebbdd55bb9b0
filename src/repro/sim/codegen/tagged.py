"""AOT kernel generator for elaborated tagged graphs.

Emits, per :class:`~repro.compiler.graph.TaggedGraph`, a kernel table
with one row per static node -- the exact firing rule of
:meth:`TaggedEngine._fire_instr` with the operand slots, immediates,
output-edge appends and livebox deltas unrolled into straight-line
code. Destination ids and ports, immediates, array names and result
slots are constants ``c0, c1, ...`` bound as default arguments; the
wait-store slot's ``pop``, the pending buffer's ``append``, memory and
tag pools are runtime refs bound from the live engine by :func:`bind`.
Each structural key (:func:`_key_fields`) is emitted once per process
over a stand-in node; later nodes with the key reuse its recipe, and
their ``("pops", nid)`` refs resolve against their own fields at bind
time.

The table fills the engine's fire table only: every run, profiled or
not, goes through the engine's one cycle loop
(:meth:`TaggedEngine._run_loop`).

The generated code must stay *bit-identical* to the plain
interpreter: every livebox delta, deposit ordering, and exception
message mirrors ``sim/tagged/engine.py`` -- the golden engine records
and the differential fuzz suite pin this.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice
from typing import Dict, List, Tuple

from repro.compiler.graph import TaggedGraph, TaggedNode
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import (
    EVALUATORS,
    Consts,
    KernelTable,
    Recipe,
    Shape,
    bind_rows,
    memory_env,
    move_miss_box,
    one_rule,
    placeholders,
    pure_expr,
)

Dests = List[Tuple[str, str]]

#: Structural key -> recipe, once per process (see :func:`_key_fields`).
_MEMO: Dict[tuple, Recipe] = {}


def _key_fields(nd: TaggedNode) -> Tuple[tuple, tuple]:
    """A node's structural key and its fields.

    The key is everything :func:`_emit` branches on: opcode, input
    count, immediate ports (in the dict's order), fan-out per output
    port, steer sense, and whether the node has a result slot and a
    route table. The fields are, in order: node id, immediates dict,
    array, result slot, route-table getter, evaluator, each immediate,
    then each destination's (node id, port).
    """
    imms = nd.imms
    edges = nd.out_edges
    attrs = nd.attrs
    op = nd.op
    result = attrs.get("result_index")
    route = attrs.get("route_table")
    key = (op, nd.n_inputs, tuple(imms), tuple(map(len, edges)),
           attrs.get("sense"), result is None, route is None)
    return key, (nd.node_id, imms, attrs.get("array"), result,
                 None if route is None else route.get, EVALUATORS[op],
                 *imms.values(), *chain.from_iterable(chain.from_iterable(
                     edges)))


class _StandIn:
    """A node's structure with every field a placeholder."""

    def __init__(self, nd: TaggedNode) -> None:
        attrs = nd.attrs
        self.op = nd.op
        self.n_in = nd.n_inputs
        self.sense = attrs.get("sense")
        f = iter(placeholders(6 + len(nd.imms)
                              + 2 * sum(map(len, nd.out_edges))))
        (self.nid, self.imms_dict, self.array, result, route_get,
         self.evaluate) = islice(f, 6)
        self.imms = {port: next(f) for port in nd.imms}
        self.edges = [[(next(f), next(f)) for _ in port_edges]
                      for port_edges in nd.out_edges]
        self.result = None if attrs.get("result_index") is None else result
        self.route_get = (None if attrs.get("route_table") is None
                          else route_get)


def _operand(consts: Consts, port: int, imms) -> str:
    """Source for one input operand, mirroring
    ``entry[p] if p in entry else imms[p]`` with the immediate a
    constant (token-only ports collapse to ``entry[p]``)."""
    if port in imms:
        imm = consts.add(imms[port])
        return f"(entry[{port}] if {port} in entry else {imm})"
    return f"entry[{port}]"


def _dests(consts: Consts, edges) -> Dests:
    return [(consts.add(dest_id), consts.add(dest_port))
            for dest_id, dest_port in edges]


def _emit_edges(w: Shape, dests: Dests, tag: str, data: str,
                fn: str = "append") -> None:
    for dest_id, dest_port in dests:
        w(f"{fn}(({dest_id}, {dest_port}, {tag}, {data}))")


def _emit(node: TaggedNode) -> Recipe:
    """The recipe of ``node``'s structural key, emitted over its
    stand-in."""
    nd = _StandIn(node)
    op = nd.op
    imms = nd.imms
    edges = nd.edges
    n_in = nd.n_in
    nid = nd.nid
    consts = Consts()

    def shape(*refs: str) -> Shape:
        s = Shape(("tag",), consts)
        s.ref("pop", ("pops", nid))
        for name in ("append", "livebox") + refs:
            s.ref(name)
        return s

    def done(*variants) -> Recipe:
        return Recipe.emitted(variants, consts)

    def add(s: Shape) -> Recipe:
        return done(*one_rule(s.variant()))

    def consume(s: Shape, n: str = "len(entry)") -> None:
        s("entry = pop(tag)")
        s(f"livebox[0] -= {n}")

    def credit(s: Shape, n: int) -> None:
        if n:
            s(f"livebox[0] += {n}")

    if op is Op.MERGE:
        s = shape()
        dests = _dests(consts, edges[0])
        im = consts.add(nd.imms_dict) if imms else None
        consume(s)
        s("chosen = 1 if entry[0] else 2")
        if imms:
            s(f"data = entry[chosen] if chosen in entry else {im}[chosen]")
        else:
            s("data = entry[chosen]")
        _emit_edges(s, dests, "tag", "data")
        credit(s, len(dests))
        return add(s)

    if op is Op.STEER:
        s = shape()
        dexpr = _operand(consts, 0, imms)
        vexpr = _operand(consts, 1, imms)
        d0, d1 = _dests(consts, edges[0]), _dests(consts, edges[1])
        consume(s)
        if d0:
            s(f"if {dexpr}:" if nd.sense else f"if not {dexpr}:")
            s.indent()
            s(f"value = {vexpr}")
            _emit_edges(s, d0, "tag", "value")
            credit(s, len(d0))
            s.dedent()
        _emit_edges(s, d1, "tag", "0")
        credit(s, len(d1))
        return add(s)

    if op is Op.LOAD:
        # Timing is a run parameter, not part of the plan: emit both
        # firing rules (idealized single-cycle, timed by the engine's
        # timing object); the binder picks one.
        arr = consts.add(nd.array)
        addr = _operand(consts, 0, imms)
        d0, d1 = _dests(consts, edges[0]), _dests(consts, edges[1])
        n = len(d0) + len(d1)
        fast = shape("mem_load")
        consume(fast)
        fast(f"value = mem_load({arr}, {addr})")
        _emit_edges(fast, d0, "tag", "value")
        _emit_edges(fast, d1, "tag", "0")
        credit(fast, n)
        timed = shape("mem_load", "metrics", "delayed", "access_load",
                      "miss_latency", "miss_until")
        consume(timed)
        timed(f"addr = {addr}")
        timed(f"value = mem_load({arr}, addr)")
        timed(f"delay = access_load({arr}, addr)")
        timed("if delay <= 1:")
        timed.indent()
        _emit_edges(timed, d0, "tag", "value")
        _emit_edges(timed, d1, "tag", "0")
        if not n:
            timed("pass")
        timed.dedent()
        timed("else:")
        timed.indent()
        timed("due = metrics.cycles + delay - 1")
        move_miss_box(timed)
        timed("bucket = delayed.get(due)")
        timed("if bucket is None:")
        timed.indent()
        timed("delayed[due] = bucket = []")
        timed.dedent()
        _emit_edges(timed, d0, "tag", "value", "bucket.append")
        _emit_edges(timed, d1, "tag", "0", "bucket.append")
        timed.dedent()
        credit(timed, n)
        return done(fast.variant(), timed.variant())

    if op is Op.STORE:
        # A timed store probes the timing object too (the cache model
        # write-allocates) but stays single-cycle.
        arr = consts.add(nd.array)
        addr = _operand(consts, 0, imms)
        value = _operand(consts, 1, imms)
        d0 = _dests(consts, edges[0])
        fast = shape("mem_store")
        consume(fast)
        fast(f"mem_store({arr}, {addr}, {value})")
        _emit_edges(fast, d0, "tag", "0")
        credit(fast, len(d0))
        timed = shape("mem_store", "access_store")
        consume(timed)
        timed(f"addr = {addr}")
        timed(f"mem_store({arr}, addr, {value})")
        timed(f"access_store({arr}, addr)")
        _emit_edges(timed, d0, "tag", "0")
        credit(timed, len(d0))
        return done(fast.variant(), timed.variant())

    if op is Op.JOIN:
        s = shape()
        value = _operand(consts, 0, imms)
        d0 = _dests(consts, edges[0])
        consume(s)
        if d0:
            s(f"value = {value}")
            _emit_edges(s, d0, "tag", "value")
            credit(s, len(d0))
        return add(s)

    if op is Op.CHANGE_TAG:
        s = shape()
        route = nd.route_get
        new_tag = _operand(consts, 0, imms)
        data = _operand(consts, 1, imms)
        if route is None:
            d0 = _dests(consts, edges[0])
        else:
            ret = _operand(consts, 2, imms)
            table_get = consts.add(route)
        d1 = _dests(consts, edges[1])
        consume(s)
        s(f"new_tag = {new_tag}")
        s(f"data = {data}")
        if route is None:
            _emit_edges(s, d0, "new_tag", "data")
            credit(s, len(d0))
        else:
            s(f"dests = {table_get}({ret}, ())")
            s("for e in dests:")
            s.indent()
            s("append((e[0], e[1], new_tag, data))")
            s.dedent()
            s("livebox[0] += len(dests)")
        _emit_edges(s, d1, "tag", "0")
        credit(s, len(d1))
        return add(s)

    if op is Op.EXTRACT_TAG:
        s = shape()
        d0 = _dests(consts, edges[0])
        consume(s)
        _emit_edges(s, d0, "tag", "tag")
        credit(s, len(d0))
        return add(s)

    if op is Op.FREE:
        s = Shape(("tag",), consts)
        s.ref("pop", ("pops", nid))
        s.ref("pool", ("free_pool", nid))
        s.ref("dirty")
        s.ref("livebox")
        consume(s)
        s("pool.push(tag)")
        s("if pool not in dirty:")
        s.indent()
        s("dirty.append(pool)")
        s.dedent()
        return add(s)

    info = OP_INFO[op]
    if not info.pure:
        # ALLOCATE is dispatched through the engine's state machine,
        # never through fns[...]; anything else non-pure is illegal in
        # a tagged graph. Mirror the interpreter's error.
        s = Shape(("tag",), consts)
        s(f"raise SimulationError({'cannot execute ' + op.value!r})")
        return add(s)

    # Pure arithmetic/logic, one shape per operand layout (the shapes
    # differ in their livebox deltas, which all equal the
    # interpreter's ``-len(entry)``).
    result_idx = nd.result
    s = shape() if result_idx is None else shape("results")

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            return f"{consts.add(nd.evaluate)}({', '.join(args)})"
        return expr

    if result_idx is None and n_in == 2 and len(imms) == 1:
        port = 0 if 0 in imms else 1
        imm = consts.add(imms[port])
        args = [imm, "entry[1]"] if port == 0 else ["entry[0]", imm]
        delta = "1"
    elif result_idx is None and not imms and n_in in (1, 2):
        args = [f"entry[{p}]" for p in range(n_in)]
        delta = str(n_in)
    else:
        args = [_operand(consts, p, imms) for p in range(n_in)]
        delta = "len(entry)"
    expr = value_expr(args)
    slot = None if result_idx is None else consts.add(result_idx)
    d0 = _dests(consts, edges[0])
    consume(s, delta)
    s(f"value = {expr}")
    if slot is not None:
        s(f"results[{slot}] = value")
    _emit_edges(s, d0, "tag", "value")
    credit(s, len(d0))
    return add(s)


def bind(module, E) -> list:
    """Per-node firing functions for a live TaggedEngine."""
    env = memory_env(E)
    env.update({
        "pops": [store.pop for store in E._wait],
        "append": E._pending.append,
        "livebox": E._livebox,
        "results": E._results,
        "delayed": E._delayed,
        "dirty": E._dirty_pools,
        "free_pool": E._free_pool,
        "miss_until": E._miss_until,
    })
    return bind_rows(module, env, E._rule)


def generate(graph: TaggedGraph) -> KernelTable:
    """The kernel table of ``graph``."""
    table = KernelTable("tagged", bind, labels=partial(_labels, graph))
    memo = _MEMO
    append = table.rows.append
    for nd in graph.nodes:
        key, fields = _key_fields(nd)
        recipe = memo.get(key)
        if recipe is None:
            recipe = memo[key] = _emit(nd)
        append((recipe, fields))
    return table


def _labels(graph: TaggedGraph) -> List[str]:
    return [f"node {nd.node_id}: {nd.op.value} @{nd.block}"
            for nd in graph.nodes]
