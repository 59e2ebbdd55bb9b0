"""AOT kernel generator for flat (ordered-dataflow) graphs.

Emits, per :class:`~repro.compiler.flatten.FlatGraph`, a kernel table
with one try-fire row per static node -- the exact firing rule of
:meth:`QueuedEngine._try_fire` with the per-port FIFO checks,
fresh-map keys, back-pressure probes and destination pushes unrolled.
Fresh keys, destination ids, immediates and array names are constants
bound as default arguments; input and destination deques, producer
sets and the engine's counters are runtime refs bound by :func:`bind`.
Each structural key (:func:`_key_fields`) is emitted once per process
over a stand-in node; the FIFOs, producer set and descriptor lists a
recipe names resolve against each row's own fields at bind time.

The table fills the engine's fire table only: every run, profiled or
not, goes through the engine's one cycle loop
(:meth:`QueuedEngine._run_loop`).

Bit-identical to the plain interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, islice
from typing import Dict, List, Tuple

from repro.compiler.flatten import FlatGraph, FlatNode
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

#: Above this fan-out a destination port's pushes stay a loop over the
#: engine's descriptor list instead of being unrolled.
_UNROLL_CAP = 4


#: Structural key -> recipe, once per process (see :func:`_key_fields`).
_MEMO: Dict[tuple, Recipe] = {}


def _key_fields(nd: FlatNode, stride: int) -> Tuple[tuple, tuple]:
    """A node's structural key and its fields.

    The key is everything :func:`_emit` branches on: opcode, input
    count, immediate ports (in the dict's order), fan-out per output
    port (which also decides unrolling), steer sense, and whether the
    node has a result slot. The fields are, in order: node id, array,
    result slot, evaluator, the fresh key of each input port, each
    immediate, each destination's (node id, port), then each
    destination's fresh key.
    """
    imms = nd.imms
    edges = nd.out_edges
    attrs = nd.attrs
    op = nd.op
    n_in = nd.n_inputs
    result = attrs.get("result_index")
    base = nd.node_id * stride
    dests = [*chain.from_iterable(edges)]
    key = (op, n_in, tuple(imms), tuple(map(len, edges)),
           attrs.get("sense"), result is None)
    return key, (nd.node_id, attrs.get("array"), result, EVALUATORS[op],
                 *range(base, base + n_in), *imms.values(),
                 *chain.from_iterable(dests),
                 *[dest_id * stride + dest_port
                   for dest_id, dest_port in dests])


class _Node:
    """Per-node emission state over a stand-in: the node's structure
    with every field a placeholder.

    Constants are shared by a node's timing variants and named once
    (the same fresh key or immediate is the same parameter in every
    variant); runtime refs are collected by each variant's
    :class:`Shape`.
    """

    def __init__(self, nd: FlatNode) -> None:
        attrs = nd.attrs
        self.op = nd.op
        self.n_in = nd.n_inputs
        self.sense = attrs.get("sense")
        edges = nd.out_edges
        f = iter(placeholders(4 + self.n_in + len(nd.imms)
                              + 3 * sum(map(len, edges))))
        self.nid, self.array, result, self.evaluate = islice(f, 4)
        self.keys = list(islice(f, self.n_in))
        self.imms = {port: next(f) for port in nd.imms}
        self.edges = [[(next(f), next(f)) for _ in port_edges]
                      for port_edges in edges]
        self.dkeys = [[next(f) for _ in port_edges] for port_edges in edges]
        self.result = None if attrs.get("result_index") is None else result
        self.consts = Consts()

    def shape(self) -> Shape:
        return Shape((), self.consts)

    # -- input ports ---------------------------------------------------
    def is_imm(self, port: int) -> bool:
        return port in self.imms

    def fifo(self, b: Shape, port: int) -> str:
        return b.ref(f"f{port}", ("fifos", self.nid, port))

    def key(self, port: int) -> str:
        return self.consts.named(("key", port), self.keys[port])

    def imm(self, port: int) -> str:
        return self.consts.named(("imm", port), self.imms[port])

    def node_id(self) -> str:
        return self.consts.named("nid", self.nid)

    def avail(self, b: Shape, port: int) -> None:
        """Head-of-FIFO availability check for a token port.

        Same-cycle pushes are subtracted via the engine's dense
        counter list, as in :meth:`QueuedEngine._head`.
        """
        b(f"if len({self.fifo(b, port)}) - fresh[{self.key(port)}]"
          " <= 0:")
        b.indent()
        b("return False")
        b.dedent()

    def operand(self, b: Shape, port: int, var: str) -> None:
        """Availability check + head capture for one input port."""
        if self.is_imm(port):
            b(f"{var} = {self.imm(port)}")
        else:
            self.avail(b, port)
            b(f"{var} = {self.fifo(b, port)}[0]")

    # -- output ports --------------------------------------------------
    def dests(self, port: int):
        return self.edges[port]

    def unrolled(self, port: int) -> bool:
        return len(self.dests(port)) <= _UNROLL_CAP

    def dest_fifo(self, b: Shape, port: int, j: int) -> str:
        dest_id, dest_port = self.dests(port)[j]
        return b.ref(f"g{port}_{j}", ("fifos", dest_id, dest_port))

    def dest_list(self, b: Shape, port: int) -> str:
        return b.ref(f"dd{port}", ("dests", self.nid, port))

    def backpressure(self, b: Shape, port: int) -> None:
        if not self.dests(port):
            return
        if self.unrolled(port):
            for j in range(len(self.dests(port))):
                b(f"if len({self.dest_fifo(b, port, j)}) >= depth:")
                b.indent()
                b("return False")
                b.dedent()
        else:
            b(f"for f, k, d in {self.dest_list(b, port)}:")
            b.indent()
            b("if len(f) >= depth:")
            b.indent()
            b("return False")
            b.dedent()
            b.dedent()

    def push(self, b: Shape, port: int, value: str) -> None:
        """Push ``value`` to every destination of ``port`` (appends,
        fresh-count bumps, next-candidate adds, livebox credit)."""
        dests = self.dests(port)
        if not dests:
            return
        if self.unrolled(port):
            for j, (dest_id, _) in enumerate(dests):
                g = self.dest_fifo(b, port, j)
                k = self.consts.named(("dkey", port, j),
                                      self.dkeys[port][j])
                d = self.consts.named(("dest", port, j), dest_id)
                b(f"{g}.append({value})")
                b(f"fresh[{k}] += 1")
                b(f"dirty_append({k})")
                b(f"nc_add({d})")
        else:
            b(f"for f, k, d in {self.dest_list(b, port)}:")
            b.indent()
            b(f"f.append({value})")
            b("fresh[k] += 1")
            b("dirty_append(k)")
            b("nc_add(d)")
            b.dedent()
        b(f"livebox[0] += {len(dests)}")

    def pops(self, b: Shape, ports: List[int]) -> None:
        """Pop the token ports among ``ports`` and wake producers
        (the interpreter's ``popped`` flag resolved at generation
        time)."""
        token_ports = [p for p in ports if not self.is_imm(p)]
        for p in token_ports:
            b(f"{self.fifo(b, p)}.popleft()")
        if token_ports:
            # One coalesced livebox decrement: the intermediate values
            # are unobservable between pops.
            b(f"livebox[0] -= {len(token_ports)}")
            b("nc_update(prod)")

    def finish(self, b: Shape, *refs: str):
        """The variant of ``b`` once the refs every try-fire binds are
        added after the body's own."""
        for name in refs + ("fresh", "dirty_append", "nc_add",
                            "nc_update", "livebox", "depth"):
            b.ref(name)
        b.ref("prod", ("producers", self.nid))
        return b.variant()


def _emit(nd: FlatNode) -> Recipe:
    """The recipe of ``nd``'s structural key, emitted over its
    stand-in."""
    node = _Node(nd)
    op = node.op
    imms = node.imms
    n_in = node.n_in

    def done(*variants) -> Recipe:
        return Recipe.emitted(variants, node.consts)

    def add(b: Shape, *refs: str) -> Recipe:
        return done(*one_rule(node.finish(b, *refs)))

    if op is Op.MU:
        b = node.shape()
        mid = node.node_id()
        b(f"if mu[{mid}] == 0:")
        b.indent()
        node.operand(b, 0, "value")
        node.backpressure(b, 0)
        node.pops(b, [0])
        node.push(b, 0, "value")
        b(f"mu[{mid}] = 1")
        b("return True")
        b.dedent()
        node.operand(b, 2, "d2")
        node.operand(b, 1, "back")
        b("if d2:")
        b.indent()
        node.backpressure(b, 0)
        node.pops(b, [2, 1])
        node.push(b, 0, "back")
        b.dedent()
        b("else:")
        b.indent()
        node.pops(b, [2, 1])
        b(f"mu[{mid}] = 0")
        b.dedent()
        b("return True")
        return add(b, "mu")

    if op is Op.MERGE:
        b = node.shape()
        node.operand(b, 0, "d0")
        b("if d0:")
        b.indent()
        for chosen in (1, 2):
            node.operand(b, chosen, "value")
            node.backpressure(b, 0)
            node.pops(b, [0, chosen])
            node.push(b, 0, "value")
            b("return True")
            b.dedent()
            if chosen == 1:
                b("else:")
                b.indent()
        return add(b)

    if op is Op.STEER:
        b = node.shape()
        node.operand(b, 0, "d0")
        node.operand(b, 1, "value")
        b("if d0:" if node.sense else "if not d0:")
        b.indent()
        node.backpressure(b, 0)
        node.pops(b, [0, 1])
        node.push(b, 0, "value")
        b.dedent()
        b("else:")
        b.indent()
        node.pops(b, [0, 1])
        if all(node.is_imm(p) for p in (0, 1)):
            b("pass")
        b.dedent()
        b("return True")
        return add(b)

    if op is Op.LOAD:
        arr = node.consts.named("array", node.array)

        def issue(b: Shape) -> None:
            for p in range(n_in):
                node.operand(b, p, f"a{p}")
            node.backpressure(b, 0)
            node.backpressure(b, 1)
            node.pops(b, list(range(n_in)))
            b(f"value = mem_load({arr}, a0)")

        # Latency is a run parameter: emit both firing rules, the
        # binder picks one. Under unit latency nothing ever enters the
        # in-flight map, so the fast rule drops those checks.
        fast = node.shape()
        issue(fast)
        node.push(fast, 0, "value")
        node.push(fast, 1, "0")
        fast("return True")
        timed = node.shape()
        issue(timed)
        lid = node.node_id()
        timed(f"delay = access_load({arr}, a0)")
        timed(f"if delay <= 1 and {lid} not in inflight:")
        timed.indent()
        node.push(timed, 0, "value")
        node.push(timed, 1, "0")
        if not (node.dests(0) or node.dests(1)):
            timed("pass")
        timed.dedent()
        timed("else:")
        timed.indent()
        timed("due = metrics.cycles + delay - 1")
        move_miss_box(timed)
        timed(f"queue = inflight.get({lid})")
        timed("if queue is None:")
        timed.indent()
        timed(f"inflight[{lid}] = queue = deque()")
        # A new queue's head may mature before every other head; an
        # append behind an existing head never can (head-of-line
        # blocking), so only this arm can lower the delivery bound.
        timed("if due < due_box[0]:")
        timed.indent()
        timed("due_box[0] = due")
        timed.dedent()
        timed.dedent()
        timed("queue.append((due, value))")
        timed.dedent()
        timed("return True")
        return done(node.finish(fast, "mem_load"),
                    node.finish(timed, "mem_load", "inflight", "metrics",
                                "access_load", "due_box", "miss_latency",
                                "miss_until"))

    if op is Op.STORE:
        arr = node.consts.named("array", node.array)

        def store(b: Shape) -> None:
            for p in range(n_in):
                node.operand(b, p, f"a{p}")
            node.backpressure(b, 0)
            node.pops(b, list(range(n_in)))
            b(f"mem_store({arr}, a0, a1)")

        fast = node.shape()
        store(fast)
        node.push(fast, 0, "0")
        fast("return True")
        # A timed store probes the timing object too (the cache model
        # write-allocates) but stays single-cycle.
        timed = node.shape()
        store(timed)
        timed(f"access_store({arr}, a0)")
        node.push(timed, 0, "0")
        timed("return True")
        return done(node.finish(fast, "mem_store"),
                    node.finish(timed, "mem_store", "access_store"))

    info = OP_INFO[op]
    if not info.pure:
        b = node.shape()
        b(f"raise SimulationError("
          f"{'cannot execute ' + op.value + ' (flat)'!r})")
        return done(*one_rule(b.variant()))

    # Pure arithmetic/logic, one shape per operand layout.
    result_idx = node.result
    b = node.shape()

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            ev = node.consts.named("ev", node.evaluate)
            return f"{ev}({', '.join(args)})"
        return expr

    if result_idx is None and not imms and n_in in (1, 2):
        names = ["a", "b"][:n_in]
        for p in range(n_in):
            node.avail(b, p)
        node.backpressure(b, 0)
        for p, name in enumerate(names):
            b(f"{name} = {node.fifo(b, p)}.popleft()")
        b(f"livebox[0] -= {n_in}")
        b("nc_update(prod)")
        b(f"value = {value_expr(names)}")
        node.push(b, 0, "value")
        b("return True")
        return add(b)

    for p in range(n_in):
        node.operand(b, p, f"a{p}")
    node.backpressure(b, 0)
    node.pops(b, list(range(n_in)))
    b(f"value = {value_expr([f'a{p}' for p in range(n_in)])}")
    if result_idx is not None:
        b(f"results[{node.consts.named('slot', result_idx)}] = value")
    node.push(b, 0, "value")
    b("return True")
    if result_idx is not None:
        return add(b, "results")
    return add(b)


def bind(module, E) -> list:
    """Per-node try-fire functions for a live QueuedEngine."""
    nc = E._next_candidates
    env = memory_env(E)
    env.update({
        "fifos": E._fifos,
        "dests": E._dests,
        "producers": E._producers,
        "results": E._results,
        "fresh": E._fresh,
        "dirty_append": E._fresh_dirty.append,
        "nc_add": nc.add,
        "nc_update": nc.update,
        "livebox": E._livebox,
        "depth": E.queue_depth,
        "inflight": E._inflight,
        "due_box": E._due_box,
        "mu": E._mu_state,
        "miss_until": E._miss_until,
    })
    return bind_rows(module, env, E._rule)


def generate(graph: FlatGraph) -> KernelTable:
    """The kernel table of ``graph``."""
    stride = max((nd.n_inputs for nd in graph.nodes),
                 default=1) or 1
    table = KernelTable("flat", bind, labels=partial(_labels, graph))
    memo = _MEMO
    append = table.rows.append
    for nd in graph.nodes:
        key, fields = _key_fields(nd, stride)
        recipe = memo.get(key)
        if recipe is None:
            recipe = memo[key] = _emit(nd)
        append((recipe, fields))
    return table


def _labels(graph: FlatGraph) -> List[str]:
    return [f"node {nd.node_id}: {nd.op.value}" for nd in graph.nodes]
