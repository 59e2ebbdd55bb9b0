"""AOT kernel generator for flat (ordered-dataflow) graphs.

Emits, per :class:`~repro.compiler.flatten.FlatGraph`, a kernel table
with one try-fire row per static node -- the exact firing rule of
:meth:`QueuedEngine._make_try_fire` with the per-port FIFO checks,
fresh-map keys, back-pressure probes and destination pushes unrolled.
Fresh keys, destination ids, immediates and array names are constants
bound as default arguments; input and destination deques, producer
sets and the engine's counters are runtime refs bound by :func:`bind`.

The cycle loop (one shape) inlines the ``MetricsRecorder.sample`` body
into frame locals that are committed back in a ``finally`` (the idiom
of the window engine's interpreted loop). ``metrics.cycles`` is
synchronized every cycle when ``load_latency > 1`` because the load
firing rules and ``_deliver_memory_responses`` read it, and committed
/ reloaded around ``_stall_for_memory`` (which mutates the recorder).

Bit-identical to the closure interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from typing import List

from repro.compiler.flatten import FlatGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import (
    Consts,
    KernelTable,
    Shape,
    Writer,
    bind_rows,
    loop_text,
    memory_env,
    one_rule,
    pure_expr,
    timing_rule,
)

#: Above this fan-out a destination port's pushes stay a loop over the
#: engine's descriptor list instead of being unrolled.
_UNROLL_CAP = 4


class _Node:
    """Per-node emission state.

    Constants are shared by a node's timing variants and named once
    (the same fresh key or immediate is the same parameter in every
    variant); runtime refs are collected by each variant's
    :class:`Shape`.
    """

    def __init__(self, graph: FlatGraph, nid: int,
                 stride: int) -> None:
        self.nd = graph.nodes[nid]
        self.nid = nid
        self.stride = stride
        self.consts = Consts()

    def shape(self) -> Shape:
        return Shape((), self.consts)

    # -- input ports ---------------------------------------------------
    def is_imm(self, port: int) -> bool:
        return port in self.nd.imms

    def fifo(self, b: Shape, port: int) -> str:
        return b.ref(f"f{port}", ("fifos", self.nid, port))

    def key(self, port: int) -> str:
        return self.consts.named(("key", port),
                                 self.nid * self.stride + port)

    def imm(self, port: int) -> str:
        return self.consts.named(("imm", port), self.nd.imms[port])

    def node_id(self) -> str:
        return self.consts.named("nid", self.nid)

    def avail(self, b: Shape, port: int) -> None:
        """Head-of-FIFO availability check for a token port.

        Same-cycle pushes are subtracted via a dense dirty-tracked
        counter list instead of the interpreter's dict (same
        visibility semantics, cheaper indexing).
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
        return self.nd.out_edges[port]

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
            for j, (dest_id, dest_port) in enumerate(dests):
                g = self.dest_fifo(b, port, j)
                k = self.consts.named(("dkey", port, j),
                               dest_id * self.stride + dest_port)
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


def _node(table: KernelTable, graph: FlatGraph, nid: int,
          stride: int) -> None:
    node = _Node(graph, nid, stride)
    nd = node.nd
    op = nd.op
    imms = nd.imms
    n_in = nd.n_inputs
    label = f"node {nid}: {op.value}"

    def add(b: Shape, *refs: str) -> None:
        table.add(one_rule(node.finish(b, *refs)), node.consts, label)

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
        add(b, "mu")
        return

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
        add(b)
        return

    if op is Op.STEER:
        b = node.shape()
        node.operand(b, 0, "d0")
        node.operand(b, 1, "value")
        b("if d0:" if nd.attrs["sense"] else "if not d0:")
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
        add(b)
        return

    if op is Op.LOAD:
        arr = node.consts.named("array", nd.attrs["array"])

        def issue(b: Shape) -> None:
            for p in range(n_in):
                node.operand(b, p, f"a{p}")
            node.backpressure(b, 0)
            node.backpressure(b, 1)
            node.pops(b, list(range(n_in)))
            b(f"value = mem_load({arr}, a0)")

        # Latency is a run parameter: emit every firing rule, the
        # binder picks one. Under unit latency nothing ever enters the
        # in-flight map, so the fast rule drops those checks.
        fast = node.shape()
        issue(fast)
        node.push(fast, 0, "value")
        node.push(fast, 1, "0")
        fast("return True")

        def delayed(b: Shape, delay: str) -> None:
            issue(b)
            lid = node.node_id()
            b(f"delay = {delay}")
            b(f"if delay <= 1 and {lid} not in inflight:")
            b.indent()
            node.push(b, 0, "value")
            node.push(b, 1, "0")
            if not (node.dests(0) or node.dests(1)):
                b("pass")
            b.dedent()
            b("else:")
            b.indent()
            b("due = metrics.cycles + delay - 1")
            b(f"queue = inflight.get({lid})")
            b("if queue is None:")
            b.indent()
            b(f"inflight[{lid}] = queue = deque()")
            # A new queue's head may mature before every other head;
            # an append behind an existing head never can (head-of-
            # line blocking), so only this arm can lower the delivery
            # bound.
            b("if due < due_box[0]:")
            b.indent()
            b("due_box[0] = due")
            b.dedent()
            b.dedent()
            b("queue.append((due, value))")
            b.dedent()
            b("return True")

        var = node.shape()
        delayed(var, f"load_delay(latency, {arr}, a0)")
        # Cache mode: the probe decides the delay, the in-flight
        # plumbing is identical to the variable-latency rule.
        cached = node.shape()
        delayed(cached, f"cache_load({arr}, a0)")
        table.add((node.finish(cached, "mem_load", "inflight", "metrics",
                               "cache_load", "due_box"),
                   node.finish(fast, "mem_load"),
                   node.finish(var, "mem_load", "inflight", "metrics",
                               "latency", "load_delay", "due_box")),
                  node.consts, label)
        return

    if op is Op.STORE:
        arr = node.consts.named("array", nd.attrs["array"])

        def store(b: Shape) -> None:
            for p in range(n_in):
                node.operand(b, p, f"a{p}")
            node.backpressure(b, 0)
            node.pops(b, list(range(n_in)))
            b(f"mem_store({arr}, a0, a1)")

        plain = node.shape()
        store(plain)
        node.push(plain, 0, "0")
        plain("return True")
        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; the binder picks the body like LOAD's.
        cached = node.shape()
        store(cached)
        cached(f"cache_store({arr}, a0)")
        node.push(cached, 0, "0")
        cached("return True")
        plain_v = node.finish(plain, "mem_store")
        table.add((node.finish(cached, "mem_store", "cache_store"),
                   plain_v, plain_v), node.consts, label)
        return

    info = OP_INFO[op]
    if not info.pure:
        b = node.shape()
        b(f"raise SimulationError("
          f"{'cannot execute ' + op.value + ' (flat)'!r})")
        table.add(one_rule(b.variant()), node.consts, label)
        return

    # Pure arithmetic/logic; mirror the interpreter's shapes.
    result_idx = nd.attrs.get("result_index")
    b = node.shape()

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            ev = node.consts.named("ev", info.evaluate)
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
        add(b)
        return

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
        add(b, "results")
    else:
        add(b)


def bind(module, E) -> list:
    """Per-node try-fire functions for a live QueuedEngine."""
    # Same-cycle token visibility: a dense counter list (indexed by
    # the engine's int fresh keys) with an explicit dirty list, reset
    # by the generated run_loop each cycle. Replaces E._fresh for the
    # generated path only.
    fresh_list = [0] * (len(E._fifos) * E._stride)
    dirty: List[int] = []
    E._codegen_fresh = (fresh_list, dirty)
    nc = E._next_candidates
    env = memory_env(E)
    env.update({
        "fifos": E._fifos,
        "dests": E._dests,
        "producers": E._producers,
        "results": E._results,
        "fresh": fresh_list,
        "dirty_append": dirty.append,
        "nc_add": nc.add,
        "nc_update": nc.update,
        "livebox": E._livebox,
        "depth": E.queue_depth,
        "inflight": E._inflight,
        "due_box": E._due_box,
        "mu": E._mu_state,
    })
    return bind_rows(module.rows, env, timing_rule(E))


def generate(graph: FlatGraph) -> KernelTable:
    """The kernel table of ``graph``."""
    stride = max((nd.n_inputs for nd in graph.nodes),
                 default=1) or 1
    table = KernelTable("flat", bind, _RUN_LOOP)
    for nid in range(len(graph.nodes)):
        _node(table, graph, nid, stride)
    return table


def run_loop() -> str:
    """The cycle-loop shape."""
    w = Writer()
    w.indent()
    w('"""The engine cycle loop with MetricsRecorder.sample inlined')
    w('into frame locals (committed back in the finally)."""')
    w("metrics = E.metrics")
    w("nc = E._next_candidates")
    w("nc_add = nc.add")
    w("nc_clear = nc.clear")
    w("fresh_list, dirty = E._codegen_fresh")
    w("dirty_append = dirty.append")
    w("dests = E._dests")
    w("livebox = E._livebox")
    w("try_fns = tuple(E._try_fire_fns)")
    w("issue_width = E.issue_width")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("inflight = E._inflight")
    w("due_box = E._due_box")
    w("stall = E._stall_for_memory")
    w("sync = E.load_latency > 1 or E._cache is not None")
    w("sample_traces = metrics.sample_traces")
    # RLETrace.append inlined below; _length for both traces always
    # equals the cycle count, so it is committed in the finally.
    w("ipc_vals = metrics.ipc_trace._values")
    w("ipc_counts = metrics.ipc_trace._counts")
    w("live_vals = metrics.live_trace._values")
    w("live_counts = metrics.live_trace._counts")
    w("cycles = metrics.cycles")
    w("instructions = metrics.instructions")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w("try:")
    w.indent()
    w("while True:")
    w.indent()
    w("candidates = sorted(nc)")
    w("nc_clear()")
    w("if dirty:")
    w.indent()
    w("for k in dirty:")
    w.indent()
    w("fresh_list[k] = 0")
    w.dedent()
    w("del dirty[:]")
    w.dedent()
    # Inline _deliver_memory_responses against the dense fresh list
    # (``now`` is the local cycle counter; the invariant
    # metrics.cycles == cycles holds whenever loads can be in flight).
    # Skipped outright until the earliest queue head matures -- no
    # head can be due before due_box[0] (head-of-line blocking), so
    # cycles without a maturing load never scan the in-flight map.
    w("if inflight and cycles >= due_box[0]:")
    w.indent()
    w("done = None")
    w("for lnid, queue in inflight.items():")
    w.indent()
    w("while queue and queue[0][0] <= cycles:")
    w.indent()
    w("_, value = queue.popleft()")
    w("for f, k, d in dests[lnid][0]:")
    w.indent()
    w("f.append(value)")
    w("fresh_list[k] += 1")
    w("dirty_append(k)")
    w("nc_add(d)")
    w.dedent()
    w("livebox[0] += len(dests[lnid][0])")
    w("for f, k, d in dests[lnid][1]:")
    w.indent()
    w("f.append(0)")
    w("fresh_list[k] += 1")
    w("dirty_append(k)")
    w("nc_add(d)")
    w.dedent()
    w("livebox[0] += len(dests[lnid][1])")
    w.dedent()
    w("if not queue:")
    w.indent()
    w("if done is None:")
    w.indent()
    w("done = []")
    w.dedent()
    w("done.append(lnid)")
    w.dedent()
    w.dedent()
    w("if done is not None:")
    w.indent()
    w("for lnid in done:")
    w.indent()
    w("del inflight[lnid]")
    w.dedent()
    w.dedent()
    w("due_box[0] = min((q[0][0] for q in inflight.values()),")
    w("                 default=maxsize)")
    w.dedent()
    w("fired = 0")
    # When the issue width covers every candidate the budget can
    # never run out mid-scan (it only decrements on fires), so the
    # common wide-issue case skips the budget bookkeeping entirely.
    w("if issue_width >= len(candidates):")
    w.indent()
    w("for nid in candidates:")
    w.indent()
    w("if try_fns[nid]():")
    w.indent()
    w("fired += 1")
    w("nc_add(nid)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("else:")
    w.indent()
    w("budget = issue_width")
    w("for nid in candidates:")
    w.indent()
    w("if budget == 0:")
    w.indent()
    w("nc_add(nid)")
    w.dedent()
    w("elif try_fns[nid]():")
    w.indent()
    w("fired += 1")
    w("budget -= 1")
    w("nc_add(nid)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("if fired == 0 and not nc:")
    w.indent()
    w("if inflight:")
    w.indent()
    # _stall_for_memory reads and mutates the recorder: commit the
    # locals, run it, and reload what it changed -- in an inner
    # finally so a max_cycles raise inside the stall still leaves
    # the outer commit writing current values.
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("try:")
    w.indent()
    w("stall()")
    w.dedent()
    w("finally:")
    w.indent()
    w("cycles = metrics.cycles")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w.dedent()
    w("continue")
    w.dedent()
    w("if livebox[0] == 0:")
    w.indent()
    w("return True")
    w.dedent()
    w("E._raise_deadlock()")
    w.dedent()
    w("live = livebox[0]")
    w("cycles += 1")
    w("instructions += fired")
    w("if fired:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("elif not inflight:")
    w.indent()
    w("idle_streak += 1")
    w("if idle_streak >= wd_horizon:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock(watchdog=idle_streak)")
    w.dedent()
    w.dedent()
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if sample_traces:")
    w.indent()
    w("if ipc_counts and ipc_vals[-1] == fired:")
    w.indent()
    w("ipc_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("ipc_vals.append(fired)")
    w("ipc_counts.append(1)")
    w.dedent()
    w("if live_counts and live_vals[-1] == live:")
    w.indent()
    w("live_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("live_vals.append(live)")
    w("live_counts.append(1)")
    w.dedent()
    w.dedent()
    w("if sync:")
    w.indent()
    w("metrics.cycles = cycles")
    w.dedent()
    w("if cycles >= max_cycles:")
    w.indent()
    w("raise SimulationError(f\"exceeded max_cycles={max_cycles}\")")
    w.dedent()
    w.dedent()
    w.dedent()
    w("finally:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("if sample_traces:")
    w.indent()
    w("metrics.ipc_trace._length = cycles")
    w("metrics.live_trace._length = cycles")
    w.dedent()
    w.dedent()
    return loop_text(w)


_RUN_LOOP = run_loop()
