"""AOT kernel generator for elaborated tagged graphs.

Emits, per :class:`~repro.compiler.graph.TaggedGraph`, a kernel table
with one row per static node -- the exact firing rule of
:meth:`TaggedEngine._make_fire` with the operand slots, immediates,
output-edge appends and livebox deltas unrolled into straight-line
code. Destination ids and ports, immediates, array names and result
slots are constants ``c0, c1, ...`` bound as default arguments; the
wait-store slot's ``pop``, the pending buffer's ``append``, memory and
tag pools are runtime refs bound from the live engine by :func:`bind`.

The cycle loop is ``_run_cycle``, ``_apply_pending`` and
``_drain_pending_fast`` fused into one frame, specialized to the
firing-rule kinds the graph contains (graphs without allocate/free/
merge nodes drop those branches): one loop shape per variant.

The generated code must stay *bit-identical* to the closure
interpreter: every livebox delta, deposit ordering, and exception
message mirrors ``sim/tagged/engine.py`` -- the golden engine records
and the differential fuzz suite pin this.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.compiler.graph import TaggedGraph
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

Dests = List[Tuple[str, str]]


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


def _emit_edges(w: Writer, dests: Dests, tag: str, data: str,
                fn: str = "append") -> None:
    for dest_id, dest_port in dests:
        w(f"{fn}(({dest_id}, {dest_port}, {tag}, {data}))")


def _node(table: KernelTable, graph: TaggedGraph, nid: int) -> None:
    nd = graph.nodes[nid]
    op = nd.op
    imms = nd.imms
    edges = nd.out_edges
    attrs = nd.attrs
    n_in = nd.n_inputs
    consts = Consts()
    label = f"node {nid}: {op.value} @{nd.block}"

    def shape(*refs: str) -> Shape:
        s = Shape(("tag",), consts)
        s.ref("pop", ("pops", nid))
        for name in ("append", "livebox") + refs:
            s.ref(name)
        return s

    def add(s: Shape) -> None:
        table.add(one_rule(s.variant()), consts, label)

    def consume(s: Shape, n: str = "len(entry)") -> None:
        s("entry = pop(tag)")
        s(f"livebox[0] -= {n}")

    def credit(s: Shape, n: int) -> None:
        if n:
            s(f"livebox[0] += {n}")

    if op is Op.MERGE:
        s = shape()
        dests = _dests(consts, edges[0])
        im = consts.add(imms) if imms else None
        consume(s)
        s("chosen = 1 if entry[0] else 2")
        if imms:
            s(f"data = entry[chosen] if chosen in entry else {im}[chosen]")
        else:
            s("data = entry[chosen]")
        _emit_edges(s, dests, "tag", "data")
        credit(s, len(dests))
        add(s)
        return

    if op is Op.STEER:
        s = shape()
        dexpr = _operand(consts, 0, imms)
        vexpr = _operand(consts, 1, imms)
        d0, d1 = _dests(consts, edges[0]), _dests(consts, edges[1])
        consume(s)
        if d0:
            s(f"if {dexpr}:" if attrs["sense"] else f"if not {dexpr}:")
            s.indent()
            s(f"value = {vexpr}")
            _emit_edges(s, d0, "tag", "value")
            credit(s, len(d0))
            s.dedent()
        _emit_edges(s, d1, "tag", "0")
        credit(s, len(d1))
        add(s)
        return

    if op is Op.LOAD:
        # Timing is a run parameter, not part of the plan: emit all
        # three firing rules (cache probe, idealized single-cycle,
        # hash-based variable latency); the binder picks one.
        arr = consts.add(attrs["array"])
        addr = _operand(consts, 0, imms)
        d0, d1 = _dests(consts, edges[0]), _dests(consts, edges[1])
        n = len(d0) + len(d1)

        def delayed(s: Shape, delay: str) -> None:
            consume(s)
            s(f"addr = {addr}")
            s(f"value = mem_load({arr}, addr)")
            s(f"delay = {delay}")
            s("if delay <= 1:")
            s.indent()
            _emit_edges(s, d0, "tag", "value")
            _emit_edges(s, d1, "tag", "0")
            if not n:
                s("pass")
            s.dedent()
            s("else:")
            s.indent()
            s("due = metrics.cycles + delay - 1")
            s("bucket = delayed.get(due)")
            s("if bucket is None:")
            s.indent()
            s("delayed[due] = bucket = []")
            s.dedent()
            _emit_edges(s, d0, "tag", "value", "bucket.append")
            _emit_edges(s, d1, "tag", "0", "bucket.append")
            s.dedent()
            credit(s, n)

        cached = shape("mem_load", "metrics", "delayed", "cache_load")
        delayed(cached, f"cache_load({arr}, addr)")
        fast = shape("mem_load")
        consume(fast)
        fast(f"value = mem_load({arr}, {addr})")
        _emit_edges(fast, d0, "tag", "value")
        _emit_edges(fast, d1, "tag", "0")
        credit(fast, n)
        var = shape("mem_load", "metrics", "delayed", "latency",
                    "load_delay")
        delayed(var, f"load_delay(latency, {arr}, addr)")
        table.add((cached.variant(), fast.variant(), var.variant()),
                  consts, label)
        return

    if op is Op.STORE:
        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; the binder picks the body like LOAD's.
        arr = consts.add(attrs["array"])
        addr = _operand(consts, 0, imms)
        value = _operand(consts, 1, imms)
        d0 = _dests(consts, edges[0])
        cached = shape("mem_store", "cache_store")
        consume(cached)
        cached(f"addr = {addr}")
        cached(f"mem_store({arr}, addr, {value})")
        cached(f"cache_store({arr}, addr)")
        _emit_edges(cached, d0, "tag", "0")
        credit(cached, len(d0))
        plain = shape("mem_store")
        consume(plain)
        plain(f"mem_store({arr}, {addr}, {value})")
        _emit_edges(plain, d0, "tag", "0")
        credit(plain, len(d0))
        plain_v = plain.variant()
        table.add((cached.variant(), plain_v, plain_v), consts, label)
        return

    if op is Op.JOIN:
        s = shape()
        value = _operand(consts, 0, imms)
        d0 = _dests(consts, edges[0])
        consume(s)
        if d0:
            s(f"value = {value}")
            _emit_edges(s, d0, "tag", "value")
            credit(s, len(d0))
        add(s)
        return

    if op is Op.CHANGE_TAG:
        s = shape()
        route = attrs.get("route_table")
        new_tag = _operand(consts, 0, imms)
        data = _operand(consts, 1, imms)
        if route is None:
            d0 = _dests(consts, edges[0])
        else:
            ret = _operand(consts, 2, imms)
            table_get = consts.add(route.get)
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
        add(s)
        return

    if op is Op.EXTRACT_TAG:
        s = shape()
        d0 = _dests(consts, edges[0])
        consume(s)
        _emit_edges(s, d0, "tag", "tag")
        credit(s, len(d0))
        add(s)
        return

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
        add(s)
        return

    info = OP_INFO[op]
    if not info.pure:
        # ALLOCATE is dispatched through the engine's state machine,
        # never through fns[...]; anything else non-pure is illegal in
        # a tagged graph. Mirror the interpreter's guard closure.
        s = Shape(("tag",), consts)
        s(f"raise SimulationError({'cannot execute ' + op.value!r})")
        add(s)
        return

    # Pure arithmetic/logic. Mirror the interpreter's shape selection
    # exactly (the shapes differ in their livebox deltas).
    result_idx = attrs.get("result_index")
    s = shape() if result_idx is None else shape("results")

    def value_expr(args: List[str]) -> str:
        expr = pure_expr(op, args)
        if expr is None:
            return f"{consts.add(info.evaluate)}({', '.join(args)})"
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
    add(s)


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
    })
    return bind_rows(module.rows, env, timing_rule(E))


def generate(graph: TaggedGraph) -> KernelTable:
    """The kernel table of ``graph``."""
    ops = {nd.op for nd in graph.nodes}
    table = KernelTable("tagged", bind,
                        run_loop(Op.ALLOCATE in ops, Op.MERGE in ops,
                                 Op.FREE in ops))
    for nid in range(len(graph.nodes)):
        _node(table, graph, nid)
    return table


@lru_cache(maxsize=None)  # at most eight variants
def run_loop(has_alloc: bool, has_merge: bool, has_free: bool) -> str:
    """The cycle-loop shape for one combination of firing-rule kinds."""
    w = Writer()
    w.indent()
    w('"""The engine cycle loop with _run_cycle, _apply_pending and')
    w('_drain_pending_fast fused into one frame."""')
    w("metrics = E.metrics")
    w("ready = E._ready")
    w("popleft = ready.popleft")
    w("ready_append = ready.append")
    w("livebox = E._livebox")
    w("pending = E._pending")
    w("dep = E._dep")
    w("delayed = E._delayed")
    w("fire_fns = E._fire_fns")
    w("token_bound = E._token_bound")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("issue_width = E.issue_width")
    if has_alloc:
        w("fire_alloc_pop = E._fire_alloc_pop")
        w("fire_alloc_ctl = E._fire_alloc_ctl")
        w("deposit_alloc = E._deposit_alloc")
    if has_free:
        w("dirty = E._dirty_pools")
        w("wake = E._wake_waiters")
    # MetricsRecorder.sample is inlined into frame locals, committed
    # back in the finally. metrics.cycles is synchronized at the end
    # of every cycle when loads can be delayed (the variable-latency
    # and cache-probe fire rules read it mid-cycle) and around
    # _stall_for_memory, which both reads and mutates the recorder.
    w("sync = E.load_latency > 1 or E._cache is not None")
    w("sample_traces = metrics.sample_traces")
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
    w("if not ready:")
    w.indent()
    w("if delayed:")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("metrics._peak_live = peak_live")
    w("metrics._live_sum = live_sum")
    w("try:")
    w.indent()
    w("E._stall_for_memory()")
    w.dedent()
    w("finally:")
    w.indent()
    w("cycles = metrics.cycles")
    w("peak_live = metrics._peak_live")
    w("live_sum = metrics._live_sum")
    w.dedent()
    w("continue")
    w.dedent()
    w("if E._is_finished():")
    w.indent()
    w("return True")
    w.dedent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock()")
    w.dedent()
    w("fired = 0")
    w("budget = issue_width")
    w("while ready and budget > 0:")
    w.indent()
    w("nid, tag, action = popleft()")
    if has_alloc:
        w("if action == 0:")
        w.indent()
        w("fire_fns[nid](tag)")
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
        w("elif action == 1:")
        w.indent()
        w("if fire_alloc_pop(nid, tag):")
        w.indent()
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
        w.dedent()
        w("else:")
        w.indent()
        w("fire_alloc_ctl(nid, tag)")
        w("fired += 1")
        w("budget -= 1")
        w.dedent()
    else:
        w("fire_fns[nid](tag)")
        w("fired += 1")
        w("budget -= 1")
    w.dedent()
    w("matured = delayed.pop(cycles, None) if delayed else None")
    w("if matured:")
    w.indent()
    w("pending.extend(matured)")
    w.dedent()
    w("if pending:")
    w.indent()
    w("for nid, port, tag, data in pending:")
    w.indent()
    w("kind, store, n_ports, imms = dep[nid]")
    # Deposit branches only for the firing-rule kinds present.
    plain_dep = [
        "entry = store.get(tag)",
        "if entry is None:",
        "    store[tag] = {port: data}",
        "    if n_ports == 1:",
        "        ready_append((nid, tag, 0))",
        "else:",
        "    entry[port] = data",
        "    if len(entry) == n_ports:",
        "        ready_append((nid, tag, 0))",
    ]
    merge_dep = [
        "entry = store.get(tag)",
        "if entry is None:",
        "    store[tag] = entry = {}",
        "entry[port] = data",
        "if 0 in entry:",
        "    want = 1 if entry[0] else 2",
        "    if want in entry or want in imms:",
        "        ready_append((nid, tag, 0))",
    ]
    branches = [("kind == 0", plain_dep)]
    if has_merge:
        branches.append(("kind == 1", merge_dep))
    if has_alloc:
        branches.append((None, ["deposit_alloc(nid, port, tag)"]))
    if len(branches) == 1:
        for line in branches[0][1]:
            w(line)
    else:
        for i, (cond, body) in enumerate(branches):
            if i == 0:
                w(f"if {cond}:")
            elif cond is None or i == len(branches) - 1:
                w("else:")
            else:
                w(f"elif {cond}:")
            w.indent()
            for line in body:
                w(line)
            w.dedent()
    w.dedent()
    w("del pending[:]")
    w.dedent()
    if has_free:
        w("if dirty:")
        w.indent()
        w("pools = dirty[:]")
        w("del dirty[:]")
        w("for pool in pools:")
        w.indent()
        w("wake(pool)")
        w.dedent()
        w.dedent()
    w("live = livebox[0]")
    w("cycles += 1")
    w("instructions += fired")
    w("if fired:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("elif not delayed:")
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
    w("if token_bound is not None and live > token_bound:")
    w.indent()
    w("raise TokenBoundExceeded(")
    w("    f\"live tokens {live} exceed Theorem 2 bound \"")
    w("    f\"{token_bound}\")")
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
