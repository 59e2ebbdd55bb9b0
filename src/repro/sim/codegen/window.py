"""AOT kernel generator for block-window machines (vn/ooo/seqdf).

Emits, per :class:`~repro.ir.program.ContextProgram`, a kernel table
with one row per op of every block plan -- the firing functions of
:meth:`WindowEngine._make_fire`. Output keys, consumer descriptors and
immediates are constants bound as default arguments; live-token deltas
are part of the shape, and the ``X if port in entry else imm`` operand
probes are resolved at generation time (a port is statically either an
immediate or a token port, and every token port is present at fire
time). :func:`bind` cuts the rows back into per-block tables.

The cycle loop (one shape) is the engine's already-inlined loop with
the per-cycle ``RLETrace.append`` bodies additionally inlined (both
trace ``_length`` fields always equal the cycle count, so they are
committed in the ``finally``).

Bit-identical to the closure interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.ops import OP_INFO, Op
from repro.ir.program import ContextProgram
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
from repro.sim.window.plan import BlockPlan, OpPlan, build_plans

#: Above this fan-out a port's consumer appends stay a loop over the
#: bound descriptor tuple instead of being unrolled.
_UNROLL_CAP = 6

#: Default of ``inst.wait.pop`` for ops that fire without tokens; only
#: ever read.
_NO_ENTRY: Dict[int, object] = {}


class _Fn:
    """One op's firing functions being emitted: constants shared by
    its timing variants (each named once), refs per variant."""

    def __init__(self, bplan: BlockPlan, p: OpPlan) -> None:
        self.bplan = bplan
        self.p = p
        self.consts = Consts()

    def shape(self) -> Shape:
        return Shape(("inst",), self.consts)

    def oid(self) -> str:
        return self.consts.named("oid", self.p.op_id)

    def key(self, port: int) -> str:
        return self.consts.named(("key", port), (self.p.op_id, port))

    def operand(self, port: int) -> str:
        """Statically resolved ``entry[port] if port in entry else
        imms.get(port)`` (a port is immediate xor token, and every
        token port is deposited before a firing; a port that is
        neither -- e.g. an inputless term decider -- reads as None,
        exactly like the interpreter's ``imms.get``)."""
        if port in self.p.imms:
            return self.consts.named(("imm", port), self.p.imms[port])
        if port in self.p.token_ports:
            return f"entry[{port}]"
        return "None"

    def cons(self, port: int):
        return tuple(self.bplan.consumers.get((self.p.op_id, port), ()))

    def take(self, b: Shape, pop_default: bool = True) -> None:
        if pop_default:
            b(f"entry = inst.wait.pop({self.oid()}, NO)")
            b.ref("NO")
        else:
            b(f"entry = inst.wait.pop({self.oid()})")

    def out(self, b: Shape, port: int, value: str, delta: int) -> None:
        """Inline publish: env write, consumer fan-out, live delta,
        subscription drain -- exactly :meth:`WindowEngine._publish`'s
        order, with the interpreter's per-op delta."""
        key = self.key(port)
        cons = self.cons(port)
        b(f"inst.env[{key}] = {value}")
        if len(cons) <= _UNROLL_CAP:
            for j, c in enumerate(cons):
                b(f"append((inst, {self.consts.named(('c', port, j), c)}, "
                  f"{value}))")
        else:
            b(f"for d in {self.consts.named(('cons', port), cons)}:")
            b.indent()
            b(f"append((inst, d, {value}))")
            b.dedent()
        if delta:
            b(f"livebox[0] += {delta}")
        b("if inst.subs:")
        b.indent()
        b(f"subs = inst.subs.pop({key}, None)")
        b("if subs:")
        b.indent()
        b("for target, target_key in subs:")
        b.indent()
        b(f"forward(target, target_key, {value})")
        b.dedent()
        b.dedent()
        b.dedent()

    def finish(self, b: Shape, *refs: str):
        for name in refs + ("append", "livebox", "forward"):
            b.ref(name)
        return b.variant()


def _fire(table: KernelTable, bplan: BlockPlan, p: OpPlan) -> None:
    """Add the row of one op."""
    fn = _Fn(bplan, p)
    oid = p.op_id
    op = p.op
    n0 = len(fn.cons(0))
    n1 = len(fn.cons(1))
    n_t = len(p.token_ports)
    d0 = n0 - n_t
    d1 = n1 - n_t
    term = oid == bplan.term_id
    label = f"{bplan.name} op {oid}: {'term' if term else op.value}"

    def add(b: Shape, *refs: str) -> None:
        table.add(one_rule(fn.finish(b, *refs)), fn.consts, label)

    if term:
        b = fn.shape()
        fn.take(b)
        if n_t:
            b(f"livebox[0] -= {n_t}")
        b(f"inst.fired.add({fn.oid()})")
        b("inst.term_fired = True")
        b(f"inst.term_decision = {fn.operand(0)}")
        add(b)
        return

    if op is Op.SPAWN or not (OP_INFO[op].pure or op in (
            Op.MERGE, Op.STEER, Op.LOAD, Op.STORE)):
        what = ("spawn is a transfer point, not an instruction"
                if op is Op.SPAWN else "cannot execute " + op.value)
        b = fn.shape()
        b(f"raise SimulationError({what!r})")
        table.add(one_rule(b.variant()), fn.consts, label)
        return

    if op is Op.MERGE:
        b = fn.shape()
        fn.take(b)
        b("livebox[0] -= len(entry)")
        b(f"inst.fired.add({fn.oid()})")
        b("chosen = 1 if entry[0] else 2")
        if p.imms:
            im = fn.consts.named("imms", p.imms)
            b(f"value = entry[chosen] if chosen in entry else {im}[chosen]")
        else:
            b("value = entry[chosen]")
        fn.out(b, 0, "value", n0)
        add(b)
        return

    if op is Op.STEER:
        b = fn.shape()
        fn.take(b)
        b(f"inst.fired.add({fn.oid()})")
        b(f"decider = {fn.operand(0)}")
        b(f"value = {fn.operand(1)}")
        b("if decider:" if p.attrs["sense"] else "if not decider:")
        b.indent()
        fn.out(b, 0, "value", n0)
        b.dedent()
        fn.out(b, 1, "0", d1)
        add(b)
        return

    if op is Op.LOAD:
        arr = fn.consts.named("array", p.attrs["array"])
        # Latency is a run parameter: emit every timing rule, the
        # binder picks one (matching the interpreter's
        # construction-time split).
        fast = fn.shape()
        fn.take(fast)
        fast(f"inst.fired.add({fn.oid()})")
        fast(f"addr = {fn.operand(0)}")
        fast(f"value = mem_load({arr}, addr)")
        fn.out(fast, 0, "value", d0)
        fn.out(fast, 1, "0", n1)

        def delayed(b: Shape, delay: str) -> None:
            # The delayed-bucket plumbing is identical for cache
            # probes and the variable-latency hash.
            fn.take(b)
            if n_t:
                b(f"livebox[0] -= {n_t}")
            b(f"addr = {fn.operand(0)}")
            b(f"value = mem_load({arr}, addr)")
            b(f"delay = {delay}")
            b("if delay <= 1:")
            b.indent()
            b(f"publish(inst, {fn.key(0)}, value)")
            b(f"publish(inst, {fn.key(1)}, 0)")
            b.dedent()
            b("else:")
            b.indent()
            b("due = metrics.cycles + delay - 1")
            b("bucket = delayed.get(due)")
            b("if bucket is None:")
            b.indent()
            b("delayed[due] = bucket = []")
            b.dedent()
            b(f"bucket.append((inst, {fn.key(0)}, value))")
            b(f"bucket.append((inst, {fn.key(1)}, 0))")
            b.dedent()

        cached = fn.shape()
        delayed(cached, f"cache_load({arr}, addr)")
        var = fn.shape()
        delayed(var, f"load_delay(latency, {arr}, addr)")
        table.add((fn.finish(cached, "mem_load", "publish", "metrics",
                             "delayed", "cache_load"),
                   fn.finish(fast, "mem_load"),
                   fn.finish(var, "mem_load", "publish", "metrics",
                             "delayed", "latency", "load_delay")),
                  fn.consts, label)
        return

    if op is Op.STORE:
        arr = fn.consts.named("array", p.attrs["array"])

        def store(b: Shape) -> None:
            fn.take(b)
            b(f"inst.fired.add({fn.oid()})")
            b(f"addr = {fn.operand(0)}")
            b(f"value = {fn.operand(1)}")
            b(f"mem_store({arr}, addr, value)")

        plain = fn.shape()
        store(plain)
        fn.out(plain, 0, "0", d0)
        # Stores probe the cache model too (write-allocate) but stay
        # single-cycle; the binder picks the body like LOAD's.
        cached = fn.shape()
        store(cached)
        cached(f"cache_store({arr}, addr)")
        fn.out(cached, 0, "0", d0)
        plain_v = fn.finish(plain, "mem_store")
        table.add((fn.finish(cached, "mem_store", "cache_store"),
                   plain_v, plain_v), fn.consts, label)
        return

    # Pure arithmetic/logic. The interpreter's shape split
    # (pure2/pure1/imm variants/generic) only changes which operand
    # expressions appear; statically resolving the ports covers every
    # shape.
    n_in = len(p.inputs)
    b = fn.shape()
    # The interpreter's specialized pure shapes pop without a
    # default; preserve the KeyError on a spurious firing.
    fn.take(b, pop_default=not ((not p.imms and n_in in (1, 2))
                                or (n_in == 2 and len(p.imms) == 1)))
    args = [fn.operand(port) for port in range(n_in)]
    expr = pure_expr(op, args)
    if expr is None:
        ev = fn.consts.named("ev", OP_INFO[op].evaluate)
        expr = f"{ev}({', '.join(args)})"
    b(f"inst.fired.add({fn.oid()})")
    b(f"value = {expr}")
    fn.out(b, 0, "value", d0)
    add(b)


def bind(module, E) -> Dict[str, list]:
    """Per-block firing tables for a live WindowEngine."""
    env = memory_env(E)
    env.update({
        "NO": _NO_ENTRY,
        "livebox": E._livebox,
        "append": E._pending.append,
        "forward": E._forward,
        "publish": E._publish,
        "delayed": E._delayed,
    })
    fns = bind_rows(module.rows, env, timing_rule(E))
    tables = {}
    start = 0
    for name, n_ops in module.layout:
        tables[name] = fns[start:start + n_ops]
        start += n_ops
    return tables


def generate(program: ContextProgram) -> KernelTable:
    """The kernel table of ``program``: every block's ops in plan
    order; ``layout`` lists (block name, op count)."""
    plans = build_plans(program)
    table = KernelTable("window", bind, _RUN_LOOP,
                        [(name, len(plan.ops))
                         for name, plan in plans.items()])
    for bplan in plans.values():
        for p in bplan.ops:
            _fire(table, bplan, p)
    return table


def run_loop() -> str:
    """The cycle-loop shape."""
    w = Writer()
    w.indent()
    w('"""The engine cycle loop (already locals-accumulated in the')
    w('interpreter) with RLETrace.append inlined."""')
    w("completed = False")
    w("metrics = E.metrics")
    w("livebox = E._livebox")
    w("ready = E._ready")
    w("popleft = ready.popleft")
    w("ready_append = ready.append")
    w("pending = E._pending")
    w("retire = E._retire")
    w("retire_popleft = retire.popleft")
    w("delayed = E._delayed")
    w("fetch = E._fetch")
    w("publish = E._publish")
    w("status = E._op_status")
    w("maybe_release = E._maybe_release")
    w("issue_width = E.issue_width")
    w("fetch_width = E.fetch_width")
    w("max_cycles = E.max_cycles")
    w("wd_horizon = watchdog_horizon(max_cycles)")
    w("idle_streak = 0")
    w("sync_cycles = E.load_latency > 1 or E._cache is not None")
    w("traces = metrics.sample_traces")
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
    w("fired = 0")
    w("if ready:")
    w.indent()
    w("budget = issue_width")
    w("while ready and budget > 0:")
    w.indent()
    w("inst, op_id = popleft()")
    w("inst.fires[op_id](inst)")
    w("fired += 1")
    w("budget -= 1")
    w.dedent()
    w.dedent()
    w("progressed = False")
    w("while retire:")
    w.indent()
    w("entry = retire[0]")
    w("inst = entry[0]")
    w("ops = entry[1]")
    w("pos = entry[2]")
    w("n = len(ops)")
    w("fired_set = inst.fired")
    w("while pos < n:")
    w.indent()
    w("oid = ops[pos]")
    w("if oid in fired_set:")
    w.indent()
    w("pos += 1")
    w("continue")
    w.dedent()
    w("if (not inst.plan.guarded[oid]")
    w("        or status(inst, oid) == 'pending'):")
    w.indent()
    w("break")
    w.dedent()
    w("pos += 1")
    w.dedent()
    w("if pos < n:")
    w.indent()
    w("entry[2] = pos")
    w("break")
    w.dedent()
    w("retire_popleft()")
    w("inst.live_slices -= 1")
    w("progressed = True")
    w("maybe_release(inst)")
    w.dedent()
    w("fc = fetch_width")
    w("while fc:")
    w.indent()
    w("if not fetch():")
    w.indent()
    w("break")
    w.dedent()
    w("progressed = True")
    w("fc -= 1")
    w.dedent()
    w("if delayed:")
    w.indent()
    w("matured = delayed.pop(cycles, None)")
    w("if matured:")
    w.indent()
    # A matured load is progress: the head slice may retire its
    # now-fired LOAD next cycle, so this cycle must not read as a
    # quiesced machine.
    w("progressed = True")
    w("for inst, key, value in matured:")
    w.indent()
    w("publish(inst, key, value)")
    w.dedent()
    w.dedent()
    w.dedent()
    w("if pending:")
    w.indent()
    w("for inst, c, value in pending:")
    w.indent()
    w("op_id = c[0]")
    w("wait = inst.wait")
    w("entry = wait.get(op_id)")
    w("if entry is None:")
    w.indent()
    w("wait[op_id] = entry = {c[1]: value}")
    w("n_have = 1")
    w.dedent()
    w("else:")
    w.indent()
    w("entry[c[1]] = value")
    w("n_have = len(entry)")
    w.dedent()
    w("if c[2]:")
    w.indent()
    w("if 0 not in entry:")
    w.indent()
    w("continue")
    w.dedent()
    w("want = 1 if entry[0] else 2")
    w("if want not in entry and not c[5][want - 1]:")
    w.indent()
    w("continue")
    w.dedent()
    w.dedent()
    w("elif n_have != c[3]:")
    w.indent()
    w("continue")
    w.dedent()
    w("if c[4] in inst.fetched:")
    w.indent()
    w("ready_append((inst, op_id))")
    w.dedent()
    w("else:")
    w.indent()
    w("inst.armed.add(op_id)")
    w.dedent()
    w.dedent()
    w("del pending[:]")
    w.dedent()
    w("if fired == 0 and not progressed and not ready:")
    w.indent()
    w("idle_streak += 1")
    w("if idle_streak >= wd_horizon and (")
    w("        not delayed or min(delayed) < cycles):")
    w.indent()
    w("metrics.cycles = cycles")
    w("metrics.instructions = instructions")
    w("E._raise_deadlock(watchdog=idle_streak)")
    w.dedent()
    w("if delayed:")
    w.indent()
    w("cycles += 1")
    w("metrics.cycles = cycles")
    w("live = livebox[0]")
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if traces:")
    w.indent()
    w("if ipc_counts and ipc_vals[-1] == 0:")
    w.indent()
    w("ipc_counts[-1] += 1")
    w.dedent()
    w("else:")
    w.indent()
    w("ipc_vals.append(0)")
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
    w("continue")
    w.dedent()
    w("if E._is_finished():")
    w.indent()
    w("completed = True")
    w("break")
    w.dedent()
    w("E._raise_deadlock()")
    w.dedent()
    w("else:")
    w.indent()
    w("idle_streak = 0")
    w.dedent()
    w("cycles += 1")
    w("if sync_cycles:")
    w.indent()
    w("metrics.cycles = cycles")
    w.dedent()
    w("instructions += fired")
    w("live = livebox[0]")
    w("if live > peak_live:")
    w.indent()
    w("peak_live = live")
    w.dedent()
    w("live_sum += live")
    w("if traces:")
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
    w("if traces:")
    w.indent()
    w("metrics.ipc_trace._length = cycles")
    w("metrics.live_trace._length = cycles")
    w.dedent()
    w.dedent()
    w("return completed")
    return loop_text(w)


_RUN_LOOP = run_loop()
