"""AOT kernel generator for block-window machines (vn/ooo/seqdf).

Emits, from a program's block plans (the ones its engines run), a
kernel table with one row per op of every block plan -- the firing
rule of :meth:`WindowEngine._fire`. Output keys, consumer descriptors and
immediates are constants bound as default arguments; live-token deltas
are part of the shape, and the ``X if port in entry else imm`` operand
probes are resolved at generation time (a port is statically either an
immediate or a token port, and every token port is present at fire
time). Each structural key (:func:`_key_fields`) is emitted once per
process over a stand-in op. :func:`bind` cuts the rows back into
per-block tables.

The tables fill the engine's fire tables only: every run, profiled or
not, goes through the engine's one cycle loop
(:meth:`WindowEngine._run_loop`).

Bit-identical to the plain interpreter by construction; the golden
records and the differential fuzz suite pin it.
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Dict, List, Tuple

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
from repro.sim.window.plan import BlockPlan, OpPlan

#: Above this fan-out a port's consumer appends stay a loop over the
#: bound descriptor tuple instead of being unrolled.
_UNROLL_CAP = 6

#: Default of ``inst.wait.pop`` for ops that fire without tokens; only
#: ever read.
_NO_ENTRY: Dict[int, object] = {}


#: Structural key -> recipe, once per process (see :func:`_key_fields`).
_MEMO: Dict[tuple, Recipe] = {}


def _key_fields(bplan: BlockPlan, p: OpPlan) -> Tuple[tuple, tuple]:
    """An op's structural key and its fields.

    The key is everything :func:`_emit` branches on: whether the op is
    the loop term, opcode, input count, immediate ports (in the dict's
    order), token ports, fan-out of output ports 0 and 1, and steer
    sense. The fields are, in order: op id, the output keys of ports 0
    and 1, immediates dict, array, evaluator, the consumer tuples of
    ports 0 and 1, each immediate, then each consumer of port 0 and of
    port 1.
    """
    oid = p.op_id
    k0 = (oid, 0)
    k1 = (oid, 1)
    get = bplan.consumers.get
    cons0 = tuple(get(k0, ()))
    cons1 = tuple(get(k1, ()))
    imms = p.imms
    attrs = p.attrs
    op = p.op
    key = (oid == bplan.term_id, op, len(p.inputs), tuple(imms),
           p.token_ports, len(cons0), len(cons1), attrs.get("sense"))
    return key, (oid, k0, k1, imms, attrs.get("array"), EVALUATORS[op],
                 cons0, cons1, *imms.values(), *cons0, *cons1)


class _Fn:
    """One op's firing functions being emitted over a stand-in: the
    op's structure with every field a placeholder. Constants are
    shared by its timing variants (each named once), refs per
    variant."""

    def __init__(self, bplan: BlockPlan, p: OpPlan) -> None:
        self.term = p.op_id == bplan.term_id
        self.op = p.op
        self.n_in = len(p.inputs)
        self.token_ports = p.token_ports
        self.sense = p.attrs.get("sense")
        get = bplan.consumers.get
        n0 = len(get((p.op_id, 0), ()))
        n1 = len(get((p.op_id, 1), ()))
        f = iter(placeholders(8 + len(p.imms) + n0 + n1))
        (self.op_id, k0, k1, self.imms_dict, self.array, self.evaluate,
         whole0, whole1) = islice(f, 8)
        self.keys = (k0, k1)
        self.whole = (whole0, whole1)
        self.imms = {port: next(f) for port in p.imms}
        self.consumers = (tuple(islice(f, n0)), tuple(islice(f, n1)))
        self.consts = Consts()

    def shape(self) -> Shape:
        return Shape(("inst",), self.consts)

    def oid(self) -> str:
        return self.consts.named("oid", self.op_id)

    def key(self, port: int) -> str:
        return self.consts.named(("key", port), self.keys[port])

    def operand(self, port: int) -> str:
        """Statically resolved ``entry[port] if port in entry else
        imms.get(port)`` (a port is immediate xor token, and every
        token port is deposited before a firing; a port that is
        neither -- e.g. an inputless term decider -- reads as None,
        exactly like the interpreter's ``imms.get``)."""
        if port in self.imms:
            return self.consts.named(("imm", port), self.imms[port])
        if port in self.token_ports:
            return f"entry[{port}]"
        return "None"

    def cons(self, port: int):
        return self.consumers[port]

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
            whole = self.consts.named(("cons", port), self.whole[port])
            b(f"for d in {whole}:")
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


def _emit(bplan: BlockPlan, p: OpPlan) -> Recipe:
    """The recipe of ``p``'s structural key, emitted over its
    stand-in."""
    fn = _Fn(bplan, p)
    op = fn.op
    n0 = len(fn.cons(0))
    n1 = len(fn.cons(1))
    n_t = len(fn.token_ports)
    d0 = n0 - n_t
    d1 = n1 - n_t

    def done(*variants) -> Recipe:
        return Recipe.emitted(variants, fn.consts)

    def add(b: Shape, *refs: str) -> Recipe:
        return done(*one_rule(fn.finish(b, *refs)))

    if fn.term:
        b = fn.shape()
        fn.take(b)
        if n_t:
            b(f"livebox[0] -= {n_t}")
        b(f"inst.fired.add({fn.oid()})")
        b("inst.term_fired = True")
        b(f"inst.term_decision = {fn.operand(0)}")
        return add(b)

    if op is Op.SPAWN or not (OP_INFO[op].pure or op in (
            Op.MERGE, Op.STEER, Op.LOAD, Op.STORE)):
        what = ("spawn is a transfer point, not an instruction"
                if op is Op.SPAWN else "cannot execute " + op.value)
        b = fn.shape()
        b(f"raise SimulationError({what!r})")
        return done(*one_rule(b.variant()))

    if op is Op.MERGE:
        b = fn.shape()
        fn.take(b)
        b("livebox[0] -= len(entry)")
        b(f"inst.fired.add({fn.oid()})")
        b("chosen = 1 if entry[0] else 2")
        if fn.imms:
            im = fn.consts.named("imms", fn.imms_dict)
            b(f"value = entry[chosen] if chosen in entry else {im}[chosen]")
        else:
            b("value = entry[chosen]")
        fn.out(b, 0, "value", n0)
        return add(b)

    if op is Op.STEER:
        b = fn.shape()
        fn.take(b)
        b(f"inst.fired.add({fn.oid()})")
        b(f"decider = {fn.operand(0)}")
        b(f"value = {fn.operand(1)}")
        b("if decider:" if fn.sense else "if not decider:")
        b.indent()
        fn.out(b, 0, "value", n0)
        b.dedent()
        fn.out(b, 1, "0", d1)
        return add(b)

    if op is Op.LOAD:
        arr = fn.consts.named("array", fn.array)
        # Latency is a run parameter: emit both timing rules, the
        # binder picks the one the run's timing selects.
        fast = fn.shape()
        fn.take(fast)
        fast(f"inst.fired.add({fn.oid()})")
        fast(f"addr = {fn.operand(0)}")
        fast(f"value = mem_load({arr}, addr)")
        fn.out(fast, 0, "value", d0)
        fn.out(fast, 1, "0", n1)
        timed = fn.shape()
        fn.take(timed)
        if n_t:
            timed(f"livebox[0] -= {n_t}")
        timed(f"addr = {fn.operand(0)}")
        timed(f"value = mem_load({arr}, addr)")
        timed(f"delay = access_load({arr}, addr)")
        timed("if delay <= 1:")
        timed.indent()
        timed(f"publish(inst, {fn.key(0)}, value)")
        timed(f"publish(inst, {fn.key(1)}, 0)")
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
        timed(f"bucket.append((inst, {fn.key(0)}, value))")
        timed(f"bucket.append((inst, {fn.key(1)}, 0))")
        timed.dedent()
        return done(fn.finish(fast, "mem_load"),
                    fn.finish(timed, "mem_load", "publish", "metrics",
                              "delayed", "access_load", "miss_latency",
                              "miss_until"))

    if op is Op.STORE:
        arr = fn.consts.named("array", fn.array)

        def store(b: Shape) -> None:
            fn.take(b)
            b(f"inst.fired.add({fn.oid()})")
            b(f"addr = {fn.operand(0)}")
            b(f"value = {fn.operand(1)}")
            b(f"mem_store({arr}, addr, value)")

        fast = fn.shape()
        store(fast)
        fn.out(fast, 0, "0", d0)
        # A timed store probes the timing object too (the cache model
        # write-allocates) but stays single-cycle.
        timed = fn.shape()
        store(timed)
        timed(f"access_store({arr}, addr)")
        fn.out(timed, 0, "0", d0)
        return done(fn.finish(fast, "mem_store"),
                    fn.finish(timed, "mem_store", "access_store"))

    # Pure arithmetic/logic: statically resolving the ports covers
    # every operand layout.
    n_in = fn.n_in
    b = fn.shape()
    # The common layouts pop without a default, so a spurious firing
    # raises KeyError (no real firing lacks its entry).
    fn.take(b, pop_default=not ((not fn.imms and n_in in (1, 2))
                                or (n_in == 2 and len(fn.imms) == 1)))
    args = [fn.operand(port) for port in range(n_in)]
    expr = pure_expr(op, args)
    if expr is None:
        ev = fn.consts.named("ev", fn.evaluate)
        expr = f"{ev}({', '.join(args)})"
    b(f"inst.fired.add({fn.oid()})")
    b(f"value = {expr}")
    fn.out(b, 0, "value", d0)
    return add(b)


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
        "miss_until": E._miss_until,
    })
    fns = bind_rows(module, env, E._rule)
    tables = {}
    start = 0
    for name, n_ops in module.table.layout:
        tables[name] = fns[start:start + n_ops]
        start += n_ops
    return tables


def generate(plans: Dict[str, BlockPlan]) -> KernelTable:
    """The kernel table of a program's block ``plans``: every block's
    ops in plan order; ``layout`` lists (block name, op count)."""
    table = KernelTable("window", bind,
                        [(name, len(plan.ops))
                         for name, plan in plans.items()],
                        labels=partial(_labels, plans))
    memo = _MEMO
    append = table.rows.append
    for bplan in plans.values():
        for p in bplan.ops:
            key, fields = _key_fields(bplan, p)
            recipe = memo.get(key)
            if recipe is None:
                recipe = memo[key] = _emit(bplan, p)
            append((recipe, fields))
    return table


def _labels(plans: Dict[str, BlockPlan]) -> List[str]:
    return [f"{bplan.name} op {p.op_id}: "
            f"{'term' if p.op_id == bplan.term_id else p.op.value}"
            for bplan in plans.values() for p in bplan.ops]
