"""AOT kernel generator for the data-parallel (vector) machine.

The interpreter walks each block as a tuple of per-op step closures
(:meth:`DataParallelEngine._make_step`).  The generated kernels
instead hold **one straight-line function per block** -- region
branches become real ``if`` statements and pure opcodes inline their
expression templates -- so a block activation is a single call instead
of a closure per op.  Operand slots and array names are constants
bound as default arguments, so blocks with the same op structure
share one shape.

:func:`bind` returns the ``(ticked, silent)`` table dicts the engine
stores as ``_ticked``/``_silent``; each block maps to a 1-tuple, which
keeps :meth:`DataParallelEngine._exec_block` and
:meth:`~DataParallelEngine._exec_vector_loop` unchanged.  Blocks
containing loads have a shape per timing rule (cache probe, idealized,
variable latency), selected by the engine at bind time;
variable-latency loads fast-forward their stall through the
``_stall_scalar_load`` O(1) path.  Spawned loops are classified
vector-vs-scalar at generation time (``classify_loop`` is a pure
function of the program).

Profiled runs never bind kernels (the profiler wraps the interpreter's
per-op ticks), so generated ticks are always the plain recorder.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.codegen.core import (
    Consts,
    KernelTable,
    Shape,
    bind_rows,
    memory_env,
    one_rule,
    pure_expr,
    timing_rule,
)
from repro.sim.vector.analysis import classify_loop
from repro.sim.vector.plan import VecIf, VecOp, build_vec_plans


class _Block:
    """One block's constants, shared by its timing variants: each
    (item, role) is named once, whichever variant names it first, and
    each env slot once (a block names a slot many times, and every
    parameter costs a copy per call)."""

    def __init__(self, program: ContextProgram, plans) -> None:
        self.program = program
        self.plans = plans
        self.consts = Consts()

    def const(self, item, role: object, value: object) -> str:
        return self.consts.named((id(item), role), value)

    def slot(self, slot: int) -> str:
        return f"env[{self.consts.named(('slot', slot), slot)}]"


def _emit_items(b: Shape, blk: _Block, items, mode: str,
                spawns: List[int]) -> None:
    """Emit the body for a tuple of region items.

    ``mode`` is ``ticked_fast`` (idealized loads), ``ticked_var``
    (variable-latency loads), ``ticked_cache`` (cache-probe loads and
    stores) or ``silent`` (vector body, no ticks; vector-body memory
    bypasses the cache model like the interpreter's silent steps).
    """
    ticked = mode != "silent"
    for item in items:
        if isinstance(item, VecIf):
            d = blk.slot(item.decider_slot)
            if item.then_items:
                b(f"if {d}:")
                b.indent()
                _emit_items(b, blk, item.then_items, mode, spawns)
                b.dedent()
                if item.else_items:
                    b("else:")
                    b.indent()
                    _emit_items(b, blk, item.else_items, mode, spawns)
                    b.dedent()
            elif item.else_items:
                b(f"if not {d}:")
                b.indent()
                _emit_items(b, blk, item.else_items, mode, spawns)
                b.dedent()
            continue

        assert isinstance(item, VecOp)
        op = item.op

        def ins(k: int) -> str:
            return blk.slot(item.in_slots[k])

        def outs(k: int) -> str:
            return blk.slot(item.out_slots[k])

        if op is Op.SPAWN:
            _emit_spawn(b, blk, item, ticked, spawns)
            continue

        if ticked:
            b.ref("tick")
            b.ref("live")

        if op is Op.LOAD:
            arr = blk.const(item, "array", item.attrs["array"])
            b.ref("mem_load")
            if mode in ("ticked_var", "ticked_cache"):
                b.ref("stall")
                b("tick(1, live)")
                b(f"index = {ins(0)}")
                b(f"{outs(0)} = mem_load({arr}, index)")
                b(f"{outs(1)} = 0")
                if mode == "ticked_var":
                    b.ref("latency")
                    b.ref("load_delay")
                    b(f"delay = load_delay(latency, {arr}, index)")
                    stall = "stall(delay - 1, live)"
                else:
                    b.ref("cache_load")
                    b.ref("miss_latency")
                    b(f"delay = cache_load({arr}, index)")
                    stall = "stall(delay - 1, live, delay >= miss_latency)"
                b("if delay > 1:")
                b.indent()
                b(stall)
                b.dedent()
            else:
                if ticked:
                    b("tick(1, live)")
                b(f"{outs(0)} = mem_load({arr}, {ins(0)})")
                b(f"{outs(1)} = 0")
            continue

        if op is Op.STORE:
            arr = blk.const(item, "array", item.attrs["array"])
            b.ref("mem_store")
            if ticked:
                b("tick(1, live)")
            b(f"mem_store({arr}, {ins(0)}, {ins(1)})")
            if mode == "ticked_cache":
                b.ref("cache_store")
                b(f"cache_store({arr}, {ins(0)})")
            b(f"{outs(0)} = 0")
            continue

        if op is Op.STEER:
            # Pass-through of the value operand (control is resolved
            # by the region tree).
            if ticked:
                b("tick(1, live)")
            b(f"{outs(0)} = {ins(1)}")
            b(f"{outs(1)} = 0")
            continue

        if op is Op.MERGE:
            if ticked:
                b("tick(1, live)")
            b(f"{outs(0)} = ({ins(1)} if {ins(0)} else {ins(2)})")
            continue

        info = OP_INFO[op]
        if not info.pure:
            where = "" if ticked else " in a vector body"
            b("raise SimulationError(")
            b(f"    {'cannot execute ' + op.value + where!r})")
            continue

        args = [ins(k) for k in range(len(item.in_slots))]
        expr = pure_expr(op, args)
        if expr is None:
            ev = blk.const(item, "ev", info.evaluate)
            expr = f"{ev}({', '.join(args)})"
        if ticked:
            b("tick(1, live)")
        b(f"{outs(0)} = {expr}")


def _emit_spawn(b: Shape, blk: _Block, item: VecOp, ticked: bool,
                spawns: List[int]) -> None:
    if not ticked:
        # classify_loop rejects loops containing transfer points.
        b("raise SimulationError(")
        b("    'cannot execute spawn in a vector body')")
        return
    program = blk.program
    callee = item.attrs["callee"]
    callee_kind = program.block(callee).kind
    is_vec = (callee_kind is BlockKind.LOOP
              and classify_loop(program.block(callee)) is not None)
    j = spawns[0]
    spawns[0] += 1
    cp = b.ref(f"cp{j}", ("plans", callee))
    arg_list = ", ".join(blk.slot(s) for s in item.in_slots)
    n_res = len(blk.plans[callee].term_results)
    if is_vec:
        vi = b.ref(f"vi{j}", ("vector_info", callee))
        b.ref("exec_vector")
        b(f"r = exec_vector({cp}, {vi}, [{arg_list}])")
    else:
        if callee_kind is BlockKind.LOOP:
            b.ref("E")
            b("E.scalar_trips += 1")
        b.ref("exec_block")
        b(f"r = exec_block({cp}, [{arg_list}])")
    for k, slot in enumerate(item.out_slots[:n_res]):
        b(f"{blk.slot(slot)} = r[{k}]")


def _has_op(items, op: Op) -> bool:
    for item in items:
        if isinstance(item, VecIf):
            if _has_op(item.then_items, op) or _has_op(item.else_items, op):
                return True
        elif item.op is op:
            return True
    return False


def _block_fn(blk: _Block, plan, mode: str) -> Shape:
    b = Shape(("env",), blk.consts)
    _emit_items(b, blk, plan.items, mode, [0])
    return b


def bind(module, E) -> Tuple[dict, dict]:
    """The ``(ticked, silent)`` block tables for a live engine."""
    cache = E._cache
    env = memory_env(E)
    env.update({
        "tick": E._tick,
        "stall": E._stall_scalar_load,
        "live": E._scalar_live,
        "miss_latency": cache.miss_latency if cache is not None else 0,
        "plans": E.plans,
        "vector_info": E.vector_info,
        "exec_block": E._exec_block,
        "exec_vector": E._exec_vector_loop,
        "E": E,
    })
    fns = iter(bind_rows(module.rows, env, timing_rule(E)))
    ticked: Dict[str, tuple] = {}
    silent: Dict[str, tuple] = {}
    for name, has_silent in module.layout:
        ticked[name] = (next(fns),)
        if has_silent:
            silent[name] = (next(fns),)
    return ticked, silent


def generate(program: ContextProgram) -> KernelTable:
    """The kernel table of ``program``: a ticked row per block, then a
    silent row for vectorizable loops; ``layout`` lists (block name,
    has a silent row)."""
    plans = build_vec_plans(program)
    table = KernelTable("vector", bind, layout=[])
    for name, plan in plans.items():
        blk = _Block(program, plans)
        label = f"block {name!r}"
        has_ld = _has_op(plan.items, Op.LOAD)
        if has_ld or _has_op(plan.items, Op.STORE):
            # Every variant is emitted before any is closed: a
            # variant's parameters are all of the block's constants.
            cached = _block_fn(blk, plan, "ticked_cache")
            fast = _block_fn(blk, plan, "ticked_fast")
            var = _block_fn(blk, plan, "ticked_var") if has_ld else fast
            variants = (cached.variant(), fast.variant(), var.variant())
        else:
            variants = one_rule(_block_fn(blk, plan,
                                          "ticked_fast").variant())
        table.add(variants, blk.consts, label)
        has_silent = classify_loop(program.block(name)) is not None
        if has_silent:
            silent = _block_fn(_Block(program, plans), plan, "silent")
            table.add(one_rule(silent.variant()), silent.consts,
                      label + " (vector body)")
        table.layout.append((name, has_silent))
    return table
