"""Execution engine for the data-parallel (vector) machine model.

Execution is depth-first like a von Neumann machine, except that
vectorizable innermost loops (see :mod:`repro.sim.vector.analysis`)
run their iterations in lock-step lanes: each body instruction issues
across up to ``lanes`` iterations per cycle, so a T-iteration loop of
B instructions costs ``ceil(T / lanes) * B`` cycles (plus a
logarithmic reduction-tree step per reduction carry), instead of
``T * B``.

Semantics are exact (the engine interprets every iteration); only the
*timing and live-state accounting* are idealized, in keeping with the
paper's single-cycle methodology. Live state during a vector section
is ``active_lanes x live-values-per-iteration`` -- the vector register
footprint -- which is how data-parallel machines "choose as much
parallelism as they want" while bounding state (paper Sec. II-C).

Hot-path layout (see docs/ARCHITECTURE.md, "Simulator performance"):
each block is compiled once per workload (:mod:`repro.sim.vector.plan`)
so every value lives in a dense slot of a flat environment list, and a block
activation is a ``list(template)`` copy plus an argument splice
followed by one call per block.  Each block has a *ticked* function
(scalar execution, one metrics sample per op) and, if it is a
vectorizable loop, a *silent* one (vector-body evaluation, timed in
lock-step batches by the caller).  By default they are generated
kernels (:mod:`repro.sim.codegen`); without them, and in every
profiled run, both are the one plain item walk
:meth:`DataParallelEngine._run_items`, the reference semantics the
kernels are diffed against.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.codegen.core import NO_HANDOFF
from repro.sim.engine import MAX_CYCLES, Engine
from repro.sim.memory import Memory
from repro.sim.vector.analysis import VectorInfo
from repro.sim.vector.plan import (
    VecBlockPlan,
    VecIf,
    VecLowering,
    VecOp,
    lower_vector,
)

# Opcodes the interpreter tests, bound once: looking a member up on
# the enum class costs about ten times a global load.
_LOAD, _STORE, _STEER, _MERGE, _SPAWN = (
    Op.LOAD, Op.STORE, Op.STEER, Op.MERGE, Op.SPAWN)


class DataParallelEngine(Engine):
    """Vector/SIMT-style executor over the context IR.

    ``lowering`` is the program's plans and loop classification
    (:func:`~repro.sim.vector.plan.lower_vector`), shared read-only by
    every run of a workload and by its kernels; an engine built
    without one lowers the program itself.

    Only scalar (ticked) loads and stores go through the timing
    object: scalar loads stall the pipeline for their latency, and
    vector-body accesses bypass it entirely -- classic vector machines
    stream memory through pipelined ports.
    """

    machine_name = "datapar"
    _TABLES = ("_ticked", "_silent")

    def __init__(self, program: ContextProgram, memory: Memory,
                 lanes: int = 128, sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = MAX_CYCLES,
                 profile: bool = False,
                 kernels=None,
                 cache=None,
                 lowering: Optional[VecLowering] = None):
        if lanes < 1:
            raise SimulationError("lanes must be >= 1")
        super().__init__(memory, lanes, sample_traces, load_latency,
                         max_cycles, profile, cache)
        self.program = program
        self.lanes = lanes
        if lowering is None:
            lowering = lower_vector(program)
        self.plans: Dict[str, VecBlockPlan] = lowering.plans
        self.vector_info: Dict[str, Optional[VectorInfo]] = \
            lowering.vector_info
        self._n_params = self.plans[program.entry].n_params
        #: Idealized scalar working set (a handful of registers), like
        #: the vN model's measured live state.
        self._scalar_live = 12
        #: How many loops ran vectorized vs scalar (reported).
        self.vectorized_trips = 0
        self.scalar_trips = 0

        #: block name -> its ticked function: scalar execution, one
        #: metrics sample per op.
        self._ticked: Dict[str, Callable] = {}
        #: block name -> its silent function: vector bodies only.
        self._silent: Dict[str, Callable] = {}
        # Generated kernels fill both tables with whole-block functions;
        # else every block walks its items. Profiled runs always walk
        # them: with no cycle loop to book the stall taxonomy, only the
        # item walk books each op's cycle, and a generated profiled
        # variant saved less than the host benchmark's run-to-run
        # spread (docs/ARCHITECTURE.md section 9). A block reads its
        # function again at every iteration while a hand-off is
        # pending (:meth:`_exec_block`).
        self._take_kernels(
            None if profile else kernels,
            sum(len(block.ops) for block in program.blocks.values()))

    def _interpret(self) -> None:
        run_items = self._run_items
        for name, plan in self.plans.items():
            self._ticked[name] = partial(run_items, plan.items, name)
            if self.vector_info.get(name) is not None:
                self._silent[name] = partial(run_items, plan.items, None)

    def _bind(self, kernels) -> None:
        ticked, silent = kernels.bind(self)
        self._ticked.update(ticked)
        self._silent.update(silent)

    # ------------------------------------------------------------------
    def _execute(self, args: List[object]) -> tuple:
        results = self._exec_block(self.plans[self.program.entry],
                                   list(args))
        extra = {
            "lanes": self.lanes,
            "vectorized_trips": self.vectorized_trips,
            "scalar_trips": self.scalar_trips,
            "vectorizable_loops": sorted(
                name for name, info in self.vector_info.items()
                if info is not None
            ),
        }
        return True, tuple(results), extra

    # ------------------------------------------------------------------
    # Sequential (scalar) execution with per-op cycle accounting
    # ------------------------------------------------------------------
    def _tick(self, fired: int, live: int) -> None:
        self.metrics.sample(fired, live)
        if self.metrics.cycles > self.max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )

    def _stall_scalar_load(self, n_cycles: int, live: int,
                           miss: bool) -> None:
        """Fast-forward ``n_cycles`` of scalar-load latency in O(1).

        Exactly equivalent to ``n_cycles`` calls of ``_tick(0, live)``,
        including where the ``max_cycles`` overflow raises mid-stall:
        after sampling cycle ``max_cycles + 1``, which a profiled run
        leaves unbooked, as a profiled tick does.

        ``miss`` says a last-level miss caused the stall. The vector
        machine stalls synchronously, so the whole stall belongs to
        the one probe that caused it: a miss moves the miss box to the
        stall's end, and the cache-mode profiler books the stall all
        miss or all hit.
        """
        if n_cycles <= 0:
            return
        metrics = self.metrics
        start = metrics.cycles
        stop = min(start + n_cycles, self.max_cycles + 1)
        metrics.sample_idle(live, stop - start)
        overflow = stop > self.max_cycles
        prof = self._profiler
        if prof is not None:
            if miss:
                self._miss_until[0] = stop
            prof.memory_stall(
                start, stop - 1 if overflow else stop,
                self._miss_until if self._cache is not None else None)
        if overflow:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )

    def _exec_block(self, plan: VecBlockPlan,
                    args: List[object]) -> List[object]:
        name = plan.name
        ticked = self._ticked
        step = ticked[name]
        template = plan.template
        n_params = plan.n_params
        decider = plan.term_decider
        result_slots = plan.term_results
        next_slots = plan.term_next
        # While a hand-off is pending, here or in a callee, each
        # iteration reads the block's function again.
        pending = self._handoff != NO_HANDOFF
        while True:
            if pending:
                if self.metrics.instructions >= self._handoff:
                    self._hand_off()
                step = ticked[name]
                pending = self._handoff != NO_HANDOFF
            env = list(template)
            env[:n_params] = args
            step(env)
            if decider is None or not env[decider]:
                return [env[s] for s in result_slots]
            args = [env[s] for s in next_slots]

    # ------------------------------------------------------------------
    # The interpreter: one plain walk over a block's region items
    # ------------------------------------------------------------------
    def _run_items(self, items: Tuple, block: Optional[str],
                   env: List[object]) -> None:
        """Execute region ``items`` over the slot environment ``env``.

        Ticked when ``block`` names the block: each op samples one
        cycle (booked to ``op@block#id`` when profiling) and scalar
        loads stall for their latency. Silent when ``block`` is
        ``None``: a vector body, which the caller times in lock-step
        batches and whose memory bypasses the cache model.
        """
        prof = self._profiler
        live = self._scalar_live
        memory = self.memory
        for item in items:
            if isinstance(item, VecIf):
                self._run_items(item.then_items if env[item.decider_slot]
                                else item.else_items, block, env)
                continue
            op = item.op
            ins = item.in_slots
            outs = item.out_slots
            if op is _SPAWN:
                if block is None:
                    # classify_loop rejects loops containing transfer
                    # points, so a spawn never reaches a vector body.
                    raise SimulationError(
                        "cannot execute spawn in a vector body")
                self._spawn(item, env)
                continue
            info = None  # the OP_INFO of a pure op
            if not (op is _LOAD or op is _STORE or op is _STEER
                    or op is _MERGE):
                info = OP_INFO[op]
                if not info.pure:
                    where = "" if block is not None else " in a vector body"
                    raise SimulationError(
                        f"cannot execute {op.value}{where}")
            if block is not None:
                self._tick(1, live)
                if prof is not None:
                    prof.noted.append(f"{op.value}@{block}#{item.op_id}")
                    prof.end_cycle("fired")
            if info is not None:
                env[outs[0]] = info.evaluate(*[env[s] for s in ins])
            elif op is _LOAD:
                array = item.attrs["array"]
                index = env[ins[0]]
                env[outs[0]] = memory.load(array, index)
                env[outs[1]] = 0
                if block is None:
                    continue
                timing = self._timing
                delay = timing.access_load(array, index)
                if delay > 1:
                    self._stall_scalar_load(delay - 1, live,
                                            delay >= timing.miss_latency)
            elif op is _STORE:
                array = item.attrs["array"]
                memory.store(array, env[ins[0]], env[ins[1]])
                if block is not None:
                    self._timing.access_store(array, env[ins[0]])
                env[outs[0]] = 0
            elif op is _STEER:
                # Depth-first execution resolves control through the
                # region tree: STEER passes its value operand through.
                env[outs[0]] = env[ins[1]]
                env[outs[1]] = 0
            else:  # MERGE
                env[outs[0]] = env[ins[1]] if env[ins[0]] else env[ins[2]]

    def _spawn(self, item: VecOp, env: List[object]) -> None:
        """Run a callee to completion and bind its results: a
        vectorizable loop in lanes, anything else depth-first."""
        plan = self.plans[item.attrs["callee"]]
        args = [env[s] for s in item.in_slots]
        info = (self.vector_info.get(plan.name)
                if plan.kind is BlockKind.LOOP else None)
        if info is not None:
            results = self._exec_vector_loop(plan, info, args)
        else:
            if plan.kind is BlockKind.LOOP:
                self.scalar_trips += 1
            results = self._exec_block(plan, args)
        for slot, value in zip(item.out_slots, results):
            env[slot] = value

    # ------------------------------------------------------------------
    # Vectorized loop execution
    # ------------------------------------------------------------------
    def _exec_vector_loop(self, plan: VecBlockPlan, info: VectorInfo,
                          args: List[object]) -> List[object]:
        """Run all iterations semantically; account cycles in lock-step
        batches of ``lanes`` iterations."""
        self.vectorized_trips += 1
        if self.metrics.instructions >= self._handoff:
            self._hand_off()
        step = self._silent[plan.name]
        template = plan.template
        n_params = plan.n_params
        decider = plan.term_decider
        next_slots = plan.term_next
        iterations = 0
        cur = list(args)
        # Execute exactly (semantics identical to the scalar loop).
        while True:
            env = list(template)
            env[:n_params] = cur
            step(env)
            iterations += 1
            if env[decider]:
                cur = [env[s] for s in next_slots]
                continue
            results = [env[s] for s in plan.term_results]
            break

        # Timing model: each batch of `lanes` iterations issues the
        # body one instruction per cycle across all active lanes.  A
        # profiler attributes the body to one aggregate static node per
        # loop (lanes co-issue the same op); a batch with iterations
        # left over was limited by the lane count.
        prof = self._profiler
        tick = self._tick
        lanes = self.lanes
        body = max(info.body_ops, 1)
        remaining = iterations
        key = f"<vector-body>@{plan.name}"
        while remaining > 0:
            active = min(remaining, lanes)
            live = active * max(2, body // 2)
            reason = "width_limited" if remaining > lanes else "fired"
            for _ in range(body):
                tick(active, live)
                if prof is not None:
                    prof.noted.append(key)
                    prof.end_cycle(reason, active)
            remaining -= active
        # Reduction tree across lanes per reduction carry.
        n_reductions = sum(1 for r in info.roles
                           if r.kind == "reduction")
        if n_reductions and iterations > 1:
            width = min(iterations, lanes)
            depth = max(1, math.ceil(math.log2(width)))
            fired = width // 2 or 1
            key = f"<reduce>@{plan.name}"
            for _ in range(depth * n_reductions):
                tick(fired, width)
                if prof is not None:
                    prof.noted.append(key)
                    prof.end_cycle("fired", fired)
        return results
