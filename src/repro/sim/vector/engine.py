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
the same per-op dispatch-closure design as the tagged/queued/window
engines, adapted to depth-first execution.  Each block is compiled
once (:mod:`repro.sim.vector.plan`) so every value lives in a dense
slot of a flat environment list; at engine construction each op gets
a firing closure with its opcode dispatch, operand slots, immediates
and memory accessors bound once.  A block activation is a
``list(template)`` copy plus an argument splice followed by a plain
loop over closures -- no per-op lambda allocation, no ``OP_INFO``
probes, no tuple-keyed dict lookups.  Each block carries two closure
tables: *ticked* steps (scalar execution, one metrics sample per op)
and *silent* steps (vector-body evaluation, timing accounted in
lock-step batches by the caller).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.latency import load_delay
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler
from repro.sim.watchdog import watchdog_horizon
from repro.sim.vector.analysis import VectorInfo, classify_loop
from repro.sim.vector.plan import (
    VecBlockPlan,
    VecIf,
    VecOp,
    build_vec_plans,
)


class DataParallelEngine:
    """Vector/SIMT-style executor over the context IR.

    The engine binds ``memory`` and the compiled plans into per-op
    closures at construction; neither may be swapped afterwards.
    """

    def __init__(self, program: ContextProgram, memory: Memory,
                 lanes: int = 128, sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = 500_000_000,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        if lanes < 1:
            raise SimulationError("lanes must be >= 1")
        self.program = program
        self.memory = memory
        self.lanes = lanes
        #: Optional stateful cache model (repro.sim.cache.CacheModel).
        #: Scalar (ticked) loads take their delay from cache probes
        #: and ticked stores probe it too; vector-body accesses bypass
        #: the model entirely -- classic vector machines stream memory
        #: through pipelined ports, which is the same idealization the
        #: silent steps already make for latency.
        self._cache = cache
        #: Scalar loads stall the pipeline for their latency; vector
        #: sections assume pipelined (overlapped) memory, as classic
        #: vector machines do.
        self.load_latency = load_latency
        self.max_cycles = max_cycles
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        # Must be set before the closure compilation below: ticked
        # step closures bind either the plain or the profiled tick at
        # construction, and a profiled run binds the profiled kernel
        # variant, so scalar steps carry no profiling branches.
        self._profiler = EngineProfiler() if profile else None
        self.vector_info: Dict[str, Optional[VectorInfo]] = {
            name: classify_loop(block)
            for name, block in program.blocks.items()
        }
        #: Idealized scalar working set (a handful of registers), like
        #: the vN model's measured live state.
        self._scalar_live = 12
        #: How many loops ran vectorized vs scalar (reported).
        self.vectorized_trips = 0
        self.scalar_trips = 0

        self.plans: Dict[str, VecBlockPlan] = build_vec_plans(program)
        #: block name -> flat tuple of ticked step closures (scalar
        #: execution: one metrics sample per op).
        self._ticked: Dict[str, Tuple[Callable, ...]] = {}
        #: block name -> silent step closures (vector bodies only).
        self._silent: Dict[str, Tuple[Callable, ...]] = {}
        # Generated kernels replace both tables with whole-block
        # functions (profiled ones when profiling).
        if kernels is not None:
            if self._profiler is not None:
                kernels = kernels.profiled()
            self._ticked, self._silent = kernels.bind(self)
        else:
            for name, plan in self.plans.items():
                self._ticked[name] = self._compile_items(
                    plan.items, ticked=True, block=name)
                if self.vector_info.get(name) is not None:
                    self._silent[name] = self._compile_items(
                        plan.items, ticked=False, block=name)

    # ------------------------------------------------------------------
    def run(self, args: List[object]) -> ExecutionResult:
        entry = self.plans[self.program.entry]
        if len(args) != entry.n_params:
            raise SimulationError(
                f"entry takes {entry.n_params} args, got {len(args)}"
            )
        results = self._exec_block(entry, list(args))
        extra = {
            "lanes": self.lanes,
            "vectorized_trips": self.vectorized_trips,
            "scalar_trips": self.scalar_trips,
            "vectorizable_loops": sorted(
                name for name, info in self.vector_info.items()
                if info is not None
            ),
        }
        if self._profiler is not None:
            extra["profile"] = self._profiler.finish(
                "datapar", self.metrics.cycles,
                self.metrics.instructions,
            )
        return self.metrics.result("datapar", True, tuple(results),
                                   extra)

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
                           miss: bool = False) -> None:
        """Fast-forward ``n_cycles`` of scalar-load latency in O(1).

        Exactly equivalent to ``n_cycles`` calls of ``_tick(0, live)``
        (the old per-cycle spin), including where the ``max_cycles``
        overflow raises mid-stall: the spin raised after sampling the
        ``max_cycles + 1``-th cycle, with that final cycle sampled but
        not yet attributed by the profiled tick.

        ``miss`` classifies the stall for the cache-mode profiler
        split (the vector machine stalls synchronously, so the whole
        window belongs to the one probe that caused it).
        """
        if n_cycles <= 0:
            return
        if n_cycles >= watchdog_horizon(self.max_cycles):
            # The data-parallel machine executes depth-first, so it
            # cannot quiesce with live work the way the token machines
            # can; the one wedge shape left is a nonsensical stall
            # request (corrupted due-cycle bookkeeping). Real stall
            # lengths are bounded by the configured worst-case load
            # latency, orders of magnitude under the horizon.
            raise DeadlockError(
                f"datapar machine stalled (progress watchdog: one "
                f"load stall of {n_cycles} cycles exceeds the "
                f"{watchdog_horizon(self.max_cycles)}-cycle horizon)"
            )
        metrics = self.metrics
        prof = self._profiler
        allowed = self.max_cycles + 1 - metrics.cycles
        if n_cycles >= allowed:
            metrics.sample_idle(live, allowed)
            if prof is not None:
                if self._cache is None:
                    prof.idle("memory_stall", allowed - 1)
                else:
                    prof.idle_memory(allowed - 1,
                                     allowed - 1 if miss else 0)
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        metrics.sample_idle(live, n_cycles)
        if prof is not None:
            if self._cache is None:
                prof.idle("memory_stall", n_cycles)
            else:
                prof.idle_memory(n_cycles, n_cycles if miss else 0)

    def _exec_block(self, plan: VecBlockPlan,
                    args: List[object]) -> List[object]:
        steps = self._ticked[plan.name]
        template = plan.template
        n_params = plan.n_params
        decider = plan.term_decider
        result_slots = plan.term_results
        next_slots = plan.term_next
        while True:
            env = list(template)
            env[:n_params] = args
            for step in steps:
                step(env)
            if decider is None or not env[decider]:
                return [env[s] for s in result_slots]
            args = [env[s] for s in next_slots]

    # ------------------------------------------------------------------
    # Per-op step closures
    # ------------------------------------------------------------------
    def _compile_items(self, items: Tuple, ticked: bool, block: str
                       ) -> Tuple[Callable, ...]:
        return tuple(self._make_step(item, ticked, block)
                     for item in items)

    def _op_tick(self, op: Op, op_id: int, block: str) -> Callable:
        """The metrics tick a ticked step closure binds: the plain
        recorder, or a per-op profiled wrapper (fired samples are
        ``fired`` cycles of this static op; zero-fired samples only
        occur inside a load's latency spin, hence ``memory_stall``)."""
        if self._profiler is None:
            return self._tick
        prof = self._profiler
        base = self._tick
        key = f"{op.value}@{block}#{op_id}"

        def tick_profiled(fired, live):
            base(fired, live)
            if fired:
                prof.fire(key)
                prof.end_cycle("fired")
            else:
                prof.end_cycle("memory_stall")
        return tick_profiled

    def _make_step(self, item, ticked: bool, block: str) -> Callable:
        if isinstance(item, VecIf):
            decider = item.decider_slot
            then_steps = self._compile_items(item.then_items, ticked,
                                             block)
            else_steps = self._compile_items(item.else_items, ticked,
                                             block)

            def step_if(env):
                for step in (then_steps if env[decider]
                             else else_steps):
                    step(env)
            return step_if

        assert isinstance(item, VecOp)
        op = item.op
        ins = item.in_slots
        outs = item.out_slots

        if op is Op.SPAWN:
            return self._make_spawn_step(item, ticked)

        tick = self._op_tick(op, item.op_id, block) if ticked \
            else self._tick
        live = self._scalar_live

        if op is Op.LOAD:
            array = item.attrs["array"]
            mem_load = self.memory.load
            a0 = ins[0]
            o0, o1 = outs[0], outs[1]
            if ticked:
                latency = self.load_latency
                if self._cache is not None:
                    cache_load = self._cache.access_load
                    miss_latency = self._cache.miss_latency
                    stall = self._stall_scalar_load

                    def step_load_cached(env):
                        tick(1, live)
                        index = env[a0]
                        env[o0] = mem_load(array, index)
                        env[o1] = 0
                        delay = cache_load(array, index)
                        if delay > 1:
                            stall(delay - 1, live,
                                  delay >= miss_latency)
                    return step_load_cached

                if latency <= 1:
                    def step_load_fast(env):
                        tick(1, live)
                        env[o0] = mem_load(array, env[a0])
                        env[o1] = 0
                    return step_load_fast

                stall = self._stall_scalar_load

                def step_load(env):
                    tick(1, live)
                    index = env[a0]
                    env[o0] = mem_load(array, index)
                    env[o1] = 0
                    delay = load_delay(latency, array, index)
                    if delay > 1:
                        stall(delay - 1, live)
                return step_load

            def step_load_silent(env):
                env[o0] = mem_load(array, env[a0])
                env[o1] = 0
            return step_load_silent

        if op is Op.STORE:
            array = item.attrs["array"]
            mem_store = self.memory.store
            a0, a1 = ins[0], ins[1]
            o0 = outs[0]
            if ticked:
                if self._cache is not None:
                    cache_store = self._cache.access_store

                    def step_store_cached(env):
                        tick(1, live)
                        mem_store(array, env[a0], env[a1])
                        cache_store(array, env[a0])
                        env[o0] = 0
                    return step_store_cached

                def step_store(env):
                    tick(1, live)
                    mem_store(array, env[a0], env[a1])
                    env[o0] = 0
                return step_store

            def step_store_silent(env):
                mem_store(array, env[a0], env[a1])
                env[o0] = 0
            return step_store_silent

        if op is Op.STEER:
            # Depth-first execution resolves control through the region
            # tree, so STEER is a pass-through of its value operand.
            a1 = ins[1]
            o0, o1 = outs[0], outs[1]
            if ticked:
                def step_steer(env):
                    tick(1, live)
                    env[o0] = env[a1]
                    env[o1] = 0
                return step_steer

            def step_steer_silent(env):
                env[o0] = env[a1]
                env[o1] = 0
            return step_steer_silent

        if op is Op.MERGE:
            a0, a1, a2 = ins[0], ins[1], ins[2]
            o0 = outs[0]
            if ticked:
                def step_merge(env):
                    tick(1, live)
                    env[o0] = env[a1] if env[a0] else env[a2]
                return step_merge

            def step_merge_silent(env):
                env[o0] = env[a1] if env[a0] else env[a2]
            return step_merge_silent

        info = OP_INFO[op]
        if not info.pure:
            op_name = op.value
            where = "" if ticked else " in a vector body"

            def step_illegal(env):
                raise SimulationError(
                    f"cannot execute {op_name}{where}")
            return step_illegal

        # Pure arithmetic/logic: specialize the common arities.
        ev = info.evaluate
        o0 = outs[0]
        if len(ins) == 2:
            a0, a1 = ins[0], ins[1]
            if ticked:
                def step_pure2(env):
                    tick(1, live)
                    env[o0] = ev(env[a0], env[a1])
                return step_pure2

            def step_pure2_silent(env):
                env[o0] = ev(env[a0], env[a1])
            return step_pure2_silent
        if len(ins) == 1:
            a0 = ins[0]
            if ticked:
                def step_pure1(env):
                    tick(1, live)
                    env[o0] = ev(env[a0])
                return step_pure1

            def step_pure1_silent(env):
                env[o0] = ev(env[a0])
            return step_pure1_silent

        if ticked:
            def step_pure(env):
                tick(1, live)
                env[o0] = ev(*[env[s] for s in ins])
            return step_pure

        def step_pure_silent(env):
            env[o0] = ev(*[env[s] for s in ins])
        return step_pure_silent

    def _make_spawn_step(self, item: VecOp, ticked: bool) -> Callable:
        if not ticked:
            # classify_loop rejects loops containing transfer points,
            # so a spawn can never appear in a vector body.
            def step_spawn_illegal(env):
                raise SimulationError(
                    "cannot execute spawn in a vector body")
            return step_spawn_illegal

        callee_name = item.attrs["callee"]
        callee_plan = self.plans[callee_name]
        callee_kind = self.program.block(callee_name).kind
        info = (self.vector_info.get(callee_name)
                if callee_kind is BlockKind.LOOP else None)
        ins = item.in_slots
        outs = item.out_slots

        if info is not None:
            exec_vector = self._exec_vector_loop

            def step_spawn_vector(env):
                results = exec_vector(callee_plan, info,
                                      [env[s] for s in ins])
                for slot, value in zip(outs, results):
                    env[slot] = value
            return step_spawn_vector

        exec_block = self._exec_block
        count_trip = callee_kind is BlockKind.LOOP

        def step_spawn(env):
            if count_trip:
                self.scalar_trips += 1
            results = exec_block(callee_plan, [env[s] for s in ins])
            for slot, value in zip(outs, results):
                env[slot] = value
        return step_spawn

    # ------------------------------------------------------------------
    # Vectorized loop execution
    # ------------------------------------------------------------------
    def _exec_vector_loop(self, plan: VecBlockPlan, info: VectorInfo,
                          args: List[object]) -> List[object]:
        """Run all iterations semantically; account cycles in lock-step
        batches of ``lanes`` iterations."""
        self.vectorized_trips += 1
        steps = self._silent[plan.name]
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
            for step in steps:
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
                    prof.fire_n(key, active)
                    prof.end_cycle(reason)
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
                    prof.fire_n(key, fired)
                    prof.end_cycle("fired")
        return results
