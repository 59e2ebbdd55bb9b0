"""Execution engine for flat ordered-dataflow graphs.

Firing rule: a node fires when the tokens it needs are at the heads of
its input FIFOs *and* every token it would emit has space in the
destination FIFO (all-or-nothing back pressure). Each static
instruction fires at most once per cycle -- FIFO ordering serializes
dynamic instances of the same instruction, which is exactly the
parallelism loss the paper attributes to ordered dataflow (Fig. 5d).

``mu`` loop-head gates carry the canonical three-state protocol:
pop the initial value, then for each loop decider pop-and-forward a
backedge value (true) or pop-and-discard it and re-arm for the next
activation (false).

Hot-path layout (see docs/ARCHITECTURE.md, "Simulator performance"):
firing goes through a per-node dispatch table of closures that bind
the node's input deques, immediates, and destination deques at
construction, so a firing attempt does no opcode dispatch and no
``fifos[nid][port]`` indexing; same-cycle token visibility is tracked
in an int-keyed counter map instead of ``(node, port)`` tuples.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.compiler.flatten import FlatGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.latency import load_delay
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler
from repro.sim.watchdog import watchdog_horizon

#: Mu gate states.
_MU_INIT = 0  # waiting for an initial value
_MU_LOOP = 1  # waiting for a decider (and possibly a backedge value)


class QueuedEngine:
    """Simulates one execution of a flat graph with FIFO channels.

    The engine binds ``memory`` and the graph tables into per-node
    closures at construction; neither may be swapped afterwards.
    """

    def __init__(self, graph: FlatGraph, memory: Memory,
                 queue_depth: int = 4, issue_width: int = 128,
                 sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = 200_000_000,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        if queue_depth < 1:
            raise SimulationError("queue depth must be >= 1")
        self.graph = graph
        self.memory = memory
        self.queue_depth = queue_depth
        self.issue_width = issue_width
        self.load_latency = load_latency
        self.max_cycles = max_cycles
        #: Optional stateful cache model (repro.sim.cache.CacheModel):
        #: load delays come from cache probes, stores probe it too.
        self._cache = cache
        #: First cycle index past the latest last-level miss (cache
        #: mode); bounds the profiled loop's hit/miss stall split.
        self._miss_until: List[int] = [0]
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        # run() selects the profiled cycle loop only when set, so the
        # default path has no per-cycle profiling branches.
        self._profiler = EngineProfiler() if profile else None

        n = len(graph.nodes)
        self._op = [nd.op for nd in graph.nodes]
        self._imms = [nd.imms for nd in graph.nodes]
        self._edges = [nd.out_edges for nd in graph.nodes]
        self._n_inputs = [nd.n_inputs for nd in graph.nodes]
        self._attrs = [nd.attrs for nd in graph.nodes]
        # fifos[node][port] -> deque (None for immediate ports)
        self._fifos: List[List[Optional[Deque]]] = []
        for nd in graph.nodes:
            self._fifos.append([
                None if p in nd.imms else deque()
                for p in range(nd.n_inputs)
            ])
        # Producers into each (node, port): who to re-check on pop.
        self._producers: List[Set[int]] = [set() for _ in range(n)]
        for nd in graph.nodes:
            for port_edges in nd.out_edges:
                for dest_id, _ in port_edges:
                    self._producers[dest_id].add(nd.node_id)
        self._mu_state: Dict[int, int] = {
            nd.node_id: _MU_INIT for nd in graph.nodes if nd.op is Op.MU
        }
        self._livebox: List[int] = [0]
        self._results: Dict[int, object] = dict(graph.const_results)
        # Candidate nodes for the NEXT cycle. The set object is
        # captured by the per-node closures: mutate in place only.
        self._next_candidates: Set[int] = set()
        #: Per-load-node in-flight response queues. Responses are
        #: delivered in issue order (head-of-line blocking), because a
        #: FIFO-synchronized machine must keep every edge's token
        #: stream ordered even under variable memory latency.
        self._inflight: Dict[int, Deque[Tuple[int, object]]] = {}
        #: Lower bound on the minimum due-cycle over the *heads* of
        #: the in-flight queues (``sys.maxsize`` when none). Responses
        #: are head-of-line blocked per queue, so no response can
        #: mature before this cycle and the per-cycle delivery scan is
        #: skipped entirely until then. Appending behind a pending
        #: head never moves it; delivery recomputes it exactly.
        self._due_box: List[int] = [sys.maxsize]
        # Tokens pushed this cycle become visible next cycle
        # (single-cycle latency, matching the tagged engine's timing).
        # Keyed by node_id * stride + port (ints hash faster than
        # tuples and are precomputed per edge).
        self._fresh: Dict[int, int] = {}
        self._stride = max(self._n_inputs, default=1) or 1
        #: Destination descriptors per (node, out port):
        #: (dest deque, fresh key, dest node id).
        self._dests: List[List[List[Tuple[Deque, int, int]]]] = [
            [
                [(self._fifos[d][p], d * self._stride + p, d)
                 for d, p in port_edges]
                for port_edges in nd.out_edges
            ]
            for nd in graph.nodes
        ]
        # Generated plan kernels (repro.sim.codegen) replace both the
        # per-node closures and the cycle loop; profiled runs keep the
        # interpreted twins because only those carry attribution hooks.
        self._kernels = None
        if kernels is not None and self._profiler is None:
            self._kernels = kernels
            self._try_fire_fns: List[Callable[[], bool]] = kernels.bind(self)
        else:
            self._try_fire_fns = [
                self._make_try_fire(nid) for nid in range(n)
            ]

    # ------------------------------------------------------------------
    @property
    def _live(self) -> int:
        return self._livebox[0]

    @_live.setter
    def _live(self, value: int) -> None:
        self._livebox[0] = value

    # ------------------------------------------------------------------
    def run(self, args: List[object]) -> ExecutionResult:
        if len(args) != len(self.graph.entry_sources):
            raise SimulationError(
                f"entry takes {len(self.graph.entry_sources)} args, "
                f"got {len(args)}"
            )
        for value, dests in zip(args, self.graph.entry_sources):
            for dest_id, port in dests:
                self._fifos[dest_id][port].append(value)
                self._livebox[0] += 1
                self._next_candidates.add(dest_id)

        if self._profiler is not None:
            completed = self._run_loop_profiled()
        elif self._kernels is not None:
            completed = self._kernels.run_loop(self)
        else:
            completed = self._run_loop()

        results = tuple(
            self._results.get(i) for i in range(self.graph.n_results)
        )
        extra = {"queue_depth": self.queue_depth,
                 "issue_width": self.issue_width}
        if self._profiler is not None:
            ops = self._op
            extra["profile"] = self._profiler.finish(
                "ordered", self.metrics.cycles,
                self.metrics.instructions,
                lambda nid: f"{ops[nid].value}#{nid}",
            )
        return self.metrics.result("ordered", completed, results, extra)

    def _run_loop(self) -> bool:
        metrics = self.metrics
        sample = metrics.sample
        nc = self._next_candidates
        nc_add = nc.add
        fresh = self._fresh
        livebox = self._livebox
        try_fns = self._try_fire_fns
        issue_width = self.issue_width
        max_cycles = self.max_cycles
        due_box = self._due_box
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        while True:
            # Deterministic order: ascending node id.
            candidates = sorted(nc)
            nc.clear()
            fresh.clear()
            if self._inflight and metrics.cycles >= due_box[0]:
                self._deliver_memory_responses()
            fired = 0
            budget = issue_width
            for nid in candidates:
                if budget == 0:
                    nc_add(nid)
                elif try_fns[nid]():
                    fired += 1
                    budget -= 1
                    # It may be able to fire again next cycle.
                    nc_add(nid)
            if fired == 0 and not nc:
                if self._inflight:
                    self._stall_for_memory()
                    continue
                if livebox[0] == 0:
                    return True
                self._raise_deadlock()
            sample(fired, livebox[0])
            if fired:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= wd_horizon and not self._inflight:
                    self._raise_deadlock(watchdog=idle_streak)
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _run_loop_profiled(self) -> bool:
        """:meth:`_run_loop` with stall attribution.

        ``width_limited`` here is an approximation: a budget-skipped
        candidate is only re-checked next cycle, so it may turn out
        not to have been fireable.
        """
        prof = self._profiler
        end_cycle = prof.end_cycle
        fire_rec = prof.fire
        metrics = self.metrics
        sample = metrics.sample
        nc = self._next_candidates
        nc_add = nc.add
        fresh = self._fresh
        livebox = self._livebox
        try_fns = self._try_fire_fns
        issue_width = self.issue_width
        max_cycles = self.max_cycles
        due_box = self._due_box
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        miss_until = self._miss_until if self._cache is not None \
            else None
        while True:
            candidates = sorted(nc)
            nc.clear()
            fresh.clear()
            if self._inflight and metrics.cycles >= due_box[0]:
                self._deliver_memory_responses()
            fired = 0
            budget = issue_width
            width_limited = False
            for nid in candidates:
                if budget == 0:
                    nc_add(nid)
                    width_limited = True
                elif try_fns[nid]():
                    fired += 1
                    budget -= 1
                    nc_add(nid)
                    fire_rec(nid)
            if fired == 0 and not nc:
                if self._inflight:
                    before = metrics.cycles
                    self._stall_for_memory()
                    if miss_until is None:
                        prof.idle("memory_stall",
                                  metrics.cycles - before)
                    else:
                        n = metrics.cycles - before
                        miss = min(metrics.cycles, miss_until[0]) \
                            - before
                        prof.idle_memory(n, max(0, min(n, miss)))
                    continue
                if livebox[0] == 0:
                    return True
                self._raise_deadlock()
            sample(fired, livebox[0])
            if fired:
                end_cycle("width_limited" if width_limited else "fired")
            elif self._inflight:
                if miss_until is None:
                    end_cycle("memory_stall")
                else:
                    prof.end_cycle_memory(
                        metrics.cycles <= miss_until[0])
            else:
                end_cycle("waiting_operands")
            if fired:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= wd_horizon and not self._inflight:
                    self._raise_deadlock(watchdog=idle_streak)
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _stall_for_memory(self) -> None:
        """Idle until the earliest in-flight load response matures.

        Equivalent to sampling ``(0, live)`` once per stalled cycle,
        but batched; unlike the original per-cycle loop it enforces
        ``max_cycles``, so a simulation can no longer spin past its
        cycle budget inside a memory stall.
        """
        metrics = self.metrics
        due = self._due_box[0]
        stop = min(due, self.max_cycles)
        metrics.sample_idle(self._livebox[0], stop - metrics.cycles)
        if metrics.cycles >= self.max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )

    def _deliver_memory_responses(self) -> None:
        now = self.metrics.cycles
        done = []
        for nid, queue in self._inflight.items():
            while queue and queue[0][0] <= now:
                _, value = queue.popleft()
                self._emit(nid, 0, value)
                self._emit(nid, 1, 0)
            if not queue:
                done.append(nid)
        for nid in done:
            del self._inflight[nid]
        self._due_box[0] = min(
            (q[0][0] for q in self._inflight.values()),
            default=sys.maxsize)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        stuck = []
        for nid, fifos in enumerate(self._fifos):
            held = sum(len(f) for f in fifos if f is not None)
            if held:
                stuck.append((nid, self._op[nid].value, held))
        via = ("" if watchdog is None else
               f" (progress watchdog: {watchdog} consecutive cycles "
               f"without progress)")
        raise DeadlockError(
            f"ordered dataflow stalled with {self._livebox[0]} queued "
            f"tokens{via}; first stuck nodes: {stuck[:8]}",
            stuck,
        )

    # ------------------------------------------------------------------
    def _emit(self, nid: int, port: int, value: object) -> None:
        """Generic emission (memory-response delivery path only; the
        per-node closures inline their own copy)."""
        fresh = self._fresh
        nc_add = self._next_candidates.add
        dests = self._dests[nid][port]
        for fifo, key, dest_id in dests:
            fifo.append(value)
            fresh[key] = fresh.get(key, 0) + 1
            nc_add(dest_id)
        self._livebox[0] += len(dests)

    # ------------------------------------------------------------------
    # Per-node dispatch closures
    # ------------------------------------------------------------------
    def _make_try_fire(self, nid: int) -> Callable[[], bool]:
        """Build the firing-attempt closure for node ``nid``.

        Each input port is bound as either its deque plus fresh-map
        key (token port) or its immediate value; each output port as
        its destination descriptors. ``fresh.get(key, 0)`` subtracts
        tokens pushed this cycle so they only become visible next
        cycle, matching the tagged engine's timing.
        """
        op = self._op[nid]
        depth = self.queue_depth
        fresh = self._fresh
        fresh_get = fresh.get
        livebox = self._livebox
        nc = self._next_candidates
        nc_add = nc.add
        nc_update = nc.update
        producers = self._producers[nid]
        imms = self._imms[nid]
        n_in = self._n_inputs[nid]
        stride = self._stride
        fifos = self._fifos[nid]
        #: Per input port: (deque or None, fresh key, immediate).
        spec = [
            (fifos[p], nid * stride + p, imms.get(p))
            for p in range(n_in)
        ]
        dests = self._dests[nid]

        if op is Op.MU:
            mu_state = self._mu_state
            (f0, k0, i0), (f1, k1, i1), (f2, k2, i2) = spec
            dests0 = dests[0]
            n0 = len(dests0)

            def try_fire_mu():
                if mu_state[nid] == _MU_INIT:
                    if f0 is None:
                        value = i0
                    else:
                        if len(f0) - fresh_get(k0, 0) <= 0:
                            return False
                        value = f0[0]
                    for f, k, d in dests0:
                        if len(f) >= depth:
                            return False
                    if f0 is not None:
                        f0.popleft()
                        livebox[0] -= 1
                        nc_update(producers)
                    for f, k, d in dests0:
                        f.append(value)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    livebox[0] += n0
                    mu_state[nid] = _MU_LOOP
                    return True
                if f2 is None:
                    d2 = i2
                else:
                    if len(f2) - fresh_get(k2, 0) <= 0:
                        return False
                    d2 = f2[0]
                if f1 is None:
                    back = i1
                else:
                    if len(f1) - fresh_get(k1, 0) <= 0:
                        return False
                    back = f1[0]
                if d2:
                    for f, k, d in dests0:
                        if len(f) >= depth:
                            return False
                    popped = False
                    if f2 is not None:
                        f2.popleft()
                        livebox[0] -= 1
                        popped = True
                    if f1 is not None:
                        f1.popleft()
                        livebox[0] -= 1
                        popped = True
                    if popped:
                        nc_update(producers)
                    for f, k, d in dests0:
                        f.append(back)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    livebox[0] += n0
                else:
                    # Activation over: discard the final backedge value
                    # and re-arm for the next initial value.
                    popped = False
                    if f2 is not None:
                        f2.popleft()
                        livebox[0] -= 1
                        popped = True
                    if f1 is not None:
                        f1.popleft()
                        livebox[0] -= 1
                        popped = True
                    if popped:
                        nc_update(producers)
                    mu_state[nid] = _MU_INIT
                return True
            return try_fire_mu

        if op is Op.MERGE:
            (f0, k0, i0) = spec[0]
            (f1, k1, i1) = spec[1]
            (f2, k2, i2) = spec[2]
            dests0 = dests[0]
            n0 = len(dests0)

            def try_fire_merge():
                if f0 is None:
                    d0 = i0
                else:
                    if len(f0) - fresh_get(k0, 0) <= 0:
                        return False
                    d0 = f0[0]
                fc, kc, ic = (f1, k1, i1) if d0 else (f2, k2, i2)
                if fc is None:
                    value = ic
                else:
                    if len(fc) - fresh_get(kc, 0) <= 0:
                        return False
                    value = fc[0]
                for f, k, d in dests0:
                    if len(f) >= depth:
                        return False
                popped = False
                if f0 is not None:
                    f0.popleft()
                    livebox[0] -= 1
                    popped = True
                if fc is not None:
                    fc.popleft()
                    livebox[0] -= 1
                    popped = True
                if popped:
                    nc_update(producers)
                for f, k, d in dests0:
                    f.append(value)
                    fresh[k] = fresh_get(k, 0) + 1
                    nc_add(d)
                livebox[0] += n0
                return True
            return try_fire_merge

        if op is Op.STEER:
            (f0, k0, i0) = spec[0]
            (f1, k1, i1) = spec[1]
            dests0 = dests[0]
            n0 = len(dests0)
            sense = bool(self._attrs[nid]["sense"])

            def try_fire_steer():
                if f0 is None:
                    d0 = i0
                else:
                    if len(f0) - fresh_get(k0, 0) <= 0:
                        return False
                    d0 = f0[0]
                if f1 is None:
                    value = i1
                else:
                    if len(f1) - fresh_get(k1, 0) <= 0:
                        return False
                    value = f1[0]
                taken = bool(d0) == sense
                if taken:
                    for f, k, d in dests0:
                        if len(f) >= depth:
                            return False
                popped = False
                if f0 is not None:
                    f0.popleft()
                    livebox[0] -= 1
                    popped = True
                if f1 is not None:
                    f1.popleft()
                    livebox[0] -= 1
                    popped = True
                if popped:
                    nc_update(producers)
                if taken:
                    for f, k, d in dests0:
                        f.append(value)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    livebox[0] += n0
                return True
            return try_fire_steer

        if op is Op.LOAD:
            dests0, dests1 = dests[0], dests[1]
            n0, n1 = len(dests0), len(dests1)
            array = self._attrs[nid]["array"]
            mem_load = self.memory.load
            latency = self.load_latency
            inflight = self._inflight
            due_box = self._due_box
            metrics = self.metrics

            if self._cache is not None:
                cache_load = self._cache.access_load
                miss_latency = self._cache.miss_latency
                miss_until = self._miss_until

                def try_fire_load_cached():
                    args = []
                    for f, k, imm in spec:
                        if f is None:
                            args.append(imm)
                        else:
                            if len(f) - fresh_get(k, 0) <= 0:
                                return False
                            args.append(f[0])
                    for f, k, d in dests0:
                        if len(f) >= depth:
                            return False
                    for f, k, d in dests1:
                        if len(f) >= depth:
                            return False
                    popped = False
                    for f, k, imm in spec:
                        if f is not None:
                            f.popleft()
                            livebox[0] -= 1
                            popped = True
                    if popped:
                        nc_update(producers)
                    value = mem_load(array, args[0])
                    delay = cache_load(array, args[0])
                    if delay <= 1 and nid not in inflight:
                        for f, k, d in dests0:
                            f.append(value)
                            fresh[k] = fresh_get(k, 0) + 1
                            nc_add(d)
                        for f, k, d in dests1:
                            f.append(0)
                            fresh[k] = fresh_get(k, 0) + 1
                            nc_add(d)
                        livebox[0] += n0 + n1
                    else:
                        due = metrics.cycles + delay - 1
                        if delay >= miss_latency \
                                and due + 1 > miss_until[0]:
                            miss_until[0] = due + 1
                        queue = inflight.get(nid)
                        if queue is None:
                            inflight[nid] = queue = deque()
                            if due < due_box[0]:
                                due_box[0] = due
                        queue.append((due, value))
                    return True
                return try_fire_load_cached

            def try_fire_load():
                args = []
                for f, k, imm in spec:
                    if f is None:
                        args.append(imm)
                    else:
                        if len(f) - fresh_get(k, 0) <= 0:
                            return False
                        args.append(f[0])
                for f, k, d in dests0:
                    if len(f) >= depth:
                        return False
                for f, k, d in dests1:
                    if len(f) >= depth:
                        return False
                popped = False
                for f, k, imm in spec:
                    if f is not None:
                        f.popleft()
                        livebox[0] -= 1
                        popped = True
                if popped:
                    nc_update(producers)
                value = mem_load(array, args[0])
                if latency <= 1 and nid not in inflight:
                    for f, k, d in dests0:
                        f.append(value)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    for f, k, d in dests1:
                        f.append(0)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    livebox[0] += n0 + n1
                    return True
                delay = load_delay(latency, array, args[0])
                if delay <= 1 and nid not in inflight:
                    for f, k, d in dests0:
                        f.append(value)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    for f, k, d in dests1:
                        f.append(0)
                        fresh[k] = fresh_get(k, 0) + 1
                        nc_add(d)
                    livebox[0] += n0 + n1
                else:
                    # Keep responses in issue order behind any slower
                    # predecessor from the same static load.
                    due = metrics.cycles + delay - 1
                    queue = inflight.get(nid)
                    if queue is None:
                        inflight[nid] = queue = deque()
                        # A new head may mature before anything
                        # currently tracked; an append behind an
                        # existing head cannot (head-of-line order).
                        if due < due_box[0]:
                            due_box[0] = due
                    queue.append((due, value))
                return True
            return try_fire_load

        if op is Op.STORE:
            dests0 = dests[0]
            n0 = len(dests0)
            array = self._attrs[nid]["array"]
            mem_store = self.memory.store
            cache_store = (self._cache.access_store
                           if self._cache is not None else None)

            def try_fire_store():
                args = []
                for f, k, imm in spec:
                    if f is None:
                        args.append(imm)
                    else:
                        if len(f) - fresh_get(k, 0) <= 0:
                            return False
                        args.append(f[0])
                for f, k, d in dests0:
                    if len(f) >= depth:
                        return False
                popped = False
                for f, k, imm in spec:
                    if f is not None:
                        f.popleft()
                        livebox[0] -= 1
                        popped = True
                if popped:
                    nc_update(producers)
                mem_store(array, args[0], args[1])
                if cache_store is not None:
                    cache_store(array, args[0])
                for f, k, d in dests0:
                    f.append(0)
                    fresh[k] = fresh_get(k, 0) + 1
                    nc_add(d)
                livebox[0] += n0
                return True
            return try_fire_store

        info = OP_INFO[op]
        if not info.pure:
            op_name = op.value

            def try_fire_illegal():
                raise SimulationError(
                    f"cannot execute {op_name} (flat)"
                )
            return try_fire_illegal

        # Pure arithmetic/logic: specialize the all-FIFO unary/binary
        # shapes, keep a generic closure for the rest.
        ev = info.evaluate
        dests0 = dests[0]
        n0 = len(dests0)
        result_idx = self._attrs[nid].get("result_index")
        results = self._results

        if result_idx is None and n_in == 2 and not imms:
            (f0, k0, _), (f1, k1, _) = spec

            def try_fire_pure2():
                if len(f0) - fresh_get(k0, 0) <= 0:
                    return False
                if len(f1) - fresh_get(k1, 0) <= 0:
                    return False
                for f, k, d in dests0:
                    if len(f) >= depth:
                        return False
                a = f0.popleft()
                b = f1.popleft()
                livebox[0] -= 2
                nc_update(producers)
                value = ev(a, b)
                for f, k, d in dests0:
                    f.append(value)
                    fresh[k] = fresh_get(k, 0) + 1
                    nc_add(d)
                livebox[0] += n0
                return True
            return try_fire_pure2

        if result_idx is None and n_in == 1 and not imms:
            (f0, k0, _) = spec[0]

            def try_fire_pure1():
                if len(f0) - fresh_get(k0, 0) <= 0:
                    return False
                for f, k, d in dests0:
                    if len(f) >= depth:
                        return False
                a = f0.popleft()
                livebox[0] -= 1
                nc_update(producers)
                value = ev(a)
                for f, k, d in dests0:
                    f.append(value)
                    fresh[k] = fresh_get(k, 0) + 1
                    nc_add(d)
                livebox[0] += n0
                return True
            return try_fire_pure1

        def try_fire_pure():
            args = []
            for f, k, imm in spec:
                if f is None:
                    args.append(imm)
                else:
                    if len(f) - fresh_get(k, 0) <= 0:
                        return False
                    args.append(f[0])
            for f, k, d in dests0:
                if len(f) >= depth:
                    return False
            popped = False
            for f, k, imm in spec:
                if f is not None:
                    f.popleft()
                    livebox[0] -= 1
                    popped = True
            if popped:
                nc_update(producers)
            value = ev(*args)
            if result_idx is not None:
                results[result_idx] = value
            for f, k, d in dests0:
                f.append(value)
                fresh[k] = fresh_get(k, 0) + 1
                nc_add(d)
            livebox[0] += n0
            return True
        return try_fire_pure
