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
same-cycle token visibility is tracked in an int-keyed counter map
instead of ``(node, port)`` tuples. By default the generated kernels
of :mod:`repro.sim.codegen` fill the per-node firing table and run the
cycle loop. Without them the engine interprets with one plain firing
rule for every node (:meth:`QueuedEngine._try_fire`): the reference
semantics the kernels are diffed against.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
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

# Opcodes the engine tests per node or per firing, bound once: looking
# a member up on the enum class costs about ten times a global load.
_MU, _MERGE, _STEER, _LOAD, _STORE = (
    Op.MU, Op.MERGE, Op.STEER, Op.LOAD, Op.STORE)

#: ``_head``'s answer when no token is visible at a port.
_EMPTY = object()


class QueuedEngine:
    """Simulates one execution of a flat graph with FIFO channels.

    Kernels bind ``memory`` and the graph tables at construction;
    neither may be swapped afterwards.
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
        if issue_width < 1:
            raise SimulationError("issue width must be >= 1")
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
        #: mode); bounds a profiled run's hit/miss stall split.
        self._miss_until: List[int] = [0]
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        # Opt-in stall attribution: booked by the profiled kernel
        # variant, or by the interpreter loop (one check per cycle, a
        # firing hook only when set) when it interprets.
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
            nd.node_id: _MU_INIT for nd in graph.nodes if nd.op is _MU
        }
        self._livebox: List[int] = [0]
        self._results: Dict[int, object] = dict(graph.const_results)
        # Candidate nodes for the NEXT cycle. The set object is
        # captured by the bound kernels: mutate in place only.
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
        # interpreter's firing rule and its cycle loop; a profiled run
        # binds their profiled variant.
        self._kernels = None
        if kernels is not None:
            if self._profiler is not None:
                kernels = kernels.profiled()
            self._kernels = kernels
            self._try_fire_fns: List[Callable[[], bool]] = kernels.bind(self)
        else:
            self._try_fire_fns = [
                partial(self._try_fire, nid) for nid in range(n)
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

        if self._kernels is not None:
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
        """The interpreter's cycle loop (the reference semantics).

        Under profiling, ``width_limited`` is an approximation: a
        budget-skipped candidate is only re-checked next cycle, so it
        may turn out not to have been fireable.
        """
        prof = self._profiler
        prof_fire = None if prof is None else prof.fire
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
            # Deterministic order: ascending node id.
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
                    # It may be able to fire again next cycle.
                    nc_add(nid)
                    if prof_fire is not None:
                        prof_fire(nid)
            if fired == 0 and not nc:
                if self._inflight:
                    before = metrics.cycles
                    self._stall_for_memory()
                    if prof is not None:
                        n = metrics.cycles - before
                        if miss_until is None:
                            prof.idle("memory_stall", n)
                        else:
                            miss = min(metrics.cycles, miss_until[0]) \
                                - before
                            prof.idle_memory(n, max(0, min(n, miss)))
                    continue
                if livebox[0] == 0:
                    return True
                self._raise_deadlock()
            sample(fired, livebox[0])
            if prof is not None:
                if fired:
                    prof.end_cycle("width_limited" if width_limited
                                   else "fired")
                elif not self._inflight:
                    prof.end_cycle("waiting_operands")
                elif miss_until is None:
                    prof.end_cycle("memory_stall")
                else:
                    prof.end_cycle_memory(
                        metrics.cycles <= miss_until[0])
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
        """Push ``value`` to every destination of ``nid``'s output
        ``port``, invisible to them until next cycle."""
        fresh = self._fresh
        nc_add = self._next_candidates.add
        dests = self._dests[nid][port]
        for fifo, key, dest_id in dests:
            fifo.append(value)
            fresh[key] = fresh.get(key, 0) + 1
            nc_add(dest_id)
        self._livebox[0] += len(dests)

    # ------------------------------------------------------------------
    # The interpreter's firing rule: one plain rule for every node
    # ------------------------------------------------------------------
    def _head(self, nid: int, port: int) -> object:
        """The operand at input ``port`` of ``nid``: its immediate, the
        head of its FIFO, or ``_EMPTY`` when no token is visible yet.
        Tokens pushed this cycle (counted in ``_fresh``) only become
        visible next cycle, matching the tagged engine's timing."""
        fifo = self._fifos[nid][port]
        if fifo is None:
            return self._imms[nid][port]
        if len(fifo) - self._fresh.get(nid * self._stride + port, 0) <= 0:
            return _EMPTY
        return fifo[0]

    def _try_fire(self, nid: int) -> bool:
        """Fire ``nid`` once if the operands it consumes are visible
        and every destination it pushes to has room (all-or-nothing
        back pressure: nothing is popped unless all of it holds)."""
        op = self._op[nid]
        info = None  # the OP_INFO of a pure op
        mu_init = False
        # The input ports this firing consumes.
        if op is _MU:
            mu_init = self._mu_state[nid] == _MU_INIT
            ports = (0,) if mu_init else (2, 1)  # (decider, backedge)
        elif op is _MERGE:
            decider = self._head(nid, 0)
            if decider is _EMPTY:
                return False
            ports = (0, 1 if decider else 2)
        else:
            if op is not _STEER and op is not _LOAD and op is not _STORE:
                info = OP_INFO[op]
                if not info.pure:
                    raise SimulationError(
                        f"cannot execute {op.value} (flat)")
            ports = range(self._n_inputs[nid])
        args = []
        for port in ports:
            value = self._head(nid, port)
            if value is _EMPTY:
                return False
            args.append(value)
        # The output ports it pushes to.
        if op is _MU:
            out_ports = (0,) if mu_init or args[0] else ()
        elif op is _STEER:
            taken = bool(args[0]) == bool(self._attrs[nid]["sense"])
            out_ports = (0,) if taken else ()
        elif op is _LOAD:
            out_ports = (0, 1)
        else:
            out_ports = (0,)
        dests = self._dests[nid]
        for port in out_ports:
            for fifo, _, _ in dests[port]:
                if len(fifo) >= self.queue_depth:
                    return False
        popped = False
        for port in ports:
            fifo = self._fifos[nid][port]
            if fifo is not None:
                fifo.popleft()
                self._livebox[0] -= 1
                popped = True
        if popped:
            self._next_candidates.update(self._producers[nid])

        if info is not None:
            value = info.evaluate(*args)
            idx = self._attrs[nid].get("result_index")
            if idx is not None:
                self._results[idx] = value
            self._emit(nid, 0, value)
        elif op is _MU:
            if mu_init:
                self._emit(nid, 0, args[0])
                self._mu_state[nid] = _MU_LOOP
            elif args[0]:
                self._emit(nid, 0, args[1])
            else:
                # Activation over: the final backedge value is
                # discarded and the gate re-arms for the next one.
                self._mu_state[nid] = _MU_INIT
        elif op is _MERGE or op is _STEER:
            if out_ports:
                self._emit(nid, 0, args[1])
        elif op is _LOAD:
            self._issue_load(nid, args[0])
        else:  # STORE
            array = self._attrs[nid]["array"]
            self.memory.store(array, args[0], args[1])
            if self._cache is not None:
                self._cache.access_store(array, args[0])
            self._emit(nid, 0, 0)
        return True

    def _issue_load(self, nid: int, addr: object) -> None:
        array = self._attrs[nid]["array"]
        value = self.memory.load(array, addr)
        cache = self._cache
        if cache is not None:
            delay = cache.access_load(array, addr)
        else:
            delay = load_delay(self.load_latency, array, addr)
        if delay <= 1 and nid not in self._inflight:
            self._emit(nid, 0, value)
            self._emit(nid, 1, 0)
            return
        # Keep responses in issue order behind any slower predecessor
        # from the same static load.
        due = self.metrics.cycles + delay - 1
        if cache is not None and delay >= cache.miss_latency \
                and due + 1 > self._miss_until[0]:
            self._miss_until[0] = due + 1
        queue = self._inflight.get(nid)
        if queue is None:
            self._inflight[nid] = queue = deque()
            # A new head may mature before anything currently tracked;
            # an append behind an existing head cannot (head-of-line
            # order).
            if due < self._due_box[0]:
                self._due_box[0] = due
        queue.append((due, value))
