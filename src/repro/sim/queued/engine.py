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
same-cycle token visibility is tracked in a dense counter list indexed
by int keys, with a list of the keys written this cycle, instead of
``(node, port)`` tuples. Every run goes through one hand-written cycle
loop (:meth:`QueuedEngine._run_loop`); only its fire table differs.
By default the generated kernels of :mod:`repro.sim.codegen` fill it.
Without them the engine interprets with one plain firing rule for
every node (:meth:`QueuedEngine._try_fire`): the reference semantics
the kernels are diffed against.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.compiler.flatten import FlatGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import NO_HANDOFF, TIMED
from repro.sim.engine import MAX_CYCLES, Engine
from repro.sim.memory import Memory
from repro.sim.watchdog import watchdog_horizon, watchdog_note

#: Mu gate states.
_MU_INIT = 0  # waiting for an initial value
_MU_LOOP = 1  # waiting for a decider (and possibly a backedge value)

# Opcodes the engine tests per node or per firing, bound once: looking
# a member up on the enum class costs about ten times a global load.
_MU, _MERGE, _STEER, _LOAD, _STORE = (
    Op.MU, Op.MERGE, Op.STEER, Op.LOAD, Op.STORE)

#: ``_head``'s answer when no token is visible at a port.
_EMPTY = object()


class QueuedEngine(Engine):
    """Simulates one execution of a flat graph with FIFO channels."""

    machine_name = "ordered"
    _TABLES = ("_try_fire_fns",)

    def __init__(self, graph: FlatGraph, memory: Memory,
                 queue_depth: int = 4, issue_width: int = 128,
                 sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = MAX_CYCLES,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        if queue_depth < 1:
            raise SimulationError("queue depth must be >= 1")
        super().__init__(memory, issue_width, sample_traces, load_latency,
                         max_cycles, profile, cache)
        self.graph = graph
        self.queue_depth = queue_depth
        self._n_params = len(graph.entry_sources)

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
        # ``_fresh`` counts them per input port, indexed by
        # node_id * stride + port (precomputed per edge), and
        # ``_fresh_dirty`` lists the indices written this cycle, which
        # the cycle loop resets. Both are captured by the bound
        # kernels: mutate in place only.
        self._stride = max(self._n_inputs, default=1) or 1
        self._fresh: List[int] = [0] * (n * self._stride)
        self._fresh_dirty: List[int] = []
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
        self._take_kernels(kernels, n)

    def _interpret(self) -> None:
        try_fire = self._try_fire  # one bound method for every row
        self._try_fire_fns: List[Callable[[], bool]] = [
            partial(try_fire, nid) for nid in range(len(self._op))]

    def _bind(self, kernels) -> None:
        self._try_fire_fns = kernels.bind(self)

    # ------------------------------------------------------------------
    def _execute(self, args: List[object]) -> tuple:
        for value, dests in zip(args, self.graph.entry_sources):
            for dest_id, port in dests:
                self._fifos[dest_id][port].append(value)
                self._livebox[0] += 1
                self._next_candidates.add(dest_id)

        completed = self._run_loop()

        results = tuple(
            self._results.get(i) for i in range(self.graph.n_results)
        )
        extra = {"queue_depth": self.queue_depth,
                 "issue_width": self.issue_width}
        return completed, results, extra

    def _node_label(self, nid: int) -> str:
        return f"{self._op[nid].value}#{nid}"

    def _run_loop(self) -> bool:
        """The cycle loop of every run: kernel, interpreted and
        profiled runs differ only in the fire table.

        Each cycle makes last cycle's pushes visible, delivers matured
        load responses, then tries each candidate node in ascending id
        order, up to ``issue_width`` firings, and samples IPC and live
        tokens. The recorder's counters live in locals
        (:meth:`MetricsRecorder.counters`), with the RLE trace appends
        inlined, and are committed in the ``finally``, so a raising
        run leaves the same counts. ``metrics.cycles`` is synced every
        cycle when loads can be delayed (the load rules read it). The
        counters are committed before :meth:`_stall_for_memory`,
        which samples the stall through the recorder, and reloaded
        after it.

        A profiled run notes each firing's node and closes each cycle
        through one of the profiler's booking rules: a zero-fire cycle
        with loads in flight through
        :meth:`EngineProfiler.memory_cycle`, any other through
        :meth:`EngineProfiler.end_cycle`. ``width_limited`` is an
        approximation here: a budget-skipped candidate is only
        re-checked next cycle, so it may turn out not to have been
        fireable.

        An interpreted run with kernels pending hands off to them at
        the end of the cycle that brings its instructions to
        ``_handoff``, and runs on in this loop with the same locals.
        """
        metrics = self.metrics
        nc = self._next_candidates
        nc_add = nc.add
        nc_clear = nc.clear
        fresh = self._fresh
        dirty = self._fresh_dirty
        dirty_append = dirty.append
        dests = self._dests
        livebox = self._livebox
        try_fns = tuple(self._try_fire_fns)
        handoff = self._handoff
        issue_width = self.issue_width
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        inflight = self._inflight
        due_box = self._due_box
        sync = self._rule == TIMED
        sample_traces = metrics.sample_traces
        commit = metrics.commit
        (cycles, instructions, peak_live, live_sum,
         ipc_vals, ipc_counts, live_vals, live_counts) = metrics.counters()
        prof = self._profiler
        if prof is not None:
            note = prof.noted.append
            end_cycle = prof.end_cycle
            memory_cycle = prof.memory_cycle
            miss_until = self._miss_until if self._cache is not None \
                else None
        try:
            while True:
                # Deterministic order: ascending node id.
                candidates = sorted(nc)
                nc_clear()
                # Tokens pushed last cycle become visible.
                if dirty:
                    for k in dirty:
                        fresh[k] = 0
                    del dirty[:]
                # Deliver matured load responses. No queue head can
                # mature before due_box[0] (head-of-line blocking), so
                # other cycles never scan the in-flight map.
                if inflight and cycles >= due_box[0]:
                    done = None
                    for lnid, queue in inflight.items():
                        while queue and queue[0][0] <= cycles:
                            _, value = queue.popleft()
                            for port, data in ((0, value), (1, 0)):
                                port_dests = dests[lnid][port]
                                for f, k, d in port_dests:
                                    f.append(data)
                                    fresh[k] += 1
                                    dirty_append(k)
                                    nc_add(d)
                                livebox[0] += len(port_dests)
                        if not queue:
                            if done is None:
                                done = []
                            done.append(lnid)
                    if done is not None:
                        for lnid in done:
                            del inflight[lnid]
                    due_box[0] = min((q[0][0] for q in inflight.values()),
                                     default=sys.maxsize)
                fired = 0
                width_limited = False
                # When the issue width covers every candidate, the
                # budget cannot run out mid-scan.
                if issue_width >= len(candidates):
                    for nid in candidates:
                        if try_fns[nid]():
                            fired += 1
                            # It may be able to fire again next cycle.
                            nc_add(nid)
                            if prof is not None:
                                note(nid)
                else:
                    budget = issue_width
                    for nid in candidates:
                        if budget == 0:
                            nc_add(nid)
                            width_limited = True
                        elif try_fns[nid]():
                            fired += 1
                            budget -= 1
                            nc_add(nid)
                            if prof is not None:
                                note(nid)
                if fired == 0 and not nc:
                    if inflight:
                        # Memory in flight: skip to its first due cycle.
                        commit(cycles, instructions, peak_live, live_sum)
                        try:
                            self._stall_for_memory()
                        finally:
                            (cycles, instructions, peak_live,
                             live_sum) = metrics.counters()[:4]
                        continue
                    if livebox[0] == 0:
                        return True
                    self._raise_deadlock()
                live = livebox[0]
                cycles += 1
                instructions += fired
                if prof is not None:
                    if fired:
                        end_cycle("width_limited" if width_limited
                                  else "fired")
                    elif not inflight:
                        end_cycle("waiting_operands")
                    else:
                        memory_cycle(cycles, miss_until)
                if fired:
                    idle_streak = 0
                elif not inflight:
                    # A cycle waiting on memory is not a wedged one.
                    idle_streak += 1
                    if idle_streak >= wd_horizon:
                        self._raise_deadlock(watchdog=idle_streak)
                if live > peak_live:
                    peak_live = live
                live_sum += live
                if sample_traces:
                    if ipc_counts and ipc_vals[-1] == fired:
                        ipc_counts[-1] += 1
                    else:
                        ipc_vals.append(fired)
                        ipc_counts.append(1)
                    if live_counts and live_vals[-1] == live:
                        live_counts[-1] += 1
                    else:
                        live_vals.append(live)
                        live_counts.append(1)
                if sync:
                    metrics.cycles = cycles
                # A run that finished on its last allowed cycle
                # completes.
                if cycles >= max_cycles and (livebox[0] or inflight):
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}"
                    )
                if instructions >= handoff:
                    handoff = NO_HANDOFF
                    self._hand_off()
                    try_fns = tuple(self._try_fire_fns)
        finally:
            commit(cycles, instructions, peak_live, live_sum)

    def _stall_for_memory(self) -> None:
        """Idle until the earliest in-flight load response matures.

        Equivalent to sampling ``(0, live)`` once per stalled cycle,
        but batched; unlike the original per-cycle loop it enforces
        ``max_cycles``, so a simulation can no longer spin past its
        cycle budget inside a memory stall. A profiled stall that
        returns books itself (:meth:`EngineProfiler.memory_stall`).
        """
        metrics = self.metrics
        start = metrics.cycles
        stop = min(self._due_box[0], self.max_cycles)
        metrics.sample_idle(self._livebox[0], stop - start)
        if metrics.cycles >= self.max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        if self._profiler is not None:
            self._profiler.memory_stall(
                start, metrics.cycles,
                self._miss_until if self._cache is not None else None)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        stuck = []
        for nid, fifos in enumerate(self._fifos):
            held = sum(len(f) for f in fifos if f is not None)
            if held:
                stuck.append((nid, self._op[nid].value, held))
        raise DeadlockError(
            f"ordered dataflow stalled with {self._livebox[0]} queued "
            f"tokens{watchdog_note(watchdog)}; first stuck nodes: "
            f"{stuck[:8]}",
            stuck,
        )

    # ------------------------------------------------------------------
    def _emit(self, nid: int, port: int, value: object) -> None:
        """Push ``value`` to every destination of ``nid``'s output
        ``port``, invisible to them until next cycle."""
        fresh = self._fresh
        dirty_append = self._fresh_dirty.append
        nc_add = self._next_candidates.add
        dests = self._dests[nid][port]
        for fifo, key, dest_id in dests:
            fifo.append(value)
            fresh[key] += 1
            dirty_append(key)
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
        if len(fifo) - self._fresh[nid * self._stride + port] <= 0:
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
            self._timing.access_store(array, args[0])
            self._emit(nid, 0, 0)
        return True

    def _issue_load(self, nid: int, addr: object) -> None:
        array = self._attrs[nid]["array"]
        value = self.memory.load(array, addr)
        timing = self._timing
        delay = timing.access_load(array, addr)
        if delay <= 1 and nid not in self._inflight:
            self._emit(nid, 0, value)
            self._emit(nid, 1, 0)
            return
        # Keep responses in issue order behind any slower predecessor
        # from the same static load.
        due = self.metrics.cycles + delay - 1
        if delay >= timing.miss_latency and due + 1 > self._miss_until[0]:
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
