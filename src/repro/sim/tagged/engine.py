"""Execution engine for tagged (unordered) dataflow graphs.

Idealized timing per the paper's methodology (Sec. VI): every
instruction takes one cycle, up to ``issue_width`` instructions fire
per cycle (multiple dynamic instances of the same static instruction
may fire together), and tokens produced in a cycle become visible the
next cycle. IPC and live-token counts are sampled every cycle.

Token matching is the textbook wait-match store: tokens are buffered
per (static instruction, tag) until the firing rule is satisfied.
``allocate`` follows TYR's special firing rule (paper Sec. IV-A); its
interaction with the tag pools is what differentiates the architectures
(see :mod:`repro.sim.tagged.tagspace`).

Hot-path layout (see docs/ARCHITECTURE.md, "Simulator performance"):
the wait-match store is *slot-indexed* -- one store per static
instruction, keyed by tag -- instead of one dict keyed by
``(nid, tag)`` tuples. Every run goes through one hand-written cycle
loop (:meth:`TaggedEngine._run_loop`), and every token is a
``(node, port, tag, data)`` tuple that the loop deposits through its
one inlined deposit rule; only the fire table differs between runs.
By default the generated kernels of :mod:`repro.sim.codegen` fill
it. Without them the engine interprets: one plain firing rule
(:meth:`TaggedEngine._fire_instr`) serves every node. The interpreter
is the reference semantics the kernels are diffed against, and the
only path that records traces (each token's producer is noted when it
is sent) and store occupancy.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError, TokenBoundExceeded
from repro.compiler.graph import TaggedGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.codegen.core import NO_HANDOFF, TIMED
from repro.sim.engine import MAX_CYCLES, Engine
from repro.sim.memory import Memory
from repro.sim.tagged.deadlock import analyze_deadlock
from repro.sim.tagged.trace import ExecutionTrace
from repro.sim.tagged.tagspace import PoolStats, TagPolicy, TagPool
from repro.sim.watchdog import watchdog_horizon

#: Tag of the machine-level root context (never allocated from a pool).
ROOT_TAG = -1

# Ready-queue actions.
_FIRE = 0
_ALLOC_POP = 1
_ALLOC_CTL = 2

# Deposit kinds (per-node firing-rule selector for the drain loop).
_DEP_PLAIN = 0
_DEP_MERGE = 1
_DEP_ALLOC = 2

# Opcodes the engine tests per node or per firing, bound once: looking
# a member up on the enum class costs about ten times a global load.
_MERGE, _STEER, _LOAD, _STORE = Op.MERGE, Op.STEER, Op.LOAD, Op.STORE
_JOIN, _CHANGE_TAG, _EXTRACT_TAG = Op.JOIN, Op.CHANGE_TAG, Op.EXTRACT_TAG
_ALLOCATE, _FREE = Op.ALLOCATE, Op.FREE


class _AllocState:
    __slots__ = ("request", "ready", "popped", "scheduled",
                 "ctl_scheduled", "waiting")

    def __init__(self):
        self.request = False
        self.ready = False
        self.popped = False
        self.scheduled = False
        self.ctl_scheduled = False
        self.waiting = False


class TaggedEngine(Engine):
    """Simulates one execution of an elaborated graph."""

    machine_name = "tagged"
    _TABLES = ("_fire_fns",)

    def __init__(self, graph: TaggedGraph, memory: Memory,
                 policy: TagPolicy, issue_width: int = 128,
                 sample_traces: bool = True,
                 check_token_bound: bool = False,
                 track_occupancy: bool = False,
                 record_trace: bool = False,
                 load_latency: int = 1,
                 max_cycles: int = MAX_CYCLES,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        super().__init__(memory, issue_width, sample_traces, load_latency,
                         max_cycles, profile, cache)
        self.graph = graph
        self.policy = policy
        self._n_params = len(graph.entry_sources)

        self.pools: Dict[str, TagPool] = policy.build_pools(
            graph.blocks, graph.tag_overrides
        )
        self._unique_pools: List[TagPool] = []
        seen = set()
        for pool in self.pools.values():
            if id(pool) not in seen:
                seen.add(id(pool))
                self._unique_pools.append(pool)

        # Flattened node tables for speed.
        n = len(graph.nodes)
        self._op: List[Op] = [nd.op for nd in graph.nodes]
        self._imms: List[Dict[int, object]] = [nd.imms for nd in graph.nodes]
        self._edges: List[List[List[Tuple[int, int]]]] = [
            nd.out_edges for nd in graph.nodes
        ]
        self._n_token_ports: List[int] = [
            len(nd.token_ports) for nd in graph.nodes
        ]
        self._n_inputs: List[int] = [nd.n_inputs for nd in graph.nodes]
        self._attrs: List[Dict[str, object]] = [
            nd.attrs for nd in graph.nodes
        ]
        self._block: List[str] = [nd.block for nd in graph.nodes]
        self._alloc_pool: Dict[int, TagPool] = {}
        self._alloc_spare: Dict[int, bool] = {}
        self._free_pool: Dict[int, TagPool] = {}
        for nd in graph.nodes:
            if nd.op is _ALLOCATE:
                self._alloc_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]
                self._alloc_spare[nd.node_id] = bool(nd.attrs["spare"])
            elif nd.op is _FREE:
                self._free_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]

        # Dynamic state. The containers below are captured by the
        # bound kernels and MUST stay the same objects for the
        # engine's lifetime (mutate in place, never rebind).
        #: Slot-indexed wait-match store: node id -> tag -> {port: data}.
        self._wait: List[Dict[object, Dict[int, object]]] = [
            {} for _ in range(n)
        ]
        self._alloc_state: Dict[Tuple[int, object], _AllocState] = {}
        self._ready: Deque[Tuple[int, object, int]] = deque()
        self._pending: List[tuple] = []
        self._waiters: Dict[int, Deque[Tuple[int, object]]] = {
            id(p): deque() for p in self._unique_pools
        }
        self._dirty_pools: List[TagPool] = []
        #: cycle index -> pending deposits maturing that cycle (loads
        #: in flight under load_latency > 1).
        self._delayed: Dict[int, List[tuple]] = {}
        self._livebox: List[int] = [0]
        self._results: Dict[int, object] = {}

        # Optional dynamic-execution-graph recording (paper Figs. 4/5):
        # every firing becomes an event; token flows become edges.
        self.trace = ExecutionTrace() if record_trace else None
        self._cur_event = -1  # event id of the instruction now firing
        #: (nid, tag) -> {port: producing event id} of the tokens sent
        #: there and not yet consumed (tracing only).
        self._wait_src: Dict[Tuple[int, object], Dict[int, int]] = {}

        # Optional per-tag-space wait-match store occupancy tracking
        # (the paper's "Problem #2": token store implementability).
        self._track_occupancy = track_occupancy
        self._occupancy: Dict[str, int] = {}
        self._peak_occupancy: Dict[str, int] = {}
        if track_occupancy:
            for b in list(graph.blocks) + ["<root>"]:
                self._occupancy[b] = 0
                self._peak_occupancy[b] = 0

        self._token_bound: Optional[int] = None
        if check_token_bound:
            caps = [p.capacity for p in self._unique_pools]
            if all(c is not None for c in caps):
                # Theorem 2: T*N*M with T the largest tag space, plus
                # the root context's tokens.
                t = max(caps)
                self._token_bound = (
                    graph.token_bound(t) + graph.max_inputs * n
                )

        #: Per-node deposit table: (firing rule kind, wait store,
        #: #token ports, imms) in one slot, so a deposit does one
        #: fetch per token.
        self._dep = [
            (_DEP_ALLOC if op is _ALLOCATE
             else _DEP_MERGE if op is _MERGE else _DEP_PLAIN,
             self._wait[nid], self._n_token_ports[nid], self._imms[nid])
            for nid, op in enumerate(self._op)
        ]
        # Traced and occupancy-tracked runs interpret: only the
        # interpreter carries those hooks.
        self._take_kernels(
            None if record_trace or track_occupancy else kernels, n)

    def _interpret(self) -> None:
        fire = self._fire_instr  # one bound method for every row
        self._fire_fns: List[Callable] = [
            partial(fire, nid) for nid in range(len(self._op))
        ]

    def _bind(self, kernels) -> None:
        self._fire_fns = kernels.bind(self)

    # ------------------------------------------------------------------
    def _execute(self, args: List[object]) -> tuple:
        # The entry tokens deposit at the top of the first cycle.
        pending = self._pending
        for value, dests in zip(args, self.graph.entry_sources):
            for dest_id, port in dests:
                pending.append((dest_id, port, ROOT_TAG, value))
            self._livebox[0] += len(dests)
        completed = self._run_loop()

        results = tuple(
            self._results.get(i)
            for i in range(len(self.graph.result_nodes))
        )
        extra = {
            "policy": self.policy.describe(),
            "issue_width": self.issue_width,
            "peak_store_occupancy": dict(self._peak_occupancy),
            "pool_stats": [
                PoolStats(p.name, p.capacity, p.peak_in_use,
                          p.total_allocations)
                for p in self._unique_pools
            ],
            "leftover_tags_in_use": sum(
                p.in_use for p in self._unique_pools
            ),
        }
        return completed, results, extra

    def _node_label(self, nid: int) -> str:
        return f"{self._op[nid].value}@{self._block[nid]}#{nid}"

    def _run_loop(self) -> bool:
        """The cycle loop of every run: kernel, interpreted, traced
        and profiled runs differ only in the fire table.

        Each cycle first deposits the tokens sent in the cycle before
        (on the first cycle the entry tokens, after a memory stall
        its matured loads) through the one deposit rule, inlined
        here, and wakes the allocates waiting on pools freed in the
        cycle before. It then issues up to ``issue_width`` ready
        events, whose tokens wait in ``_pending`` for the next
        cycle's deposits, moves the loads due this cycle there too,
        and samples IPC and live tokens. The recorder's counters live
        in locals (:meth:`MetricsRecorder.counters`), with the RLE
        trace appends inlined, and are committed before a memory stall,
        before a deadlock diagnosis and in the ``finally``, so a
        raising run leaves the same counts. ``metrics.cycles`` is
        synced every cycle when a firing reads it: delayed loads
        schedule their due cycle from it, and traces stamp events with
        it. The counters are reloaded after :meth:`_stall_for_memory`,
        which samples the stall through the recorder.

        An occupancy-tracked run counts the pending tokens into their
        blocks' store occupancy before they deposit
        (:meth:`_count_stores`).

        A profiled run notes each firing's node and closes each cycle
        through :meth:`EngineProfiler.end_cycle`: a cycle that fires
        nothing popped only failed allocates, so it is
        ``tag_starved``.

        An interpreted run with kernels pending hands off to them at
        the end of the cycle that brings its instructions to
        ``_handoff``, and runs on in this loop with the same locals and
        the same pending tokens.
        """
        metrics = self.metrics
        ready = self._ready
        popleft = ready.popleft
        ready_append = ready.append
        livebox = self._livebox
        pending = self._pending
        dep = self._dep
        delayed = self._delayed
        dirty = self._dirty_pools
        wake = self._wake_waiters
        fire_fns = self._fire_fns
        fire_alloc_pop = self._fire_alloc_pop
        fire_alloc_ctl = self._fire_alloc_ctl
        deposit_alloc = self._deposit_alloc
        count_stores = self._count_stores if self._track_occupancy \
            else None
        handoff = self._handoff
        issue_width = self.issue_width
        token_bound = self._token_bound
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        sync = self._rule == TIMED or self.trace is not None
        sample_traces = metrics.sample_traces
        commit = metrics.commit
        (cycles, instructions, peak_live, live_sum,
         ipc_vals, ipc_counts, live_vals, live_counts) = metrics.counters()
        prof = self._profiler
        if prof is not None:
            note = prof.noted.append
            end_cycle = prof.end_cycle
        try:
            while True:
                if pending:
                    if count_stores is not None:
                        count_stores()
                    for nid, port, tag, data in pending:
                        kind, store, n_ports, imms = dep[nid]
                        if kind == _DEP_PLAIN:
                            entry = store.get(tag)
                            if entry is None:
                                store[tag] = {port: data}
                                if n_ports == 1:
                                    ready_append((nid, tag, _FIRE))
                            else:
                                entry[port] = data
                                if len(entry) == n_ports:
                                    ready_append((nid, tag, _FIRE))
                        elif kind == _DEP_MERGE:
                            entry = store.get(tag)
                            if entry is None:
                                store[tag] = entry = {}
                            entry[port] = data
                            if 0 in entry:
                                want = 1 if entry[0] else 2
                                if want in entry or want in imms:
                                    ready_append((nid, tag, _FIRE))
                        else:  # _DEP_ALLOC
                            deposit_alloc(nid, port, tag)
                    del pending[:]
                if dirty:
                    pools = dirty[:]
                    del dirty[:]
                    for pool in pools:
                        wake(pool)
                if not ready:
                    if delayed:
                        # Memory in flight: skip to its first due cycle.
                        commit(cycles, instructions, peak_live, live_sum)
                        try:
                            self._stall_for_memory()
                        finally:
                            (cycles, instructions, peak_live,
                             live_sum) = metrics.counters()[:4]
                        continue
                    if self._is_finished():
                        return True
                    commit(cycles, instructions, peak_live, live_sum)
                    self._raise_deadlock()
                fired = 0
                budget = issue_width
                while ready and budget > 0:
                    nid, tag, action = popleft()
                    if action == _FIRE:
                        fire_fns[nid](tag)
                    elif action == _ALLOC_POP:
                        if not fire_alloc_pop(nid, tag):
                            continue
                    else:  # _ALLOC_CTL
                        fire_alloc_ctl(nid, tag)
                    fired += 1
                    budget -= 1
                    if prof is not None:
                        note(nid)
                matured = delayed.pop(cycles, None) if delayed else None
                if matured:
                    pending.extend(matured)
                live = livebox[0]
                cycles += 1
                instructions += fired
                if prof is not None:
                    if not fired:
                        end_cycle("tag_starved")
                    elif budget == 0 and ready:
                        # Firing adds nothing to the queue: what is
                        # left is what the width held back.
                        end_cycle("width_limited")
                    else:
                        end_cycle("fired")
                if fired:
                    idle_streak = 0
                elif not delayed:
                    # A cycle waiting on memory is not a wedged one.
                    idle_streak += 1
                    if idle_streak >= wd_horizon:
                        commit(cycles, instructions, peak_live, live_sum)
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
                if token_bound is not None and live > token_bound:
                    raise TokenBoundExceeded(
                        f"live tokens {live} exceed Theorem 2 bound "
                        f"{token_bound}"
                    )
                # A run that finished on its last allowed cycle
                # completes; tokens not yet deposited are work left.
                if cycles >= max_cycles and (ready or pending
                                             or not self._is_finished()):
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}"
                    )
                if instructions >= handoff:
                    handoff = NO_HANDOFF
                    self._hand_off()
                    fire_fns = self._fire_fns
        finally:
            commit(cycles, instructions, peak_live, live_sum)

    def _stall_for_memory(self) -> None:
        """Idle until the earliest in-flight load response matures,
        and move it into ``_pending``: the loop deposits it.

        Equivalent to sampling ``(0, live)`` once per stalled cycle,
        but batched; like the per-cycle loop it enforces
        ``max_cycles`` and the Theorem-2 token bound, so a simulation
        cannot spin past its cycle budget inside a memory stall. A
        profiled stall that returns books itself
        (:meth:`EngineProfiler.memory_stall`).
        """
        metrics = self.metrics
        start = metrics.cycles
        due = min(self._delayed)
        live = self._livebox[0]
        if self.max_cycles <= due:
            metrics.sample_idle(live, self.max_cycles - metrics.cycles)
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        metrics.sample_idle(live, due + 1 - metrics.cycles)
        if self._token_bound is not None and live > self._token_bound:
            raise TokenBoundExceeded(
                f"live tokens {live} exceed Theorem 2 bound "
                f"{self._token_bound}"
            )
        self._pending.extend(self._delayed.pop(due))
        if metrics.cycles >= self.max_cycles and not self._is_finished():
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        if self._profiler is not None:
            self._profiler.memory_stall(
                start, metrics.cycles,
                self._miss_until if self._cache is not None else None)

    # ------------------------------------------------------------------
    def _is_finished(self) -> bool:
        return (not self._pending and not self._delayed
                and self._livebox[0] == 0 and not self._alloc_state)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        diagnosis = analyze_deadlock(self, watchdog=watchdog)
        raise DeadlockError(diagnosis.describe(), diagnosis)

    # ------------------------------------------------------------------
    def _emit(self, nid: int, port: int, tag: object,
              data: object) -> None:
        """Send ``data`` at ``tag`` along every edge of ``nid``'s
        output ``port``; it deposits next cycle."""
        edges = self._edges[nid][port]
        if not edges:
            return  # token discarded (no consumers)
        append = self._pending.append
        for dest_id, dest_port in edges:
            append((dest_id, dest_port, tag, data))
        self._livebox[0] += len(edges)
        if self.trace is not None:
            self._note_producer(edges, tag)

    def _note_producer(self, dests, tag: object) -> None:
        """Trace: the event now firing sent a token at ``tag`` to each
        of ``dests``. The consumer's event takes the note when it
        fires."""
        src = self._cur_event
        notes = self._wait_src
        for dest_id, dest_port in dests:
            notes.setdefault((dest_id, tag), {})[dest_port] = src

    def _record(self, nid: int, tag: object, op: str,
                sources: Dict[int, int]) -> None:
        """Trace: record ``nid``'s firing at ``tag``, fed by the events
        in ``sources``, as the event now firing."""
        self._cur_event = self.trace.record(
            self.metrics.cycles, nid, self._block[nid], op, tag, sources)

    def _count_stores(self) -> None:
        """Occupancy tracking: count the pending tokens into their
        blocks' wait-store occupancy before they deposit (an allocate
        stores nothing), and keep each block's peak."""
        occupancy = self._occupancy
        peak = self._peak_occupancy
        block = self._block
        dep = self._dep
        for token in self._pending:
            nid = token[0]
            if dep[nid][0] != _DEP_ALLOC:
                name = block[nid]
                count = occupancy[name] = occupancy[name] + 1
                if count > peak[name]:
                    peak[name] = count

    # ------------------------------------------------------------------
    # Allocate state machine (paper Sec. IV-A firing rule)
    # ------------------------------------------------------------------
    def _deposit_alloc(self, nid: int, port: int, tag: object) -> None:
        key = (nid, tag)
        st = self._alloc_state.get(key)
        if st is None:
            st = _AllocState()
            self._alloc_state[key] = st
        if port == 0:
            st.request = True
        else:
            st.ready = True
            if st.popped and not st.ctl_scheduled:
                st.ctl_scheduled = True
                self._ready.append((nid, tag, _ALLOC_CTL))
                return
        if st.request and not st.popped and not st.scheduled:
            pool = self._alloc_pool[nid]
            if pool.can_pop(st.ready, self._alloc_spare[nid]):
                st.scheduled = True
                # A stale queue entry (if any) is skipped by
                # _wake_waiters since waiting is cleared here.
                st.waiting = False
                self._ready.append((nid, tag, _ALLOC_POP))
            elif not st.waiting:
                st.waiting = True
                self._waiters[id(pool)].append(key)

    def _fire_alloc_pop(self, nid: int, tag: object) -> bool:
        key = (nid, tag)
        st = self._alloc_state[key]
        pool = self._alloc_pool[nid]
        st.scheduled = False
        if not pool.can_pop(st.ready, self._alloc_spare[nid]):
            # Another allocation took the tag this cycle; wait for a
            # free.
            if not st.waiting:
                st.waiting = True
                self._waiters[id(pool)].append(key)
            return False
        if self.trace is not None:
            sources = self._wait_src.pop(key, {})
            if not st.ready and 1 in sources:
                # The ready token is sent but not deposited: the
                # control firing that consumes it takes its note.
                self._wait_src[key] = {1: sources.pop(1)}
            self._record(nid, tag, "allocate", sources)
        new_tag = pool.pop()
        if pool.capacity is not None:
            pool.holders[new_tag] = (nid, tag)
        st.popped = True
        st.waiting = False
        self._livebox[0] -= 1  # the request token is consumed
        self._emit(nid, 0, tag, new_tag)
        if st.ready:
            self._livebox[0] -= 1  # the ready token is consumed
            self._emit(nid, 1, tag, 0)
            del self._alloc_state[key]
        return True

    def _fire_alloc_ctl(self, nid: int, tag: object) -> None:
        key = (nid, tag)
        if self.trace is not None:
            self._record(nid, tag, "allocate",
                         self._wait_src.pop(key, {}))
        self._livebox[0] -= 1  # consume the late ready token
        self._emit(nid, 1, tag, 0)
        del self._alloc_state[key]

    def _wake_waiters(self, pool: TagPool) -> None:
        waiters = self._waiters[id(pool)]
        if not waiters:
            return
        still_waiting: Deque[Tuple[int, object]] = deque()
        while waiters:
            key = waiters.popleft()
            st = self._alloc_state.get(key)
            if st is None or st.popped or st.scheduled or not st.waiting:
                continue
            nid = key[0]
            if pool.can_pop(st.ready, self._alloc_spare[nid]):
                st.scheduled = True
                st.waiting = False
                self._ready.append((key[0], key[1], _ALLOC_POP))
            else:
                still_waiting.append(key)
        self._waiters[id(pool)] = still_waiting

    # ------------------------------------------------------------------
    # The interpreter's firing rule: one plain rule for every node
    # ------------------------------------------------------------------
    def _fire_instr(self, nid: int, tag: object) -> None:
        op = self._op[nid]
        if self.trace is not None:
            self._record(nid, tag, op.value,
                         self._wait_src.pop((nid, tag), {}))
        entry = self._wait[nid].pop(tag)
        self._livebox[0] -= len(entry)
        if self._track_occupancy:
            self._occupancy[self._block[nid]] -= len(entry)
        imms = self._imms[nid]

        if op is _MERGE:
            d = entry[0]
            chosen = 1 if d else 2
            data = entry[chosen] if chosen in entry else imms[chosen]
            self._emit(nid, 0, tag, data)
            return
        if op is _STEER:
            d = entry.get(0, imms.get(0))
            value = entry.get(1, imms.get(1))
            attrs = self._attrs[nid]
            if bool(d) == bool(attrs["sense"]):
                self._emit(nid, 0, tag, value)
            self._emit(nid, 1, tag, 0)
            return

        # Assemble inputs in port order for the remaining ops.
        n_in = self._n_inputs[nid]
        inputs = [
            entry[p] if p in entry else imms[p] for p in range(n_in)
        ]
        if op is _LOAD:
            attrs = self._attrs[nid]
            value = self.memory.load(attrs["array"], inputs[0])
            timing = self._timing
            delay = timing.access_load(attrs["array"], inputs[0])
            if delay >= timing.miss_latency:
                due_end = self.metrics.cycles + delay
                if due_end > self._miss_until[0]:
                    self._miss_until[0] = due_end
            if delay <= 1:
                self._emit(nid, 0, tag, value)
                self._emit(nid, 1, tag, 0)
            else:
                due = self.metrics.cycles + delay - 1
                bucket = self._delayed.setdefault(due, [])
                for port, data in ((0, value), (1, 0)):
                    edges = self._edges[nid][port]
                    for dest_id, dest_port in edges:
                        bucket.append((dest_id, dest_port, tag, data))
                    self._livebox[0] += len(edges)
                    if self.trace is not None:
                        self._note_producer(edges, tag)
        elif op is _STORE:
            attrs = self._attrs[nid]
            self.memory.store(attrs["array"], inputs[0], inputs[1])
            self._timing.access_store(attrs["array"], inputs[0])
            self._emit(nid, 0, tag, 0)
        elif op is _JOIN:
            self._emit(nid, 0, tag, inputs[0])
        elif op is _CHANGE_TAG:
            table = self._attrs[nid].get("route_table")
            if table is None:
                self._emit(nid, 0, inputs[0], inputs[1])
            else:
                # Dynamic-destination changeTag (multi-caller returns).
                dests = table.get(inputs[2], ())
                if dests:
                    append = self._pending.append
                    for dest_id, dest_port in dests:
                        append((dest_id, dest_port, inputs[0],
                                inputs[1]))
                    self._livebox[0] += len(dests)
                    if self.trace is not None:
                        self._note_producer(dests, inputs[0])
            self._emit(nid, 1, tag, 0)
        elif op is _EXTRACT_TAG:
            self._emit(nid, 0, tag, tag)
        elif op is _FREE:
            pool = self._free_pool[nid]
            pool.push(tag)
            if pool not in self._dirty_pools:
                self._dirty_pools.append(pool)
        else:
            info = OP_INFO[op]
            if not info.pure:
                raise SimulationError(f"cannot execute {op.value}")
            value = info.evaluate(*inputs)
            attrs = self._attrs[nid]
            idx = attrs.get("result_index")
            if idx is not None:
                self._results[idx] = value
            self._emit(nid, 0, tag, value)
