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
``(nid, tag)`` tuples; firing goes through a per-node dispatch table
of closures specialized at construction (no per-firing branching on
``Op``); emission appends into a persistent pending buffer whose
``append`` is captured once per node; and trace/occupancy
instrumentation is selected once at construction, so the default
configuration pays nothing for it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError, TokenBoundExceeded
from repro.compiler.graph import TaggedGraph
from repro.ir.ops import OP_INFO, Op
from repro.sim.latency import load_delay
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler
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


class TaggedEngine:
    """Simulates one execution of an elaborated graph.

    The engine binds ``memory`` and the graph tables into per-node
    closures at construction; neither may be swapped afterwards.
    """

    def __init__(self, graph: TaggedGraph, memory: Memory,
                 policy: TagPolicy, issue_width: int = 128,
                 sample_traces: bool = True,
                 check_token_bound: bool = False,
                 track_occupancy: bool = False,
                 record_trace: bool = False,
                 load_latency: int = 1,
                 max_cycles: int = 50_000_000,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        self.graph = graph
        self.memory = memory
        self.policy = policy
        self.issue_width = issue_width
        self.load_latency = load_latency
        self.max_cycles = max_cycles
        #: Optional stateful cache model (repro.sim.cache.CacheModel);
        #: when set, load delays come from cache probes instead of the
        #: load_delay hash and stores probe it too.
        self._cache = cache
        #: First cycle index no longer stalled by the latest last-level
        #: miss (cache mode only); the profiled loop splits its
        #: memory_stall attribution into hit/miss at this boundary.
        self._miss_until: List[int] = [0]
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        #: Opt-in stall/hotspot attribution; ``run`` selects a
        #: profiled cycle loop iff this is set, so the default path
        #: carries no profiling branches.
        self._profiler = EngineProfiler() if profile else None

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
            if nd.op is Op.ALLOCATE:
                self._alloc_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]
                self._alloc_spare[nd.node_id] = bool(nd.attrs["spare"])
            elif nd.op is Op.FREE:
                self._free_pool[nd.node_id] = self.pools[
                    nd.attrs["tagspace"]
                ]

        # Dynamic state. The containers below are captured by the
        # per-node closures and MUST stay the same objects for the
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
        #: (nid, tag) -> {port: producing event id} (tracing only).
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

        # Instrumentation is selected exactly once, here: the fast
        # path (the default) carries no trace/occupancy conditionals
        # at all; pending tokens are 4-tuples. The instrumented path
        # threads the producing event id through 5-tuples.
        self._instrumented = record_trace or track_occupancy
        #: Generated plan kernels (repro.sim.codegen). Used only on
        #: the uninstrumented, unprofiled fast path; every other
        #: configuration falls back to the interpreted closures, which
        #: remain the reference semantics.
        self._kernels = None
        if self._instrumented:
            self._drain = self._drain_pending_instr
            self._emit = self._emit_instr
            self._fire_fns: List[Callable] = [
                (lambda tag, nid=nid: self._fire_instr(nid, tag))
                for nid in range(n)
            ]
        else:
            self._drain = self._drain_pending_fast
            self._emit = self._emit_fast
            if kernels is not None and self._profiler is None:
                self._kernels = kernels
                self._fire_fns = kernels.bind(self)
            else:
                self._fire_fns = [
                    self._make_fire(nid) for nid in range(n)
                ]
        #: Firing-rule selector used by the deposit drain loop.
        self._dkind: List[int] = [
            _DEP_ALLOC if op is Op.ALLOCATE
            else _DEP_MERGE if op is Op.MERGE
            else _DEP_PLAIN
            for op in self._op
        ]
        #: Per-node deposit table: (kind, wait store, #token ports,
        #: imms) in one slot so the drain loop does one fetch per token.
        self._dep = [
            (self._dkind[nid], self._wait[nid],
             self._n_token_ports[nid], self._imms[nid])
            for nid in range(n)
        ]

    # ------------------------------------------------------------------
    # ``_live`` stays addressable for diagnostics/tests while the hot
    # closures mutate the underlying one-slot box directly.
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
        pending = self._pending
        for value, dests in zip(args, self.graph.entry_sources):
            for dest_id, port in dests:
                if self._instrumented:
                    pending.append((dest_id, port, ROOT_TAG, value, -1))
                else:
                    pending.append((dest_id, port, ROOT_TAG, value))
                self._livebox[0] += 1
        self._apply_pending()

        if self._profiler is not None:
            completed = self._run_loop_profiled()
        elif self._kernels is not None:
            completed = self._kernels.run_loop(self)
        else:
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
        if self._profiler is not None:
            op = self._op
            block = self._block
            extra["profile"] = self._profiler.finish(
                "tagged", self.metrics.cycles,
                self.metrics.instructions,
                lambda nid: f"{op[nid].value}@{block[nid]}#{nid}",
            )
        return self.metrics.result("tagged", completed, results, extra)

    def _run_loop(self) -> bool:
        """The default (unprofiled) cycle loop."""
        metrics = self.metrics
        sample = metrics.sample
        ready = self._ready
        livebox = self._livebox
        run_cycle = self._run_cycle
        token_bound = self._token_bound
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        while True:
            if not ready:
                if self._delayed:
                    # Memory in flight: burn cycles until it returns.
                    self._stall_for_memory()
                    continue
                if self._is_finished():
                    return True
                self._raise_deadlock()
            fired = run_cycle()
            sample(fired, livebox[0])
            if fired:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= wd_horizon and not self._delayed:
                    self._raise_deadlock(watchdog=idle_streak)
            if (token_bound is not None
                    and livebox[0] > token_bound):
                raise TokenBoundExceeded(
                    f"live tokens {livebox[0]} exceed Theorem 2 bound "
                    f"{token_bound}"
                )
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _run_loop_profiled(self) -> bool:
        """The cycle loop with stall/hotspot attribution.

        Identical timing and semantics to :meth:`_run_loop` (the
        profiler only observes); every ``sample`` pairs with exactly
        one ``end_cycle`` and every ``sample_idle`` batch with one
        ``idle``, which is what makes the reason counts sum to
        ``cycles``.
        """
        prof = self._profiler
        end_cycle = prof.end_cycle
        metrics = self.metrics
        sample = metrics.sample
        ready = self._ready
        livebox = self._livebox
        run_cycle = self._run_cycle_profiled
        token_bound = self._token_bound
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        miss_until = self._miss_until if self._cache is not None \
            else None
        while True:
            if not ready:
                if self._delayed:
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
                if self._is_finished():
                    return True
                self._raise_deadlock()
            fired, width_limited, tag_blocked = run_cycle()
            sample(fired, livebox[0])
            if fired:
                end_cycle("width_limited" if width_limited
                          else "fired")
            elif tag_blocked:
                end_cycle("tag_starved")
            elif livebox[0] > 0 or self._pending or self._delayed:
                end_cycle("waiting_operands")
            else:
                end_cycle("idle")
            if fired:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= wd_horizon and not self._delayed:
                    self._raise_deadlock(watchdog=idle_streak)
            if (token_bound is not None
                    and livebox[0] > token_bound):
                raise TokenBoundExceeded(
                    f"live tokens {livebox[0]} exceed Theorem 2 bound "
                    f"{token_bound}"
                )
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _stall_for_memory(self) -> None:
        """Idle until the earliest in-flight load response matures.

        Equivalent to sampling ``(0, live)`` once per stalled cycle,
        but batched; unlike the original per-cycle loop it enforces
        ``max_cycles`` and the Theorem-2 token bound, so a simulation
        can no longer spin past its cycle budget inside a memory
        stall.
        """
        metrics = self.metrics
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
        if metrics.cycles >= self.max_cycles:
            raise SimulationError(
                f"exceeded max_cycles={self.max_cycles}"
            )
        self._pending.extend(self._delayed.pop(due))
        self._drain()

    # ------------------------------------------------------------------
    def _is_finished(self) -> bool:
        return (not self._pending and not self._delayed
                and self._livebox[0] == 0 and not self._alloc_state)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        diagnosis = analyze_deadlock(self, watchdog=watchdog)
        raise DeadlockError(diagnosis.describe(), diagnosis)

    # ------------------------------------------------------------------
    def _run_cycle(self) -> int:
        fired = 0
        budget = self.issue_width
        ready = self._ready
        popleft = ready.popleft
        fire_fns = self._fire_fns
        while ready and budget > 0:
            nid, tag, action = popleft()
            if action == _FIRE:
                fire_fns[nid](tag)
                fired += 1
                budget -= 1
            elif action == _ALLOC_POP:
                if self._fire_alloc_pop(nid, tag):
                    fired += 1
                    budget -= 1
            else:  # _ALLOC_CTL
                self._fire_alloc_ctl(nid, tag)
                fired += 1
                budget -= 1
        self._apply_pending()
        return fired

    def _run_cycle_profiled(self) -> Tuple[int, bool, bool]:
        """:meth:`_run_cycle` plus attribution signals.

        Returns ``(fired, width_limited, tag_blocked)``:
        ``width_limited`` when ready work remained after the issue
        budget ran out, ``tag_blocked`` when an allocate pop failed on
        an exhausted tag pool this cycle.
        """
        prof_fire = self._profiler.fire
        fired = 0
        budget = self.issue_width
        ready = self._ready
        popleft = ready.popleft
        fire_fns = self._fire_fns
        tag_blocked = False
        while ready and budget > 0:
            nid, tag, action = popleft()
            if action == _FIRE:
                fire_fns[nid](tag)
                fired += 1
                budget -= 1
                prof_fire(nid)
            elif action == _ALLOC_POP:
                if self._fire_alloc_pop(nid, tag):
                    fired += 1
                    budget -= 1
                    prof_fire(nid)
                else:
                    tag_blocked = True
            else:  # _ALLOC_CTL
                self._fire_alloc_ctl(nid, tag)
                fired += 1
                budget -= 1
                prof_fire(nid)
        width_limited = budget == 0 and bool(ready)
        self._apply_pending()
        return fired, width_limited, tag_blocked

    def _apply_pending(self) -> None:
        matured = self._delayed.pop(self.metrics.cycles, None)
        if matured:
            self._pending.extend(matured)
        if self._pending:
            self._drain()
        if self._dirty_pools:
            dirty = self._dirty_pools[:]
            del self._dirty_pools[:]
            for pool in dirty:
                self._wake_waiters(pool)

    def _drain_pending_fast(self) -> None:
        """Deposit every buffered token (fast path, 4-tuples).

        ``_dep`` packs each node's firing-rule selector, wait-store
        slot, token-port count, and immediates into one tuple so a
        deposit costs a single table fetch.
        """
        pending = self._pending
        dep = self._dep
        ready_append = self._ready.append
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
                self._deposit_alloc(nid, port, tag)
        del pending[:]

    def _drain_pending_instr(self) -> None:
        """Deposit every buffered token (instrumented, 5-tuples)."""
        pending = self._pending[:]
        del self._pending[:]
        for nid, port, tag, data, src in pending:
            self._deposit_instr(nid, port, tag, data, src)

    # ------------------------------------------------------------------
    def _emit_fast(self, nid: int, port: int, tag: object,
                   data: object) -> None:
        edges = self._edges[nid][port]
        if not edges:
            return  # token discarded (no consumers)
        append = self._pending.append
        for dest_id, dest_port in edges:
            append((dest_id, dest_port, tag, data))
        self._livebox[0] += len(edges)

    def _emit_instr(self, nid: int, port: int, tag: object,
                    data: object) -> None:
        edges = self._edges[nid][port]
        if not edges:
            return
        append = self._pending.append
        src = self._cur_event
        for dest_id, dest_port in edges:
            append((dest_id, dest_port, tag, data, src))
        self._livebox[0] += len(edges)

    def _deposit_instr(self, nid: int, port: int, tag: object,
                       data: object, src: int = -1) -> None:
        op = self._op[nid]
        if self.trace is not None and src >= 0:
            self._wait_src.setdefault((nid, tag), {})[port] = src
        if op is Op.ALLOCATE:
            self._deposit_alloc(nid, port, tag)
            return
        store = self._wait[nid]
        entry = store.get(tag)
        if entry is None:
            entry = {}
            store[tag] = entry
        entry[port] = data
        if self._track_occupancy:
            block = self._block[nid]
            occ = self._occupancy[block] + 1
            self._occupancy[block] = occ
            if occ > self._peak_occupancy[block]:
                self._peak_occupancy[block] = occ
        if op is Op.MERGE:
            if 0 in entry:
                want = 1 if entry[0] else 2
                if want in entry or want in self._imms[nid]:
                    self._ready.append((nid, tag, _FIRE))
        elif len(entry) == self._n_token_ports[nid]:
            self._ready.append((nid, tag, _FIRE))

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
            self._cur_event = self.trace.record(
                self.metrics.cycles, nid, self._block[nid],
                "allocate", tag,
                self._wait_src.pop((nid, tag), {}),
            )
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
    # Ordinary instruction firing: per-node dispatch closures
    # ------------------------------------------------------------------
    def _make_fire(self, nid: int) -> Callable[[object], None]:
        """Build the firing closure for node ``nid`` (fast path).

        All per-node constants -- wait store slot, output edge lists,
        immediates, attributes, the pending buffer's ``append`` -- are
        bound here, once, so a firing does no table lookups and no
        opcode dispatch.
        """
        op = self._op[nid]
        store = self._wait[nid]
        livebox = self._livebox
        append = self._pending.append
        edges = self._edges[nid]
        imms = self._imms[nid]
        attrs = self._attrs[nid]
        n_in = self._n_inputs[nid]

        if op is Op.MERGE:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_merge(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                chosen = 1 if entry[0] else 2
                data = entry[chosen] if chosen in entry else imms[chosen]
                for d in edges0:
                    append((d[0], d[1], tag, data))
                livebox[0] += n0
            return fire_merge

        if op is Op.STEER:
            edges0, edges1 = edges[0], edges[1]
            n0, n1 = len(edges0), len(edges1)
            sense = bool(attrs["sense"])
            imm0, imm1 = imms.get(0), imms.get(1)

            def fire_steer(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                d = entry[0] if 0 in entry else imm0
                value = entry[1] if 1 in entry else imm1
                if bool(d) == sense:
                    for e in edges0:
                        append((e[0], e[1], tag, value))
                    livebox[0] += n0
                for e in edges1:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n1
            return fire_steer

        if op is Op.LOAD:
            edges0, edges1 = edges[0], edges[1]
            n0, n1 = len(edges0), len(edges1)
            array = attrs["array"]
            mem_load = self.memory.load
            if self._cache is not None:
                cache_load = self._cache.access_load
                miss_latency = self._cache.miss_latency
                miss_until = self._miss_until
                metrics = self.metrics
                delayed = self._delayed

                def fire_load_cached(tag):
                    entry = store.pop(tag)
                    livebox[0] -= len(entry)
                    addr = entry[0] if 0 in entry else imms[0]
                    value = mem_load(array, addr)
                    delay = cache_load(array, addr)
                    if delay <= 1:
                        for e in edges0:
                            append((e[0], e[1], tag, value))
                        for e in edges1:
                            append((e[0], e[1], tag, 0))
                    else:
                        due = metrics.cycles + delay - 1
                        if delay >= miss_latency \
                                and due + 1 > miss_until[0]:
                            miss_until[0] = due + 1
                        bucket = delayed.get(due)
                        if bucket is None:
                            delayed[due] = bucket = []
                        for e in edges0:
                            bucket.append((e[0], e[1], tag, value))
                        for e in edges1:
                            bucket.append((e[0], e[1], tag, 0))
                    livebox[0] += n0 + n1
                return fire_load_cached

            if self.load_latency <= 1:
                def fire_load(tag):
                    entry = store.pop(tag)
                    livebox[0] -= len(entry)
                    addr = entry[0] if 0 in entry else imms[0]
                    value = mem_load(array, addr)
                    for e in edges0:
                        append((e[0], e[1], tag, value))
                    for e in edges1:
                        append((e[0], e[1], tag, 0))
                    livebox[0] += n0 + n1
                return fire_load

            latency = self.load_latency
            metrics = self.metrics
            delayed = self._delayed

            def fire_load_variable(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                addr = entry[0] if 0 in entry else imms[0]
                value = mem_load(array, addr)
                delay = load_delay(latency, array, addr)
                if delay <= 1:
                    for e in edges0:
                        append((e[0], e[1], tag, value))
                    for e in edges1:
                        append((e[0], e[1], tag, 0))
                else:
                    due = metrics.cycles + delay - 1
                    bucket = delayed.get(due)
                    if bucket is None:
                        delayed[due] = bucket = []
                    for e in edges0:
                        bucket.append((e[0], e[1], tag, value))
                    for e in edges1:
                        bucket.append((e[0], e[1], tag, 0))
                livebox[0] += n0 + n1
            return fire_load_variable

        if op is Op.STORE:
            edges0 = edges[0]
            n0 = len(edges0)
            array = attrs["array"]
            mem_store = self.memory.store
            if self._cache is not None:
                cache_store = self._cache.access_store

                def fire_store_cached(tag):
                    entry = store.pop(tag)
                    livebox[0] -= len(entry)
                    addr = entry[0] if 0 in entry else imms[0]
                    value = entry[1] if 1 in entry else imms[1]
                    mem_store(array, addr, value)
                    cache_store(array, addr)
                    for e in edges0:
                        append((e[0], e[1], tag, 0))
                    livebox[0] += n0
                return fire_store_cached

            def fire_store(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                addr = entry[0] if 0 in entry else imms[0]
                value = entry[1] if 1 in entry else imms[1]
                mem_store(array, addr, value)
                for e in edges0:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n0
            return fire_store

        if op is Op.JOIN:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_join(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                value = entry[0] if 0 in entry else imms[0]
                for e in edges0:
                    append((e[0], e[1], tag, value))
                livebox[0] += n0
            return fire_join

        if op is Op.CHANGE_TAG:
            edges1 = edges[1]
            n1 = len(edges1)
            table = attrs.get("route_table")
            if table is None:
                edges0 = edges[0]
                n0 = len(edges0)

                def fire_change_tag(tag):
                    entry = store.pop(tag)
                    livebox[0] -= len(entry)
                    new_tag = entry[0] if 0 in entry else imms[0]
                    data = entry[1] if 1 in entry else imms[1]
                    for e in edges0:
                        append((e[0], e[1], new_tag, data))
                    livebox[0] += n0
                    for e in edges1:
                        append((e[0], e[1], tag, 0))
                    livebox[0] += n1
                return fire_change_tag

            # Dynamic-destination changeTag (multi-caller returns).
            table_get = table.get

            def fire_change_tag_routed(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                new_tag = entry[0] if 0 in entry else imms[0]
                data = entry[1] if 1 in entry else imms[1]
                ret = entry[2] if 2 in entry else imms[2]
                dests = table_get(ret, ())
                for e in dests:
                    append((e[0], e[1], new_tag, data))
                livebox[0] += len(dests)
                for e in edges1:
                    append((e[0], e[1], tag, 0))
                livebox[0] += n1
            return fire_change_tag_routed

        if op is Op.EXTRACT_TAG:
            edges0 = edges[0]
            n0 = len(edges0)

            def fire_extract_tag(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                for e in edges0:
                    append((e[0], e[1], tag, tag))
                livebox[0] += n0
            return fire_extract_tag

        if op is Op.FREE:
            pool = self._free_pool[nid]
            dirty = self._dirty_pools

            def fire_free(tag):
                entry = store.pop(tag)
                livebox[0] -= len(entry)
                pool.push(tag)
                if pool not in dirty:
                    dirty.append(pool)
            return fire_free

        info = OP_INFO[op]
        if not info.pure:
            op_name = op.value

            def fire_illegal(tag):
                raise SimulationError(f"cannot execute {op_name}")
            return fire_illegal

        # Pure arithmetic/logic: specialize the common shapes, keep a
        # generic closure for the rest (immediates, results, 3-ary).
        ev = info.evaluate
        edges0 = edges[0]
        n0 = len(edges0)
        result_idx = attrs.get("result_index")
        results = self._results

        if result_idx is None and not imms and n_in == 2:
            def fire_pure2(tag):
                entry = store.pop(tag)
                livebox[0] -= 2
                value = ev(entry[0], entry[1])
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure2

        if result_idx is None and not imms and n_in == 1:
            def fire_pure1(tag):
                entry = store.pop(tag)
                livebox[0] -= 1
                value = ev(entry[0])
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure1

        if result_idx is None and n_in == 2 and len(imms) == 1:
            if 0 in imms:
                imm0 = imms[0]

                def fire_pure_imm0(tag):
                    entry = store.pop(tag)
                    livebox[0] -= 1
                    value = ev(imm0, entry[1])
                    for d in edges0:
                        append((d[0], d[1], tag, value))
                    livebox[0] += n0
                return fire_pure_imm0
            imm1 = imms[1]

            def fire_pure_imm1(tag):
                entry = store.pop(tag)
                livebox[0] -= 1
                value = ev(entry[0], imm1)
                for d in edges0:
                    append((d[0], d[1], tag, value))
                livebox[0] += n0
            return fire_pure_imm1

        def fire_pure(tag):
            entry = store.pop(tag)
            livebox[0] -= len(entry)
            value = ev(*[
                entry[p] if p in entry else imms[p] for p in range(n_in)
            ])
            if result_idx is not None:
                results[result_idx] = value
            for d in edges0:
                append((d[0], d[1], tag, value))
            livebox[0] += n0
        return fire_pure

    # ------------------------------------------------------------------
    # Instrumented firing (trace / occupancy builds only)
    # ------------------------------------------------------------------
    def _fire_instr(self, nid: int, tag: object) -> None:
        op = self._op[nid]
        if self.trace is not None:
            self._cur_event = self.trace.record(
                self.metrics.cycles, nid, self._block[nid],
                self._op[nid].value, tag,
                self._wait_src.pop((nid, tag), {}),
            )
        entry = self._wait[nid].pop(tag)
        self._livebox[0] -= len(entry)
        if self._track_occupancy:
            self._occupancy[self._block[nid]] -= len(entry)
        imms = self._imms[nid]

        if op is Op.MERGE:
            d = entry[0]
            chosen = 1 if d else 2
            data = entry[chosen] if chosen in entry else imms[chosen]
            self._emit(nid, 0, tag, data)
            return
        if op is Op.STEER:
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
        if op is Op.LOAD:
            attrs = self._attrs[nid]
            value = self.memory.load(attrs["array"], inputs[0])
            if self._cache is not None:
                delay = self._cache.access_load(attrs["array"],
                                                inputs[0])
                if delay >= self._cache.miss_latency:
                    due_end = self.metrics.cycles + delay
                    if due_end > self._miss_until[0]:
                        self._miss_until[0] = due_end
            else:
                delay = load_delay(self.load_latency, attrs["array"],
                                   inputs[0])
            if delay <= 1:
                self._emit(nid, 0, tag, value)
                self._emit(nid, 1, tag, 0)
            else:
                due = self.metrics.cycles + delay - 1
                bucket = self._delayed.setdefault(due, [])
                src = self._cur_event
                for port, data in ((0, value), (1, 0)):
                    for dest_id, dest_port in self._edges[nid][port]:
                        bucket.append((dest_id, dest_port, tag, data,
                                       src))
                        self._livebox[0] += 1
        elif op is Op.STORE:
            attrs = self._attrs[nid]
            self.memory.store(attrs["array"], inputs[0], inputs[1])
            if self._cache is not None:
                self._cache.access_store(attrs["array"], inputs[0])
            self._emit(nid, 0, tag, 0)
        elif op is Op.JOIN:
            self._emit(nid, 0, tag, inputs[0])
        elif op is Op.CHANGE_TAG:
            table = self._attrs[nid].get("route_table")
            if table is None:
                self._emit(nid, 0, inputs[0], inputs[1])
            else:
                # Dynamic-destination changeTag (multi-caller returns).
                dests = table.get(inputs[2], ())
                if dests:
                    append = self._pending.append
                    src = self._cur_event
                    for dest_id, dest_port in dests:
                        append((dest_id, dest_port, inputs[0],
                                inputs[1], src))
                    self._livebox[0] += len(dests)
            self._emit(nid, 1, tag, 0)
        elif op is Op.EXTRACT_TAG:
            self._emit(nid, 0, tag, tag)
        elif op is Op.FREE:
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
