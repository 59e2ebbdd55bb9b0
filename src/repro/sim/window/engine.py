"""Execution engine for block-window machines (vN, sequential dataflow).

The fetcher walks the dynamic context tree depth-first -- the von
Neumann order -- stalling whenever the next fetch target depends on an
unresolved decider (a conditional transfer point or a loop backedge).
Fetched slices execute internally by the dataflow firing rule with a
shared issue width, and retire strictly in fetch order; at most
``window`` slices may be in flight.

Only *control* gates fetch: data values flow to in-flight blocks as
they are produced, via per-value subscriptions (the analog of
WaveScalar forwarding live values between waves). This is what lets
consecutive loop iterations pipeline inside the window while still
being fundamentally limited to the block-order window -- the behavior
the paper describes for sequential dataflow (Fig. 5c).

``window=1, width=1`` degenerates to a sequential von Neumann machine.

Hot-path layout (see docs/ARCHITECTURE.md, "Simulator performance"):
the same per-node dispatch-closure design as the tagged/queued
engines.  Each static op gets a firing closure specialized at engine
construction -- per-op constants (immediates, consumer lists, output
keys, memory accessors, the pending buffer's ``append``) are bound
once, so a firing does no opcode dispatch and no plan lookups.  The
wait-match store is per-instance (``inst.wait[op_id]``) instead of a
global dict keyed by ``(iid, op_id)`` tuples, and the deposit drain
reads one precomputed descriptor tuple per token
(:attr:`repro.sim.window.plan.BlockPlan.dep`).  Closures are built
once per *static block* and shared by every dynamic instance, so loop
iterations pay nothing for specialization.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.latency import load_delay
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder
from repro.sim.profile import EngineProfiler
from repro.sim.watchdog import watchdog_horizon
from repro.sim.window.plan import (
    BlockPlan,
    Key,
    OpPlan,
    build_plans,
)

#: Shared empty wait entry for ops fired via the only-literal fetch
#: path (never written to; firing closures only read it).
_NO_ENTRY: Dict[int, object] = {}


class _Instance:
    """One dynamic context (block activation)."""

    __slots__ = ("iid", "plan", "env", "fetched", "armed", "subs",
                 "term_fired", "term_decision", "parent", "parent_spawn",
                 "live_slices", "done", "delivered", "wait", "fires",
                 "dep", "fired")

    def __init__(self, iid: int, plan: BlockPlan,
                 parent: Optional["_Instance"],
                 parent_spawn: Optional[int],
                 fires: List[Callable]):
        self.iid = iid
        self.plan = plan
        self.env: Dict[Key, object] = {}
        self.fetched: Set[int] = set()
        self.armed: Set[int] = set()
        #: key -> list of (target instance, target key): forward the
        #: value when it is published here.
        self.subs: Dict[Key, List[Tuple["_Instance", Key]]] = {}
        self.term_fired = False
        self.term_decision: object = None
        self.parent = parent
        self.parent_spawn = parent_spawn
        self.live_slices = 0
        self.done = False
        self.delivered = False
        #: Wait-match store: op id -> {port: value} (slot-indexed per
        #: instance; replaces the engine-global ``(iid, op_id)`` dict).
        self.wait: Dict[int, Dict[int, object]] = {}
        #: The per-plan firing-closure table (shared across instances).
        self.fires = fires
        #: The per-plan deposit-descriptor table (hot alias).
        self.dep = plan.dep
        #: Op ids that have fired (published an output or, for the
        #: loop term, resolved).  The retire scan's "not pending"
        #: check is one int-set lookup instead of tuple-key env
        #: probes; spawn ids land here too when child results arrive
        #: (harmless -- spawns never appear in slices).
        self.fired: Set[int] = set()


class WindowEngine:
    """Simulates vN (window=1,width=1) or sequential dataflow.

    The engine binds ``memory`` and the program's plans into per-node
    closures at construction; neither may be swapped afterwards.
    """

    def __init__(self, program: ContextProgram, memory: Memory,
                 window: int = 8, issue_width: int = 128,
                 fetch_width: Optional[int] = None,
                 sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = 500_000_000,
                 machine_name: Optional[str] = None,
                 profile: bool = False,
                 kernels=None,
                 cache=None):
        if window < 1:
            raise SimulationError("window must be >= 1")
        self.program = program
        self.memory = memory
        self.window = window
        self.issue_width = issue_width
        self.fetch_width = fetch_width if fetch_width else window
        self.load_latency = load_latency
        self.max_cycles = max_cycles
        #: Optional stateful cache model (repro.sim.cache.CacheModel):
        #: load delays come from cache probes, stores probe it too.
        self._cache = cache
        #: First cycle index past the latest last-level miss (cache
        #: mode); bounds the profiled loop's hit/miss stall split.
        self._miss_until: List[int] = [0]
        self.machine_name = machine_name or (
            "vn" if window == 1 and issue_width == 1 else "seqdf"
        )
        self.metrics = MetricsRecorder(sample_traces=sample_traces)
        # run() selects the profiled cycle loop only when set, so the
        # default path has no per-cycle profiling branches.
        self._profiler = EngineProfiler() if profile else None
        self.plans = build_plans(program)

        self._next_iid = 0
        self._instances: Dict[int, _Instance] = {}
        self._ready: Deque[Tuple[_Instance, int]] = deque()
        # The containers below are captured by the firing closures and
        # MUST stay the same objects for the engine's lifetime (mutate
        # in place, never rebind).
        self._pending: List[Tuple[_Instance, int, int, object]] = []
        self._livebox: List[int] = [0]
        #: In-flight slices in fetch order: [instance, slice index,
        #: retire-scan position] (see :meth:`_retire_slices`).
        self._retire: Deque[List] = deque()
        self._stack: List[List] = []  # [instance, item index]
        self._program_results: Dict[int, object] = {}
        self._n_program_results = 0
        #: cycle index -> [(instance, key, value)] loads in flight.
        self._delayed: Dict[int, List[Tuple]] = {}
        # Fetch-stall accounting (why the block order limits
        # parallelism): cycles the fetcher was blocked on an
        # unresolved decider vs. a full window.
        self._stall_decider = 0
        self._stall_window = 0

        #: block name -> list of firing closures, one per op (shared
        #: by every dynamic instance of the block).  With generated
        #: kernels the tables come from the kernel module instead;
        #: profiled runs always interpret (the profiler wraps the
        #: closure path).
        self._kernels = None
        if kernels is not None and self._profiler is None:
            self._kernels = kernels
            self._fire_tables: Dict[str, List[Callable]] = kernels.bind(self)
        else:
            self._fire_tables = {
                name: [self._make_fire(plan, p) for p in plan.ops]
                for name, plan in self.plans.items()
            }

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
        entry_plan = self.plans[self.program.entry]
        if len(args) != entry_plan.n_params:
            raise SimulationError(
                f"entry takes {entry_plan.n_params} args, got {len(args)}"
            )
        self._n_program_results = len(entry_plan.result_refs)
        root = self._make_instance(entry_plan, None, None)
        for i, value in enumerate(args):
            self._publish(root, ("p", i), value)
        # Root result delivery: straight to the program-result table.
        self._register_results(root)
        self._stack.append([root, 0])

        if self._profiler is not None:
            completed = self._run_loop_profiled()
        elif self._kernels is not None:
            completed = self._kernels.run_loop(self)
        else:
            completed = self._run_loop()

        results = tuple(
            self._program_results.get(i)
            for i in range(self._n_program_results)
        )
        extra = {"window": self.window, "issue_width": self.issue_width,
                 "fetch_width": self.fetch_width,
                 "fetch_stall_decider_cycles": self._stall_decider,
                 "fetch_stall_window_cycles": self._stall_window}
        if self._profiler is not None:
            extra["profile"] = self._profiler.finish(
                self.machine_name, self.metrics.cycles,
                self.metrics.instructions, self._node_label,
            )
        return self.metrics.result(self.machine_name, completed, results,
                                   extra)

    def _node_label(self, key: Tuple[str, int]) -> str:
        block, op_id = key
        p = self.plans[block].ops[op_id]
        return f"{p.op.value}@{block}#{op_id}"

    def _run_loop(self) -> bool:
        # The cycle loop is fully inlined (issue, retire, fetch,
        # deposit, metrics sampling): window machines fire ~1
        # instruction per cycle (vN literally so), which makes
        # per-cycle call and attribute overhead -- not the firing
        # closures -- the host bottleneck.
        completed = False
        metrics = self.metrics
        livebox = self._livebox
        ready = self._ready
        popleft = ready.popleft
        ready_append = ready.append
        pending = self._pending
        retire = self._retire
        retire_popleft = retire.popleft
        delayed = self._delayed
        fetch = self._fetch
        publish = self._publish
        status = self._op_status
        maybe_release = self._maybe_release
        issue_width = self.issue_width
        fetch_width = self.fetch_width
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        # Metrics are accumulated in locals and committed in the
        # ``finally`` below.  Only variable-latency load closures read
        # ``metrics.cycles`` mid-run (to schedule maturity), so the
        # counter is synced back each cycle exactly in that mode --
        # cache probes schedule maturities the same way.
        sync_cycles = self.load_latency > 1 or self._cache is not None
        traces = metrics.sample_traces
        ipc_append = metrics.ipc_trace.append
        live_append = metrics.live_trace.append
        cycles = metrics.cycles
        instructions = metrics.instructions
        peak_live = metrics._peak_live
        live_sum = metrics._live_sum
        try:
            while True:
                # Issue: fire ready ops up to the shared width.
                fired = 0
                if ready:
                    budget = issue_width
                    while ready and budget > 0:
                        inst, op_id = popleft()
                        inst.fires[op_id](inst)
                        fired += 1
                        budget -= 1
                # Retire completed head-of-window slices, in fetch
                # order.  An op's "not pending" status is monotone
                # (outputs are write-once and a false guard stays
                # false), so each in-flight entry ``[inst, slice ops,
                # scan pos]`` re-checks only from its scan position.
                progressed = False
                while retire:
                    entry = retire[0]
                    inst = entry[0]
                    ops = entry[1]
                    pos = entry[2]
                    n = len(ops)
                    fired_set = inst.fired
                    while pos < n:
                        oid = ops[pos]
                        if oid in fired_set:
                            pos += 1
                            continue
                        if (not inst.plan.guarded[oid]
                                or status(inst, oid) == "pending"):
                            break
                        pos += 1  # guard resolved untaken
                    if pos < n:
                        entry[2] = pos
                        break
                    retire_popleft()
                    inst.live_slices -= 1
                    progressed = True
                    maybe_release(inst)
                # Fetch along the von Neumann block order.
                fc = fetch_width
                while fc:
                    if not fetch():
                        break
                    progressed = True
                    fc -= 1
                # Deposit: matured loads, then this cycle's tokens.
                # The one-cycle buffer is what keeps values fired at
                # cycle N invisible until N+1.  Each token carries its
                # consumer descriptor ``c = (op_id, port, kind,
                # n_ports, slice_index, merge_lit)``
                # (:attr:`repro.sim.window.plan.BlockPlan.consumers`).
                if delayed:
                    matured = delayed.pop(cycles, None)
                    if matured:
                        # Progress: the head slice may retire its
                        # now-fired LOAD next cycle, so this cycle is
                        # not a quiesced machine.
                        progressed = True
                        for inst, key, value in matured:
                            publish(inst, key, value)
                if pending:
                    # Deposits never publish, so nothing appends to
                    # ``pending`` while it drains; iterate in place
                    # and clear.
                    for inst, c, value in pending:
                        op_id = c[0]
                        wait = inst.wait
                        entry = wait.get(op_id)
                        if entry is None:
                            wait[op_id] = entry = {c[1]: value}
                            n_have = 1
                        else:
                            entry[c[1]] = value
                            n_have = len(entry)
                        if c[2]:  # DEP_MERGE
                            if 0 not in entry:
                                continue
                            want = 1 if entry[0] else 2
                            if want not in entry and not c[5][want - 1]:
                                continue
                        elif n_have != c[3]:
                            continue
                        if c[4] in inst.fetched:
                            ready_append((inst, op_id))
                        else:
                            inst.armed.add(op_id)
                    del pending[:]
                if fired == 0 and not progressed and not ready:
                    idle_streak += 1
                    if idle_streak >= wd_horizon and (
                            not delayed or min(delayed) < cycles):
                        # Either quiesced-but-live for the whole
                        # horizon, or waiting on a load whose due
                        # cycle already passed (stale bookkeeping):
                        # wedged either way.
                        metrics.cycles = cycles
                        self._raise_deadlock(watchdog=idle_streak)
                    if delayed:
                        # Idle cycle waiting on in-flight loads.
                        cycles += 1
                        metrics.cycles = cycles
                        live = livebox[0]
                        if live > peak_live:
                            peak_live = live
                        live_sum += live
                        if traces:
                            ipc_append(0)
                            live_append(live)
                        continue
                    if self._is_finished():
                        completed = True
                        break
                    self._raise_deadlock()
                else:
                    idle_streak = 0
                cycles += 1
                if sync_cycles:
                    metrics.cycles = cycles
                instructions += fired
                live = livebox[0]
                if live > peak_live:
                    peak_live = live
                live_sum += live
                if traces:
                    ipc_append(fired)
                    live_append(live)
                if cycles >= max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={self.max_cycles}"
                    )
        finally:
            metrics.cycles = cycles
            metrics.instructions = instructions
            metrics._peak_live = peak_live
            metrics._live_sum = live_sum
        return completed

    def _run_loop_profiled(self) -> bool:
        """:meth:`_run_loop` with stall attribution.

        Samples through :class:`MetricsRecorder` directly instead of
        the locals-accumulation fast path; cycle/instruction totals
        are identical, only host speed differs.
        """
        prof = self._profiler
        end_cycle = prof.end_cycle
        fire_rec = prof.fire
        metrics = self.metrics
        sample = metrics.sample
        livebox = self._livebox
        ready = self._ready
        popleft = ready.popleft
        ready_append = ready.append
        pending = self._pending
        retire = self._retire
        retire_popleft = retire.popleft
        delayed = self._delayed
        fetch = self._fetch
        publish = self._publish
        status = self._op_status
        maybe_release = self._maybe_release
        issue_width = self.issue_width
        fetch_width = self.fetch_width
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        miss_until = (self._miss_until if self._cache is not None
                      else None)
        while True:
            # Issue: fire ready ops up to the shared width.
            fired = 0
            width_limited = False
            if ready:
                budget = issue_width
                while ready and budget > 0:
                    inst, op_id = popleft()
                    inst.fires[op_id](inst)
                    fired += 1
                    budget -= 1
                    fire_rec((inst.plan.name, op_id))
                width_limited = budget == 0 and bool(ready)
            # Retire completed head-of-window slices, in fetch order.
            progressed = False
            while retire:
                entry = retire[0]
                inst = entry[0]
                ops = entry[1]
                pos = entry[2]
                n = len(ops)
                fired_set = inst.fired
                while pos < n:
                    oid = ops[pos]
                    if oid in fired_set:
                        pos += 1
                        continue
                    if (not inst.plan.guarded[oid]
                            or status(inst, oid) == "pending"):
                        break
                    pos += 1  # guard resolved untaken
                if pos < n:
                    entry[2] = pos
                    break
                retire_popleft()
                inst.live_slices -= 1
                progressed = True
                maybe_release(inst)
            # Fetch along the von Neumann block order.
            fc = fetch_width
            while fc:
                if not fetch():
                    break
                progressed = True
                fc -= 1
            # Deposit: matured loads, then this cycle's tokens.
            if delayed:
                matured = delayed.pop(metrics.cycles, None)
                if matured:
                    progressed = True
                    for inst, key, value in matured:
                        publish(inst, key, value)
            if pending:
                for inst, c, value in pending:
                    op_id = c[0]
                    wait = inst.wait
                    entry = wait.get(op_id)
                    if entry is None:
                        wait[op_id] = entry = {c[1]: value}
                        n_have = 1
                    else:
                        entry[c[1]] = value
                        n_have = len(entry)
                    if c[2]:  # DEP_MERGE
                        if 0 not in entry:
                            continue
                        want = 1 if entry[0] else 2
                        if want not in entry and not c[5][want - 1]:
                            continue
                    elif n_have != c[3]:
                        continue
                    if c[4] in inst.fetched:
                        ready_append((inst, op_id))
                    else:
                        inst.armed.add(op_id)
                del pending[:]
            if fired == 0 and not progressed and not ready:
                idle_streak += 1
                if idle_streak >= wd_horizon and (
                        not delayed
                        or min(delayed) < metrics.cycles):
                    self._raise_deadlock(watchdog=idle_streak)
                if delayed:
                    # Idle cycle waiting on in-flight loads (the fast
                    # loop skips the max_cycles check here; mirror it).
                    sample(0, livebox[0])
                    if miss_until is None:
                        end_cycle("memory_stall")
                    else:
                        prof.end_cycle_memory(
                            metrics.cycles <= miss_until[0])
                    continue
                if self._is_finished():
                    return True
                self._raise_deadlock()
            else:
                idle_streak = 0
            sample(fired, livebox[0])
            if fired:
                end_cycle("width_limited" if width_limited else "fired")
            elif delayed:
                if miss_until is None:
                    end_cycle("memory_stall")
                else:
                    prof.end_cycle_memory(
                        metrics.cycles <= miss_until[0])
            elif livebox[0] > 0:
                end_cycle("waiting_operands")
            else:
                end_cycle("idle")
            if metrics.cycles >= max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles}"
                )

    def _is_finished(self) -> bool:
        return (not self._stack and not self._retire
                and not self._pending and not self._delayed
                and self._livebox[0] == 0)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        stuck = [(entry[0].plan.name, entry[1])
                 for entry in self._stack[-4:]]
        via = ("" if watchdog is None else
               f" (progress watchdog: {watchdog} consecutive cycles "
               f"without progress)")
        raise DeadlockError(
            f"window machine stalled{via}: live={self._livebox[0]}, "
            f"in-flight slices={len(self._retire)}, stack tail={stuck}"
        )

    # ------------------------------------------------------------------
    # Instances, publication, and subscriptions
    # ------------------------------------------------------------------
    def _make_instance(self, plan: BlockPlan, parent: Optional[_Instance],
                       parent_spawn: Optional[int]) -> _Instance:
        inst = _Instance(self._next_iid, plan, parent, parent_spawn,
                         self._fire_tables[plan.name])
        self._next_iid += 1
        self._instances[inst.iid] = inst
        return inst

    def _publish(self, inst: _Instance, key: Key, value: object) -> None:
        """Record a value and forward it to consumers and subscribers.

        Cold-path twin of the inlined publishes inside the firing
        closures (used for entry args, matured loads, and bindings);
        any semantic change here must be mirrored in
        :meth:`_make_fire`.
        """
        inst.env[key] = value
        k0 = key[0]
        if k0 != "p":
            inst.fired.add(k0)
        cons = inst.plan.consumers.get(key)
        if cons:
            append = self._pending.append
            for dest in cons:
                append((inst, dest, value))
            self._livebox[0] += len(cons)
        if inst.subs:
            subs = inst.subs.pop(key, None)
            if subs:
                for target, target_key in subs:
                    self._forward(target, target_key, value)

    def _forward(self, target, target_key: Key, value: object) -> None:
        if isinstance(target, _Instance):
            self._publish(target, target_key, value)
        else:  # ("program", index)
            self._program_results[target_key] = value

    def _register_results(self, inst: _Instance) -> None:
        """Arrange delivery of ``inst``'s results to its parent (or the
        program-result table). For loops this is called on the exiting
        iteration only."""
        if inst.delivered:
            return
        inst.delivered = True
        parent = inst.parent
        env = inst.env
        if parent is None:
            results = self._program_results
            for kind, payload, j in inst.plan.result_specs:
                if kind:  # BIND_KEY
                    if payload in env:
                        results[j] = env[payload]
                    else:
                        inst.subs.setdefault(payload, []).append(
                            ("program", j))
                else:
                    results[j] = payload
            return
        spawn = inst.parent_spawn
        publish = self._publish
        for kind, payload, j in inst.plan.result_specs:
            if kind:  # BIND_KEY
                if payload in env:
                    publish(parent, (spawn, j), env[payload])
                else:
                    inst.subs.setdefault(payload, []).append(
                        (parent, (spawn, j)))
            else:
                publish(parent, (spawn, j), payload)

    # ------------------------------------------------------------------
    # Per-op dispatch closures
    # ------------------------------------------------------------------
    def _make_fire(self, bplan: BlockPlan,
                   p: OpPlan) -> Callable[[_Instance], None]:
        """Build the firing closure for one static op (shared by every
        dynamic instance of the block).

        All per-op constants -- immediates, consumer lists, output
        keys, memory accessors, the pending buffer's ``append`` -- are
        bound here, once, so a firing does no opcode dispatch and no
        plan lookups.  Publish semantics (env write, consumer fan-out,
        subscription drain -- in that order) mirror :meth:`_publish`
        exactly.
        """
        op_id = p.op_id
        op = p.op
        imms = p.imms
        livebox = self._livebox
        append = self._pending.append
        forward = self._forward
        key0 = (op_id, 0)
        key1 = (op_id, 1)
        cons0 = tuple(bplan.consumers.get(key0, ()))
        cons1 = tuple(bplan.consumers.get(key1, ()))
        n0 = len(cons0)
        n1 = len(cons1)
        # At fire time a non-MERGE op holds exactly one token per
        # token port (ports are write-once), so the live-token delta
        # of a firing is a closure constant.
        n_t = len(p.token_ports)
        d0 = n0 - n_t
        d1 = n1 - n_t

        if op_id == bplan.term_id:
            lit = imms.get(0)

            def fire_term(inst):
                entry = inst.wait.pop(op_id, _NO_ENTRY)
                livebox[0] -= n_t
                inst.fired.add(op_id)
                inst.term_fired = True
                inst.term_decision = (
                    entry[0] if 0 in entry else lit
                )
            return fire_term

        if op is Op.SPAWN:
            def fire_spawn(inst):  # pragma: no cover - fetch item only
                raise SimulationError(
                    "spawn is a transfer point, not an instruction"
                )
            return fire_spawn

        if op is Op.MERGE:
            def fire_merge(inst):
                entry = inst.wait.pop(op_id, _NO_ENTRY)
                livebox[0] -= len(entry)
                inst.fired.add(op_id)
                chosen = 1 if entry[0] else 2
                value = (entry[chosen] if chosen in entry
                         else imms[chosen])
                inst.env[key0] = value
                for d in cons0:
                    append((inst, d, value))
                livebox[0] += n0
                if inst.subs:
                    subs = inst.subs.pop(key0, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, value)
            return fire_merge

        if op is Op.STEER:
            sense = bool(p.attrs["sense"])
            imm0 = imms.get(0)
            imm1 = imms.get(1)

            def fire_steer(inst):
                entry = inst.wait.pop(op_id, _NO_ENTRY)
                inst.fired.add(op_id)
                decider = entry[0] if 0 in entry else imm0
                value = entry[1] if 1 in entry else imm1
                if bool(decider) == sense:
                    inst.env[key0] = value
                    for d in cons0:
                        append((inst, d, value))
                    livebox[0] += n0
                    if inst.subs:
                        subs = inst.subs.pop(key0, None)
                        if subs:
                            for target, target_key in subs:
                                forward(target, target_key, value)
                inst.env[key1] = 0
                for d in cons1:
                    append((inst, d, 0))
                livebox[0] += d1
                if inst.subs:
                    subs = inst.subs.pop(key1, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, 0)
            return fire_steer

        if op is Op.LOAD:
            array = p.attrs["array"]
            mem_load = self.memory.load
            latency = self.load_latency
            metrics = self.metrics
            delayed = self._delayed
            imm0 = imms.get(0)

            if self._cache is not None:
                # Cache mode: the probe decides the delay; the miss
                # box lets the profiled loop split memory stalls into
                # hit vs. last-level-miss cycles.
                publish = self._publish
                cache_load = self._cache.access_load
                miss_latency = self._cache.miss_latency
                miss_until = self._miss_until

                def fire_load_cached(inst):
                    entry = inst.wait.pop(op_id, _NO_ENTRY)
                    livebox[0] -= n_t
                    addr = entry[0] if 0 in entry else imm0
                    value = mem_load(array, addr)
                    delay = cache_load(array, addr)
                    if delay <= 1:
                        publish(inst, key0, value)
                        publish(inst, key1, 0)
                    else:
                        due = metrics.cycles + delay - 1
                        if (delay >= miss_latency
                                and due + 1 > miss_until[0]):
                            miss_until[0] = due + 1
                        bucket = delayed.get(due)
                        if bucket is None:
                            delayed[due] = bucket = []
                        bucket.append((inst, key0, value))
                        bucket.append((inst, key1, 0))
                return fire_load_cached

            if latency <= 1:
                # Idealized timing: every load publishes immediately
                # (``load_delay`` is the constant 1), so skip the delay
                # computation and inline both publishes.
                def fire_load_fast(inst):
                    entry = inst.wait.pop(op_id, _NO_ENTRY)
                    inst.fired.add(op_id)
                    addr = entry[0] if 0 in entry else imm0
                    value = mem_load(array, addr)
                    inst.env[key0] = value
                    for d in cons0:
                        append((inst, d, value))
                    livebox[0] += d0
                    if inst.subs:
                        subs = inst.subs.pop(key0, None)
                        if subs:
                            for target, target_key in subs:
                                forward(target, target_key, value)
                    inst.env[key1] = 0
                    for d in cons1:
                        append((inst, d, 0))
                    livebox[0] += n1
                    if inst.subs:
                        subs = inst.subs.pop(key1, None)
                        if subs:
                            for target, target_key in subs:
                                forward(target, target_key, 0)
                return fire_load_fast

            publish = self._publish

            def fire_load(inst):
                entry = inst.wait.pop(op_id, _NO_ENTRY)
                livebox[0] -= n_t
                addr = entry[0] if 0 in entry else imm0
                value = mem_load(array, addr)
                delay = load_delay(latency, array, addr)
                if delay <= 1:
                    publish(inst, key0, value)
                    publish(inst, key1, 0)
                else:
                    # Fires only at maturity: ``_publish`` marks
                    # ``inst.fired`` then, keeping the op pending for
                    # the retire scan until the value lands.
                    due = metrics.cycles + delay - 1
                    bucket = delayed.get(due)
                    if bucket is None:
                        delayed[due] = bucket = []
                    bucket.append((inst, key0, value))
                    bucket.append((inst, key1, 0))
            return fire_load

        if op is Op.STORE:
            array = p.attrs["array"]
            mem_store = self.memory.store
            imm0 = imms.get(0)
            imm1 = imms.get(1)
            cache_store = (self._cache.access_store
                           if self._cache is not None else None)

            if cache_store is not None:
                def fire_store_cached(inst):
                    entry = inst.wait.pop(op_id, _NO_ENTRY)
                    inst.fired.add(op_id)
                    addr = entry[0] if 0 in entry else imm0
                    value = entry[1] if 1 in entry else imm1
                    mem_store(array, addr, value)
                    cache_store(array, addr)
                    inst.env[key0] = 0
                    for d in cons0:
                        append((inst, d, 0))
                    livebox[0] += d0
                    if inst.subs:
                        subs = inst.subs.pop(key0, None)
                        if subs:
                            for target, target_key in subs:
                                forward(target, target_key, 0)
                return fire_store_cached

            def fire_store(inst):
                entry = inst.wait.pop(op_id, _NO_ENTRY)
                inst.fired.add(op_id)
                addr = entry[0] if 0 in entry else imm0
                value = entry[1] if 1 in entry else imm1
                mem_store(array, addr, value)
                inst.env[key0] = 0
                for d in cons0:
                    append((inst, d, 0))
                livebox[0] += d0
                if inst.subs:
                    subs = inst.subs.pop(key0, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, 0)
            return fire_store

        info = OP_INFO[op]
        if not info.pure:
            op_name = op.value

            def fire_illegal(inst):
                raise SimulationError(f"cannot execute {op_name}")
            return fire_illegal

        # Pure arithmetic/logic: specialize the common shapes, keep a
        # generic closure for the rest (immediates, 3-ary).
        ev = info.evaluate
        n_in = len(p.inputs)

        if not imms and n_in == 2:
            def fire_pure2(inst):
                entry = inst.wait.pop(op_id)
                inst.fired.add(op_id)
                value = ev(entry[0], entry[1])
                inst.env[key0] = value
                for d in cons0:
                    append((inst, d, value))
                livebox[0] += d0
                if inst.subs:
                    subs = inst.subs.pop(key0, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, value)
            return fire_pure2

        if not imms and n_in == 1:
            def fire_pure1(inst):
                entry = inst.wait.pop(op_id)
                inst.fired.add(op_id)
                value = ev(entry[0])
                inst.env[key0] = value
                for d in cons0:
                    append((inst, d, value))
                livebox[0] += d0
                if inst.subs:
                    subs = inst.subs.pop(key0, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, value)
            return fire_pure1

        if n_in == 2 and len(imms) == 1:
            imm_port = 0 if 0 in imms else 1
            imm = imms[imm_port]
            token_port = 1 - imm_port

            if imm_port == 0:
                def fire_pure_limm(inst):
                    entry = inst.wait.pop(op_id)
                    inst.fired.add(op_id)
                    value = ev(imm, entry[token_port])
                    inst.env[key0] = value
                    for d in cons0:
                        append((inst, d, value))
                    livebox[0] += d0
                    if inst.subs:
                        subs = inst.subs.pop(key0, None)
                        if subs:
                            for target, target_key in subs:
                                forward(target, target_key, value)
                return fire_pure_limm

            def fire_pure_rimm(inst):
                entry = inst.wait.pop(op_id)
                inst.fired.add(op_id)
                value = ev(entry[token_port], imm)
                inst.env[key0] = value
                for d in cons0:
                    append((inst, d, value))
                livebox[0] += d0
                if inst.subs:
                    subs = inst.subs.pop(key0, None)
                    if subs:
                        for target, target_key in subs:
                            forward(target, target_key, value)
            return fire_pure_rimm

        def fire_pure(inst):
            entry = inst.wait.pop(op_id, _NO_ENTRY)
            inst.fired.add(op_id)
            value = ev(*[
                entry[port] if port in entry else imms[port]
                for port in range(n_in)
            ])
            inst.env[key0] = value
            for d in cons0:
                append((inst, d, value))
            livebox[0] += d0
            if inst.subs:
                subs = inst.subs.pop(key0, None)
                if subs:
                    for target, target_key in subs:
                        forward(target, target_key, value)
        return fire_pure

    # ------------------------------------------------------------------
    # Guard resolution
    # ------------------------------------------------------------------
    def _op_status(self, inst: _Instance, op_id: int) -> str:
        if op_id in inst.fired:
            return "fired"
        if op_id == inst.plan.term_id:
            return "pending"
        if self._guard_taken(inst, inst.plan.ops[op_id].guard) is False:
            return "untaken"
        return "pending"

    @staticmethod
    def _guard_taken(inst: _Instance, guard) -> Optional[bool]:
        result: Optional[bool] = True
        env = inst.env
        for key, sense in guard:
            if key not in env:
                result = None
                continue
            if bool(env[key]) != sense:
                return False
        return result

    # ------------------------------------------------------------------
    # Retirement (the retire loop itself is inlined in :meth:`run`)
    # ------------------------------------------------------------------
    def _maybe_release(self, inst: _Instance) -> None:
        # Pending subscriptions keep the object alive through Python
        # references from the producing chain; dropping it here only
        # bounds the bookkeeping table.
        if inst.done and inst.live_slices == 0:
            self._instances.pop(inst.iid, None)

    # ------------------------------------------------------------------
    # Fetch (the von Neumann block order)
    # ------------------------------------------------------------------
    def _fetch(self) -> bool:
        stack = self._stack
        if not stack:
            return False
        if len(self._retire) >= self.window:
            self._stall_window += 1
            return False
        top = stack[-1]
        inst, idx = top
        plan = inst.plan
        items = plan.items
        if idx >= len(items):
            return self._finish_instance(top)
        kind, payload = items[idx]
        if kind == "slice":
            self._fetch_slice(inst, payload)
            top[1] = idx + 1
            return True
        # A transfer point: stall until its control guard resolves.
        op_plan = plan.op(payload)
        taken = self._guard_taken(inst, op_plan.guard)
        if taken is None:
            self._stall_decider += 1
            return False
        top[1] = idx + 1
        if taken is False:
            return True
        callee_plan = self.plans[op_plan.callee]
        child = self._make_instance(callee_plan, inst, payload)
        env = inst.env
        publish = self._publish
        for kind, src, pkey in op_plan.bind_specs:
            if kind:  # BIND_KEY
                if src in env:
                    publish(child, pkey, env[src])
                else:
                    inst.subs.setdefault(src, []).append((child, pkey))
            else:
                publish(child, pkey, src)
        self._stack.append([child, 0])
        return True

    def _fetch_slice(self, inst: _Instance, slice_idx: int) -> None:
        inst.fetched.add(slice_idx)
        inst.live_slices += 1
        ops = inst.plan.slices[slice_idx]
        # Retire entry: [instance, slice ops, scan position] (the ops
        # list is carried so the retire scan does no plan lookups).
        self._retire.append([inst, ops, 0])
        armed = inst.armed
        dep = inst.dep
        ready_append = self._ready.append
        for op_id in ops:
            if op_id in armed:
                armed.discard(op_id)
                ready_append((inst, op_id))
            elif not dep[op_id][1]:
                # Only-literal inputs (loop term with literal decider).
                ready_append((inst, op_id))

    def _finish_instance(self, top: List) -> bool:
        inst: _Instance = top[0]
        plan = inst.plan
        if plan.kind is BlockKind.DAG:
            self._register_results(inst)
            inst.done = True
            self._stack.pop()
            self._maybe_release(inst)
            return True
        # Loop: wait for the backedge decider (wave-order stall).
        if not inst.term_fired:
            self._stall_decider += 1
            return False
        inst.done = True
        if inst.term_decision:
            nxt = self._make_instance(plan, inst.parent, inst.parent_spawn)
            env = inst.env
            publish = self._publish
            for kind, src, pkey in plan.next_arg_specs:
                if kind:  # BIND_KEY
                    if src in env:
                        publish(nxt, pkey, env[src])
                    else:
                        inst.subs.setdefault(src, []).append((nxt, pkey))
                else:
                    publish(nxt, pkey, src)
            top[0] = nxt
            top[1] = 0
            self._maybe_release(inst)
            return True
        self._register_results(inst)
        self._stack.pop()
        self._maybe_release(inst)
        return True
