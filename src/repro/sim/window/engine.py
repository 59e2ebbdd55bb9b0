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
the wait-match store is per-instance (``inst.wait[op_id]``) instead of
a global dict keyed by ``(iid, op_id)`` tuples, and the deposit drain
reads one precomputed descriptor tuple per token
(:attr:`repro.sim.window.plan.BlockPlan.dep`).  Each static block has
one firing table, shared by every dynamic instance, and every run goes
through one hand-written cycle loop (:meth:`WindowEngine._run_loop`).
By default the generated kernels of :mod:`repro.sim.codegen` fill the
tables.  Without them the engine interprets with one plain firing rule
for every op (:meth:`WindowEngine._fire`): the reference semantics the
kernels are diffed against.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.ir.ops import OP_INFO, Op
from repro.ir.program import BlockKind, ContextProgram
from repro.sim.codegen.core import NO_HANDOFF, TIMED
from repro.sim.engine import MAX_CYCLES, Engine
from repro.sim.memory import Memory
from repro.sim.watchdog import watchdog_horizon, watchdog_note
from repro.sim.window.plan import (
    BlockPlan,
    Key,
    OpPlan,
    build_plans,
)

#: Shared empty wait entry for ops fired via the only-literal fetch
#: path (never written to; firing rules only read it).
_NO_ENTRY: Dict[int, object] = {}

# Opcodes the interpreter's firing rule tests, bound once: looking a
# member up on the enum class costs about ten times a global load.
_MERGE, _STEER, _LOAD, _STORE, _SPAWN = (
    Op.MERGE, Op.STEER, Op.LOAD, Op.STORE, Op.SPAWN)


class _Instance:
    """One dynamic context (block activation)."""

    __slots__ = ("plan", "env", "fetched", "armed", "subs",
                 "term_fired", "term_decision", "parent", "parent_spawn",
                 "delivered", "wait", "fires", "dep", "fired")

    def __init__(self, plan: BlockPlan,
                 parent: Optional["_Instance"],
                 parent_spawn: Optional[int],
                 fires: List[Callable]):
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
        self.delivered = False
        #: Wait-match store: op id -> {port: value} (slot-indexed per
        #: instance; replaces the engine-global ``(iid, op_id)`` dict).
        self.wait: Dict[int, Dict[int, object]] = {}
        #: The per-plan firing table (shared across instances).
        self.fires = fires
        #: The per-plan deposit-descriptor table (hot alias).
        self.dep = plan.dep
        #: Op ids that have fired (published an output or, for the
        #: loop term, resolved).  The retire scan's "not pending"
        #: check is one int-set lookup instead of tuple-key env
        #: probes; spawn ids land here too when child results arrive
        #: (harmless -- spawns never appear in slices).
        self.fired: Set[int] = set()


class WindowEngine(Engine):
    """Simulates vN (window=1,width=1) or sequential dataflow.

    ``plans`` are the program's block plans
    (:func:`~repro.sim.window.plan.build_plans`), shared read-only by
    every run of a workload and by its kernels; an engine built
    without them plans the program itself.
    """

    _TABLES = ("_fire_tables",)

    def __init__(self, program: ContextProgram, memory: Memory,
                 window: int = 8, issue_width: int = 128,
                 sample_traces: bool = True,
                 load_latency: int = 1,
                 max_cycles: int = MAX_CYCLES,
                 machine_name: Optional[str] = None,
                 profile: bool = False,
                 kernels=None,
                 cache=None,
                 plans: Optional[Dict[str, BlockPlan]] = None):
        if window < 1:
            raise SimulationError("window must be >= 1")
        super().__init__(memory, issue_width, sample_traces, load_latency,
                         max_cycles, profile, cache)
        self.program = program
        self.window = window
        self.machine_name = machine_name or (
            "vn" if window == 1 and issue_width == 1 else "seqdf"
        )
        self.plans = build_plans(program) if plans is None else plans
        self._n_params = self.plans[program.entry].n_params

        self._ready: Deque[Tuple[_Instance, int]] = deque()
        # The containers below are captured by the bound kernels and
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

        #: block name -> firing function per op, shared by every
        #: dynamic instance of the block and filled in place: kernels
        #: bound at a hand-off fire in live instances from the next
        #: cycle on.
        self._fire_tables: Dict[str, List[Callable]] = {
            name: [] for name in self.plans}
        self._take_kernels(
            kernels, sum(len(plan.ops) for plan in self.plans.values()))

    def _interpret(self) -> None:
        fire = self._fire  # one bound method for every row
        for name, plan in self.plans.items():
            self._fire_tables[name][:] = [partial(fire, p) for p in plan.ops]

    def _bind(self, kernels) -> None:
        for name, fires in kernels.bind(self).items():
            self._fire_tables[name][:] = fires

    # ------------------------------------------------------------------
    def _execute(self, args: List[object]) -> tuple:
        entry_plan = self.plans[self.program.entry]
        self._n_program_results = len(entry_plan.result_refs)
        root = self._make_instance(entry_plan, None, None)
        for i, value in enumerate(args):
            self._publish(root, ("p", i), value)
        # Root result delivery: straight to the program-result table.
        self._register_results(root)
        self._stack.append([root, 0])

        completed = self._run_loop()

        results = tuple(
            self._program_results.get(i)
            for i in range(self._n_program_results)
        )
        extra = {"window": self.window, "issue_width": self.issue_width,
                 "fetch_stall_decider_cycles": self._stall_decider,
                 "fetch_stall_window_cycles": self._stall_window}
        return completed, results, extra

    def _node_label(self, key: Tuple[str, int]) -> str:
        block, op_id = key
        p = self.plans[block].ops[op_id]
        return f"{p.op.value}@{block}#{op_id}"

    def _run_loop(self) -> bool:
        """The cycle loop of every run: kernel, interpreted and
        profiled runs differ only in the fire tables.

        Each cycle issues ready ops up to the shared width, retires
        completed head-of-window slices, fetches along the block order,
        deposits matured loads and this cycle's tokens (visible next
        cycle), then samples IPC and live tokens. Window machines fire
        about one instruction per cycle (vN exactly one), so per-cycle
        overhead bounds host speed: the recorder's counters live in
        locals (:meth:`MetricsRecorder.counters`), with the RLE trace
        appends inlined, and are committed in the ``finally``.
        ``metrics.cycles`` is synced every cycle when loads can be
        delayed (the load rules read it).

        A profiled run notes each firing's ``(block, op_id)`` and
        closes each cycle through one of the profiler's booking rules:
        a zero-fire cycle with loads in flight through
        :meth:`EngineProfiler.memory_cycle` (one stalled cycle at a
        time), any other through :meth:`EngineProfiler.end_cycle`.

        An interpreted run with kernels pending hands off to them at
        the end of the cycle that brings its instructions to
        ``_handoff``, and runs on in this loop with the same locals.
        """
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
        handoff = self._handoff
        issue_width = self.issue_width
        window = self.window
        max_cycles = self.max_cycles
        wd_horizon = watchdog_horizon(max_cycles)
        idle_streak = 0
        sync = self._rule == TIMED
        sample_traces = metrics.sample_traces
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
                # Issue: fire ready ops up to the shared width.
                fired = 0
                if ready:
                    budget = issue_width
                    while ready and budget > 0:
                        inst, op_id = popleft()
                        inst.fires[op_id](inst)
                        fired += 1
                        budget -= 1
                        if prof is not None:
                            note((inst.plan.name, op_id))
                    if prof is not None:
                        # Read before the deposits refill the queue.
                        width_limited = budget == 0 and bool(ready)
                # Retire completed head-of-window slices, in fetch
                # order. An op's "not pending" status is monotone
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
                    progressed = True
                # Fetch along the von Neumann block order, at most a
                # window's worth of slices per cycle.
                fc = window
                while fc:
                    if not fetch():
                        break
                    progressed = True
                    fc -= 1
                # Deposit: matured loads, then this cycle's tokens.
                # The one-cycle buffer is what keeps values fired at
                # cycle N invisible until N+1. Each token carries its
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
                    # ``pending`` while it drains.
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
                stalled = fired == 0 and not progressed and not ready
                if stalled:
                    idle_streak += 1
                    if idle_streak >= wd_horizon and (
                            not delayed or min(delayed) < cycles):
                        # Quiesced but live for the whole horizon, or
                        # waiting on a load whose due cycle already
                        # passed (stale bookkeeping): wedged either way.
                        self._raise_deadlock(watchdog=idle_streak)
                    if not delayed:
                        if self._is_finished():
                            return True
                        self._raise_deadlock()
                else:
                    idle_streak = 0
                cycles += 1
                if sync:
                    metrics.cycles = cycles
                instructions += fired
                live = livebox[0]
                if prof is not None:
                    if fired:
                        end_cycle("width_limited" if width_limited
                                  else "fired")
                    elif delayed:
                        memory_cycle(cycles, miss_until)
                    elif live > 0:
                        end_cycle("waiting_operands")
                    else:
                        end_cycle("idle")
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
                # A stalled cycle waits on in-flight loads (delayed
                # loads imply ``sync``). It skips the budget check: the
                # wait is bounded by the load's delay, and the next
                # productive cycle checks. A run that finished on its
                # last allowed cycle completes.
                if cycles >= max_cycles and not stalled \
                        and not self._is_finished():
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles}"
                    )
                if instructions >= handoff:
                    handoff = NO_HANDOFF
                    self._hand_off()
        finally:
            metrics.commit(cycles, instructions, peak_live, live_sum)

    def _is_finished(self) -> bool:
        return (not self._stack and not self._retire
                and not self._pending and not self._delayed
                and self._livebox[0] == 0)

    def _raise_deadlock(self, watchdog: "int | None" = None) -> None:
        stuck = [(entry[0].plan.name, entry[1])
                 for entry in self._stack[-4:]]
        raise DeadlockError(
            f"window machine stalled{watchdog_note(watchdog)}: "
            f"live={self._livebox[0]}, "
            f"in-flight slices={len(self._retire)}, stack tail={stuck}"
        )

    # ------------------------------------------------------------------
    # Instances, publication, and subscriptions
    # ------------------------------------------------------------------
    def _make_instance(self, plan: BlockPlan, parent: Optional[_Instance],
                       parent_spawn: Optional[int]) -> _Instance:
        return _Instance(plan, parent, parent_spawn,
                         self._fire_tables[plan.name])

    def _publish(self, inst: _Instance, key: Key, value: object) -> None:
        """Record a value and forward it to consumers and subscribers
        (env write, consumer fan-out, subscription drain: in that
        order).  The generated kernels inline this; a semantic change
        here must be mirrored in :mod:`repro.sim.codegen.window`.
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
    # The interpreter's firing rule: one plain rule for every op
    # ------------------------------------------------------------------
    def _fire(self, p: OpPlan, inst: _Instance) -> None:
        """Fire op ``p`` in ``inst``: consume its operands, then
        publish its outputs through :meth:`_publish`, port 0 first."""
        op_id = p.op_id
        op = p.op
        term = op_id == inst.plan.term_id
        info = None  # the OP_INFO of a pure op
        if not (term or op is _MERGE or op is _STEER or op is _LOAD
                or op is _STORE):
            info = OP_INFO[op]
            if op is _SPAWN:  # pragma: no cover - fetch item only
                raise SimulationError(
                    "spawn is a transfer point, not an instruction")
            if not info.pure:
                raise SimulationError(f"cannot execute {op.value}")
        entry = inst.wait.pop(op_id, _NO_ENTRY)
        # A MERGE may also hold its unchosen side; any other op holds
        # exactly one token per token port (ports are write-once).
        self._livebox[0] -= (len(entry) if op is _MERGE
                             else len(p.token_ports))
        imms = p.imms
        args = [entry[port] if port in entry else imms.get(port)
                for port in range(len(p.inputs))]
        key0 = (op_id, 0)
        key1 = (op_id, 1)
        publish = self._publish
        if info is not None:
            publish(inst, key0, info.evaluate(*args))
        elif term:
            # The loop term resolves the backedge; it publishes nothing.
            inst.fired.add(op_id)
            inst.term_fired = True
            inst.term_decision = args[0]
        elif op is _MERGE:
            publish(inst, key0, args[1] if args[0] else args[2])
        elif op is _STEER:
            if bool(args[0]) == bool(p.attrs["sense"]):
                publish(inst, key0, args[1])
            publish(inst, key1, 0)
        elif op is _LOAD:
            array = p.attrs["array"]
            value = self.memory.load(array, args[0])
            timing = self._timing
            delay = timing.access_load(array, args[0])
            if delay <= 1:
                publish(inst, key0, value)
                publish(inst, key1, 0)
                return
            # Fires only at maturity: ``_publish`` marks ``inst.fired``
            # then, keeping the op pending for the retire scan until
            # the value lands.
            due = self.metrics.cycles + delay - 1
            if delay >= timing.miss_latency and due + 1 > self._miss_until[0]:
                self._miss_until[0] = due + 1
            self._delayed.setdefault(due, []).extend(
                ((inst, key0, value), (inst, key1, 0)))
        else:  # STORE
            array = p.attrs["array"]
            self.memory.store(array, args[0], args[1])
            self._timing.access_store(array, args[0])
            publish(inst, key0, 0)

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
            self._stack.pop()
            return True
        # Loop: wait for the backedge decider (wave-order stall).
        if not inst.term_fired:
            self._stall_decider += 1
            return False
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
            return True
        self._register_results(inst)
        self._stack.pop()
        return True
