"""The early progress watchdog (quiesced-but-live detection in O(1)).

Every engine already raises the moment it fully quiesces; the watchdog
covers the other wedge shape -- a loop that keeps burning cycles with
zero retirement (stale due-cycle bookkeeping, a regressed stall fast
path). These tests pin the horizon formula, prove a wedged machine is
diagnosed in far under ``max_cycles``, pin which zero-fire cycles count
toward it, and prove the watchdog never perturbs a run that completes
(the golden-metrics suite enforces the same property corpus-wide).
"""

from collections import deque

import pytest

from repro.errors import DeadlockError
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.ir.ops import Op
from repro.sim.codegen.core import NO_HANDOFF
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine
from repro.sim.tagged.tagspace import TyrPolicy
from repro.sim.watchdog import (
    WATCHDOG_CAP,
    WATCHDOG_FLOOR,
    watchdog_horizon,
)

from tests.conftest import (
    HANDOFF_BUDGETS,
    dmv_memory,
    dmv_module,
    tag_starved_engine,
)


def test_horizon_formula():
    assert watchdog_horizon(50_000_000) == WATCHDOG_CAP
    assert watchdog_horizon(1_000_000) == WATCHDOG_CAP
    assert watchdog_horizon(20_000) == 2_000
    assert watchdog_horizon(100) == WATCHDOG_FLOOR


def test_horizon_is_under_a_tenth_of_default_budget():
    # The robustness bar: a wedged machine is diagnosed in under
    # max_cycles / 10 at any budget the horizon is proportional at,
    # and at the cap for every larger budget.
    for budget in (10_000, 1_000_000, 50_000_000):
        assert watchdog_horizon(budget) <= max(
            WATCHDOG_FLOOR, budget // 10)


def test_wedged_tagged_loop_diagnosed_early(bind_at_construction):
    # A cycle loop that spins without retiring anything: the ready
    # queue stays populated but no instruction ever fires (the shape a
    # bookkeeping bug produces). Kernels and the interpreter share the
    # loop, so both are diagnosed at the horizon.
    max_cycles = 100_000
    for codegen in (True, False):
        eng = tag_starved_engine(codegen, max_cycles)
        with pytest.raises(DeadlockError) as err:
            eng._run_loop()
        assert eng.metrics.cycles == watchdog_horizon(max_cycles)
        d = err.value.diagnosis
        assert d.watchdog_cycles == watchdog_horizon(max_cycles)
        assert "progress watchdog" in d.describe()


def _ordered_engine(codegen, max_cycles, fire_first=False):
    """An ordered dmv engine whose node 0 never fires (but on its first
    try if ``fire_first``) but stays a candidate, with one load
    response in flight that is never due and vanishes on node 0's
    500th try."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    eng = QueuedEngine(cw.flat, Memory(dmv_memory(4)),
                       max_cycles=max_cycles,
                       kernels=cw.kernels("flat") if codegen else None)
    load = next(nd.node_id for nd in cw.flat.nodes if nd.op is Op.LOAD)
    eng._inflight[load] = deque([(10 ** 9, 0)])
    tries = [0]

    def never_fires():
        tries[0] += 1
        if tries[0] == 500:
            eng._inflight.clear()
        eng._next_candidates.add(0)
        return fire_first and tries[0] == 1

    hand_off = eng._hand_off

    def hand_off_keeping_the_stub():
        hand_off()
        eng._try_fire_fns[0] = never_fires

    eng._hand_off = hand_off_keeping_the_stub
    eng._try_fire_fns[0] = never_fires
    eng._next_candidates.add(0)
    eng._livebox[0] = 1
    return eng


def _wedged_tagged_engine(codegen, max_cycles, fire_first=False):
    """The wedged tagged engine with a load bucket due at cycle 500;
    with ``fire_first`` its first allocate pop counts as a firing."""
    eng = tag_starved_engine(codegen, max_cycles)
    eng._delayed[500] = []
    if fire_first:
        pop_fails = eng._fire_alloc_pop
        pops = []

        def pop_fires_once(nid, tag):
            pops.append(nid)
            return pop_fails(nid, tag) or len(pops) == 1

        eng._fire_alloc_pop = pop_fires_once
    return eng


@pytest.mark.parametrize("codegen", [True, False],
                         ids=["kernels", "interpreter"])
@pytest.mark.parametrize("make, cycles", [
    (_wedged_tagged_engine, 10_500),
    (_ordered_engine, 10_499),
], ids=["tagged", "ordered"])
def test_cycles_waiting_on_memory_do_not_count(make, cycles, codegen,
                                               bind_at_construction):
    """Tagged and ordered count a zero-fire cycle toward the horizon
    only when no load is in flight, with either fire table: the loads
    above land (or vanish) around cycle 500, so the watchdog trips
    that much later than the horizon of 10,000 cycles."""
    eng = make(codegen, 100_000)
    with pytest.raises(DeadlockError, match="progress watchdog"):
        eng._run_loop()
    assert eng.metrics.cycles == cycles


@pytest.mark.parametrize("make, cycles", [
    (_wedged_tagged_engine, 10_500),
    (_ordered_engine, 10_499),
], ids=["tagged", "ordered"])
def test_watchdog_pins_survive_an_early_handoff(make, cycles, monkeypatch):
    """At budget 1 the engines above fire once in their first cycle and
    hand off to their kernels right after it, with the load still in
    flight; the idle streak carries across the hand-off, so the
    watchdog trips on the same cycle as without one."""
    from repro.sim.codegen import core

    monkeypatch.setattr(core, "HANDOFF_K", HANDOFF_BUDGETS["budget1"])
    eng = make(True, 100_000, fire_first=True)
    assert eng._handoff == 1
    with pytest.raises(DeadlockError, match="progress watchdog"):
        eng._run_loop()
    assert eng._handoff == NO_HANDOFF and eng._handoff_kernels is None
    assert eng.metrics.instructions == 1
    assert eng.metrics.cycles == cycles


def test_completing_run_is_not_perturbed():
    # Bit-identical metrics with a watchdog horizon of 1 cycle less
    # than infinity vs. the stock horizon would require patching; the
    # cheap and sufficient check is that a normal run completes with
    # cycles nowhere near any watchdog state (the counter resets on
    # every productive cycle, so only all-idle stretches count).
    cw = CompiledWorkload(lower_module(dmv_module()))
    eng = TaggedEngine(cw.tagged, Memory(dmv_memory(4)), TyrPolicy(4))
    res = eng.run(cw.entry_args([4]))
    assert res.completed
