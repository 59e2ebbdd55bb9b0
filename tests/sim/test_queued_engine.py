"""Unit tests for the ordered-dataflow (FIFO) engine."""

import pytest

from repro.errors import SimulationError
from repro.compiler.flatten import flatten
from repro.frontend.lower import lower_module
from repro.ir.ops import Op
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine

from tests.conftest import (
    dmv_expected,
    dmv_memory,
    dmv_module,
    sum_loop_module,
)


def run_flat(module, args, memory=None, **kwargs):
    prog = lower_module(module)
    g = flatten(prog)
    mem = Memory(memory or {})
    full = list(args) + [0] * (len(g.entry_sources) - len(args))
    engine = QueuedEngine(g, mem, **kwargs)
    return engine.run(full), mem


def test_queue_depth_bounds_live_state():
    res2, _ = run_flat(sum_loop_module(), [40], queue_depth=2)
    res8, _ = run_flat(sum_loop_module(), [40], queue_depth=8)
    assert res2.completed and res8.completed
    assert res2.results == res8.results
    assert res2.peak_live <= res8.peak_live


def test_deeper_queues_do_not_hurt_performance():
    res2, _ = run_flat(dmv_module(), [10], dmv_memory(10),
                       queue_depth=2)
    res4, _ = run_flat(dmv_module(), [10], dmv_memory(10),
                       queue_depth=4)
    assert res4.cycles <= res2.cycles


def test_single_entry_queues_deadlock_on_loop_cycles():
    """Depth-1 queues leave no slack ('bubble') in a loop cycle, the
    deadlock hazard the paper's Sec. V relates to bubble flow control.
    Real ordered-dataflow designs size loop buffers >= 2."""
    from repro.errors import DeadlockError
    with pytest.raises(DeadlockError):
        run_flat(sum_loop_module(), [40], queue_depth=1)


def test_issue_width_one_serializes():
    res, _ = run_flat(sum_loop_module(), [10], issue_width=1)
    assert res.completed
    assert max(res.ipc_trace) <= 1


def test_each_static_instruction_fires_once_per_cycle():
    # Ordered dataflow's defining restriction: per-cycle IPC can never
    # exceed the static instruction count.
    prog = lower_module(dmv_module())
    g = flatten(prog)
    res, _ = run_flat(dmv_module(), [8], dmv_memory(8))
    assert max(res.ipc_trace) <= len(g.nodes)


def test_invalid_queue_depth_rejected():
    prog = lower_module(sum_loop_module())
    with pytest.raises(SimulationError):
        QueuedEngine(flatten(prog), Memory(), queue_depth=0)


def test_memory_correct_under_tight_queues():
    n = 8
    memory = dmv_memory(n)
    res, mem = run_flat(dmv_module(), [n], memory, queue_depth=2)
    assert res.completed
    assert mem["w"] == dmv_expected(memory, n)


def test_mu_handles_repeated_activations():
    # Nested loop: the inner mu gates reset on every outer iteration.
    res, _ = run_flat(dmv_module(), [5], dmv_memory(5))
    assert res.completed


def test_wrong_arg_count_rejected():
    prog = lower_module(sum_loop_module())
    g = flatten(prog)
    with pytest.raises(SimulationError, match="args"):
        QueuedEngine(g, Memory()).run([1, 2, 3])


def test_memory_delivery_skipped_until_a_load_matures():
    """The per-cycle response scan only runs on cycles where the
    earliest in-flight load head can mature: with load_latency=7 the
    cycle loop scans the in-flight map far less often than once per
    cycle, and the run is identical to an unwrapped engine."""
    prog = lower_module(dmv_module())
    g = flatten(prog)
    full = [10] + [0] * (len(g.entry_sources) - 1)

    class CountingScans(dict):
        scans = 0

        def items(self):
            CountingScans.scans += 1
            return super().items()

    def run(wrap):
        mem = Memory(dmv_memory(10))
        engine = QueuedEngine(g, mem, load_latency=7)
        CountingScans.scans = 0
        if wrap:
            engine._inflight = CountingScans()
        return engine.run(full), mem, CountingScans.scans

    base, base_mem, _ = run(wrap=False)
    res, mem, calls = run(wrap=True)
    assert res.completed
    assert mem["w"] == base_mem["w"] == dmv_expected(dmv_memory(10), 10)
    assert res.cycles == base.cycles
    assert 0 < calls < res.cycles
