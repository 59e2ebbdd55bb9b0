"""Unit tests for the tagged dataflow engine."""

import pytest

from repro.errors import DeadlockError, SimulationError, TokenBoundExceeded
from repro.compiler.elaborate import elaborate
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.memory import Memory
from repro.sim.tagged import TaggedEngine, TyrPolicy, UnboundedGlobalPolicy
from repro.sim.tagged.tagspace import PoolStats
from repro.workloads import WORKLOAD_NAMES, build_workload

from tests.conftest import (
    dmv_expected,
    dmv_memory,
    dmv_module,
    sum_loop_module,
)


def make_engine(module, policy, **kwargs):
    prog = lower_module(module)
    g = elaborate(prog)
    mem = Memory(kwargs.pop("memory", {}))
    return TaggedEngine(g, mem, policy, **kwargs), g, mem


def test_issue_width_throttles_ipc():
    for width in (1, 4, 64):
        eng, g, _ = make_engine(sum_loop_module(),
                                UnboundedGlobalPolicy(),
                                issue_width=width)
        res = eng.run([30])
        assert res.completed
        assert max(res.ipc_trace) <= width


def test_narrow_width_takes_longer():
    cycles = {}
    for width in (1, 8, 128):
        eng, _, _ = make_engine(sum_loop_module(),
                                UnboundedGlobalPolicy(),
                                issue_width=width)
        cycles[width] = eng.run([30]).cycles
    assert cycles[1] > cycles[8] >= cycles[128]


def test_all_tags_returned_at_completion():
    eng, _, _ = make_engine(dmv_module(), TyrPolicy(4),
                            memory=dmv_memory(6))
    res = eng.run([6])
    assert res.completed
    assert res.extra["leftover_tags_in_use"] == 0


def test_pool_stats_reported():
    eng, _, _ = make_engine(dmv_module(), TyrPolicy(4),
                            memory=dmv_memory(6))
    res = eng.run([6])
    stats = res.extra["pool_stats"]
    assert all(isinstance(s, PoolStats) for s in stats)
    assert any(s.total_allocations > 0 for s in stats)
    # TYR: peak in use never exceeds the pool capacity.
    for s in stats:
        assert s.peak_in_use <= s.capacity


def test_zero_live_tokens_at_completion():
    eng, _, _ = make_engine(dmv_module(), UnboundedGlobalPolicy(),
                            memory=dmv_memory(6))
    res = eng.run([6])
    assert res.completed
    assert res.live_trace[-1] == 0


def test_token_bound_guard_trips_when_violated():
    # Force an absurdly small artificial bound by monkeypatching.
    eng, g, _ = make_engine(dmv_module(), TyrPolicy(4),
                            memory=dmv_memory(6),
                            check_token_bound=True)
    eng._token_bound = 3
    with pytest.raises(TokenBoundExceeded):
        eng.run([6])


def test_max_cycles_guard():
    eng, _, _ = make_engine(dmv_module(), TyrPolicy(4),
                            memory=dmv_memory(8), max_cycles=10)
    with pytest.raises(SimulationError, match="max_cycles"):
        eng.run([8])


def test_wrong_arity_rejected():
    eng, _, _ = make_engine(sum_loop_module(), TyrPolicy(4))
    with pytest.raises(SimulationError, match="args"):
        eng.run([1, 2, 3])


def test_deadlock_diagnosis_contents():
    cw = CompiledWorkload(lower_module(dmv_module()))
    with pytest.raises(DeadlockError) as err:
        cw.run("unordered-bounded", Memory(dmv_memory(8)), [8],
               total_tags=8)
    d = err.value.diagnosis
    assert d.live_tokens > 0
    assert d.pool_occupancy
    # The global pool is fully occupied at deadlock.
    (used, cap), = [v for k, v in d.pool_occupancy.items()]
    assert used == cap == 8
    assert all(p.block for p in d.pending_allocations)


def test_traces_disabled_still_reports_peaks():
    eng, _, _ = make_engine(dmv_module(), TyrPolicy(8),
                            memory=dmv_memory(6), sample_traces=False)
    res = eng.run([6])
    assert res.live_trace == []
    assert res.peak_live > 0
    assert res.mean_live > 0


def test_tag_values_stay_within_pool_range():
    # With TYR, every tag value is in [0, capacity): tags are reused,
    # not globally unique (the paper's key observation).
    eng, g, _ = make_engine(dmv_module(), TyrPolicy(3),
                            memory=dmv_memory(6))
    res = eng.run([6])
    assert res.completed
    stats = {s.name: s for s in res.extra["pool_stats"]}
    loop_pools = [s for name, s in stats.items() if "for_" in name
                  or "rows" in name]
    # Far more dynamic allocations than tags => heavy reuse.
    assert any(s.total_allocations > 3 * s.capacity
               for s in loop_pools)


#: The instrumented variants of a run: each carries a hook only the
#: interpreter has, so it never binds kernels.
INSTRUMENTED = {"traced": {"record_trace": True},
                "occupancy": {"track_occupancy": True},
                "both": {"record_trace": True, "track_occupancy": True}}


def _observe_run(wl, machine, **kwargs):
    memory = wl.fresh_memory()
    res = wl.compiled.run(machine, memory, wl.args, **kwargs)
    return ((res.cycles, res.instructions, res.peak_live, res.mean_live,
             list(res.ipc_trace), list(res.live_trace), res.results,
             res.extra["pool_stats"], memory.snapshot()),
            res.extra["peak_store_occupancy"])


@pytest.mark.parametrize("load_latency", [1, 4])
@pytest.mark.parametrize("machine", ["tyr", "unordered", "kbounded"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tracing_and_occupancy_do_not_perturb_the_run(name, machine,
                                                      load_latency):
    """Traced, occupancy-tracked and both-at-once runs of the Table II
    workloads equal the plain run (kernels at the default hand-off
    budget) in cycles, instructions, live state, both sampled traces,
    results, pool stats and final memory, and the run with both hooks
    counts the occupancy-tracked run's store peaks: the hooks only
    observe."""
    wl = build_workload(name, "tiny")
    plain, _ = _observe_run(wl, machine, load_latency=load_latency)
    peaks = {}
    for variant, kwargs in INSTRUMENTED.items():
        observed, peaks[variant] = _observe_run(
            wl, machine, load_latency=load_latency, **kwargs)
        assert observed == plain, variant
    assert peaks["both"] == peaks["occupancy"]
    assert peaks["occupancy"]
    assert peaks["traced"] == {}
