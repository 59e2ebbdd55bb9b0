"""Stall-attribution profiler: conservation, zero-perturbation, and
signal tests across all engine families (paper Figs. 14/16 rationale).
"""

import pickle

import pytest

from repro.errors import SimulationError
from repro.harness.runner import MACHINES
from repro.sim.profile import STALL_REASONS, EngineProfiler, RunProfile
from repro.workloads import build_workload

from tests.conftest import tag_starved_engine

_WORKLOADS = ("dmv", "smv", "bfs")


@pytest.fixture(scope="module")
def workloads():
    return {name: build_workload(name, "tiny") for name in _WORKLOADS}


# ----------------------------------------------------------------------
# Conservation invariant (the acceptance criterion): every machine x
# workload run attributes every cycle to exactly one reason and every
# instruction to exactly one static node.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("workload", _WORKLOADS)
def test_profile_conserves_cycles_and_instructions(workloads, workload,
                                                   machine):
    res = workloads[workload].run_checked(machine, profile=True)
    prof = res.extra["profile"]
    assert prof.machine == machine
    assert set(prof.stall_cycles) <= set(STALL_REASONS)
    assert sum(prof.stall_cycles.values()) == res.cycles
    assert sum(prof.node_fired.values()) == res.instructions
    assert prof.cycles == res.cycles
    assert prof.instructions == res.instructions
    # Fractional cycle attribution sums to the busy-cycle count.
    assert sum(prof.node_cycles.values()) == pytest.approx(
        prof.busy_cycles)


@pytest.mark.parametrize("machine", MACHINES)
def test_profiling_does_not_perturb_metrics(workloads, machine):
    """profile=True must not change simulated behavior: cycles,
    instructions, and the full traces are identical."""
    wl = workloads["dmv"]
    plain = wl.run_checked(machine)
    profiled = wl.run_checked(machine, profile=True)
    assert "profile" not in plain.extra
    assert plain.cycles == profiled.cycles
    assert plain.instructions == profiled.instructions
    assert list(plain.ipc_trace) == list(profiled.ipc_trace)
    assert list(plain.live_trace) == list(profiled.live_trace)


# ----------------------------------------------------------------------
# The taxonomy attributes the right causes.
# ----------------------------------------------------------------------
def test_memory_stalls_attributed(workloads):
    """With slow memory, machines that idle on in-flight loads
    attribute those cycles to memory_stall."""
    for machine in ("tyr", "vn"):
        res = workloads["dmv"].run_checked(machine, profile=True,
                                           load_latency=8)
        prof = res.extra["profile"]
        assert prof.stall_cycles["memory_stall"] > 0, machine
        assert sum(prof.stall_cycles.values()) == res.cycles


def test_width_limit_attributed(workloads):
    """A 1-wide TYR spends most cycles with ready work it cannot
    issue."""
    res = workloads["dmv"].run_checked("tyr", profile=True,
                                      issue_width=1)
    prof = res.extra["profile"]
    assert prof.stall_cycles["width_limited"] > 0
    assert sum(prof.stall_cycles.values()) == res.cycles


def test_vector_lane_limit_attributed(workloads):
    """A narrow vector machine attributes left-over-iteration batches
    to width_limited."""
    res = workloads["dmv"].run_checked("datapar", profile=True,
                                      issue_width=2)
    prof = res.extra["profile"]
    assert prof.stall_cycles["width_limited"] > 0
    assert sum(prof.stall_cycles.values()) == res.cycles


def test_hotspots_name_static_nodes(workloads):
    res = workloads["dmv"].run_checked("tyr", profile=True)
    prof = res.extra["profile"]
    top = prof.top_nodes(5)
    assert len(top) == 5
    # Labels are op@block#id; the hot nodes of dmv live in its inner
    # loop block.
    assert all("@" in label and "#" in label for label, _, _ in top)
    assert any("for_j" in label for label, _, _ in top)
    # Sorted by attributed cycles, descending.
    cycles = [c for _, _, c in top]
    assert cycles == sorted(cycles, reverse=True)


# ----------------------------------------------------------------------
# The record travels: pickling (worker pools, result cache) and JSON.
# ----------------------------------------------------------------------
def test_profile_pickles_and_serializes(workloads):
    res = workloads["smv"].run_checked("ordered", profile=True)
    prof = res.extra["profile"]
    clone = pickle.loads(pickle.dumps(
        prof, protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == prof
    doc = prof.to_json_dict()
    assert set(doc) == {"machine", "cycles", "instructions",
                        "stall_cycles", "node_fired", "node_cycles"}
    import json
    json.dumps(doc)  # must be JSON-serializable as-is
    fields = prof.summary_fields(top=3)
    assert fields["cycles"] == res.cycles
    assert len(fields["top_nodes"]) == 3


@pytest.mark.parametrize("codegen", [True, False],
                         ids=["kernels", "interpreter"])
def test_tagged_zero_fire_cycles_attributed(codegen, bind_at_construction):
    """A tagged cycle that fires nothing had a ready queue, so it
    popped only failed allocates: it is ``tag_starved``. No pinned run
    reaches one, so build it: a wedged allocate books every cycle up to
    ``max_cycles`` as ``tag_starved``, with either fire table."""
    eng = tag_starved_engine(codegen, max_cycles=5, profile=True)
    with pytest.raises(SimulationError, match="max_cycles=5"):
        eng._run_loop()
    expected = dict.fromkeys(STALL_REASONS, 0)
    expected["tag_starved"] = 5
    assert eng._profiler.stall_cycles == expected


# ----------------------------------------------------------------------
# EngineProfiler unit behavior.
# ----------------------------------------------------------------------
def test_engine_profiler_attribution():
    prof = EngineProfiler()
    prof.noted += ["a", "b"]
    prof.end_cycle("fired")           # split 0.5/0.5
    prof.noted.append("a")
    prof.end_cycle("width_limited")   # a += 1.0
    prof.end_cycle("tag_starved")     # zero-fired cycle
    prof.memory_stall(0, 3, None)     # a batched stall of 3 cycles
    prof.memory_stall(3, 3, None)     # no-op
    prof.noted.append("v")
    prof.end_cycle("fired", 8)        # 8 lanes co-issue one op
    run = prof.finish("test", cycles=7, instructions=11)
    assert run.stall_cycles == {
        "fired": 2, "waiting_operands": 0, "tag_starved": 1,
        "memory_stall": 3, "width_limited": 1, "idle": 0,
    }
    assert run.node_fired == {"a": 2, "b": 1, "v": 8}
    assert run.node_cycles["a"] == pytest.approx(1.5)
    assert run.node_cycles["b"] == pytest.approx(0.5)
    assert run.node_cycles["v"] == pytest.approx(1.0)
    assert run.busy_cycles == 3
    assert run.stall_breakdown()[0] == ("fired", 2)
    assert run.memory_stall_split == {}


def test_engine_profiler_label_merging():
    prof = EngineProfiler()
    prof.noted.append(1)
    prof.end_cycle("fired")
    prof.noted.append(2)
    prof.end_cycle("fired")
    run = prof.finish("test", cycles=2, instructions=2,
                      label_of=lambda nid: "same")
    assert run.node_fired == {"same": 2}
    assert run.node_cycles["same"] == pytest.approx(2.0)


def test_memory_cycle_books_only_its_own_key():
    """One zero-fire cycle with loads in flight (the queued and window
    loops) books only the hit/miss key it lands on, which is why the
    window family's golden cache records hold no ``hit`` key."""
    prof = EngineProfiler()
    miss_until = [2]
    prof.memory_cycle(1, miss_until)
    prof.memory_cycle(2, miss_until)  # the last cycle the miss covers
    assert prof.memory_stall_split == {"miss": 2}
    prof.memory_cycle(3, miss_until)
    assert prof.memory_stall_split == {"miss": 2, "hit": 1}
    assert prof.stall_cycles["memory_stall"] == 3

    no_cache = EngineProfiler()
    no_cache.memory_cycle(1, None)
    assert no_cache.stall_cycles["memory_stall"] == 1
    assert no_cache.memory_stall_split == {}


def test_memory_stall_books_both_keys():
    """A batched stall (tagged, queued, datapar) books both hit/miss
    keys, zeros included, in ``miss``, ``hit`` order; an empty stall
    books nothing."""
    prof = EngineProfiler()
    prof.memory_stall(10, 14, [0])    # past the miss box: all hits
    assert prof.memory_stall_split == {"miss": 0, "hit": 4}
    prof.memory_stall(20, 25, [23])   # cycles 20-22 miss, 23-24 hit
    assert prof.memory_stall_split == {"miss": 3, "hit": 6}
    prof.memory_stall(30, 32, [40])   # all misses
    prof.memory_stall(40, 40, [50])   # empty
    assert prof.memory_stall_split == {"miss": 5, "hit": 6}
    assert list(prof.memory_stall_split) == ["miss", "hit"]
    assert prof.stall_cycles["memory_stall"] == 11

    misses_only = EngineProfiler()
    misses_only.memory_stall(0, 3, [10])
    assert misses_only.memory_stall_split == {"miss": 3, "hit": 0}

    no_cache = EngineProfiler()
    no_cache.memory_stall(0, 5, None)
    assert no_cache.stall_cycles["memory_stall"] == 5
    assert no_cache.memory_stall_split == {}


@pytest.mark.parametrize("miss_until", [0, 3, 4, 6, 8, 9])
def test_memory_rules_split_cycles_alike(miss_until):
    """Booked a cycle at a time or as one batch, the same stalled
    cycles split the same way; the rules differ only in the zero keys
    they insert."""
    batched = EngineProfiler()
    batched.memory_stall(3, 8, [miss_until])
    per_cycle = EngineProfiler()
    for cycle in range(4, 9):  # the cycles that bring the run to 4..8
        per_cycle.memory_cycle(cycle, [miss_until])
    assert batched.stall_cycles == per_cycle.stall_cycles
    for key in ("miss", "hit"):
        assert (batched.memory_stall_split[key]
                == per_cycle.memory_stall_split.get(key, 0))


def test_validate_rejects_lost_cycles():
    with pytest.raises(SimulationError, match="lost cycles"):
        RunProfile("m", cycles=5, instructions=0,
                   stall_cycles={"fired": 3}, node_fired={},
                   node_cycles={}).validate()
    with pytest.raises(SimulationError, match="lost instructions"):
        RunProfile("m", cycles=1, instructions=4,
                   stall_cycles={"fired": 1}, node_fired={"a": 3},
                   node_cycles={}).validate()
    with pytest.raises(SimulationError, match="unknown stall"):
        RunProfile("m", cycles=1, instructions=0,
                   stall_cycles={"naptime": 1}, node_fired={},
                   node_cycles={}).validate()


def test_summary_degrades_without_live_metrics():
    """Satellite: hand-built results (no sampled traces, no extras)
    must render a summary instead of raising MetricsUnavailable."""
    from repro.sim.metrics import ExecutionResult, RLETrace

    res = ExecutionResult(
        machine="test", completed=True, cycles=10, instructions=20,
        results=(), ipc_trace=RLETrace(), live_trace=RLETrace(),
        extra={},
    )
    text = res.summary()
    assert "peak_live=?" in text
    assert "mean_live=?" in text
    assert "cycles=10" in text
