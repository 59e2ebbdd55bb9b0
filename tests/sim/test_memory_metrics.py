"""Unit tests for the memory model and metrics recorder."""

import pytest

from repro.errors import MemoryError_, MetricsUnavailable
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult, MetricsRecorder, RLETrace


def test_memory_bind_load_store():
    mem = Memory({"A": [1, 2, 3]})
    assert mem.load("A", 1) == 2
    mem.store("A", 0, 9)
    assert mem["A"] == [9, 2, 3]
    assert mem.loads == 1 and mem.stores == 1


def test_memory_bounds_checked():
    mem = Memory({"A": [1, 2, 3]})
    with pytest.raises(MemoryError_):
        mem.load("A", 3)
    with pytest.raises(MemoryError_):
        mem.load("A", -1)
    with pytest.raises(MemoryError_):
        mem.store("A", "x", 0)


def test_memory_unbound_array():
    mem = Memory()
    with pytest.raises(MemoryError_):
        mem.load("ghost", 0)
    assert mem.get("ghost") is None
    assert "ghost" not in mem


def test_memory_snapshot_is_deep():
    mem = Memory({"A": [1, 2]})
    snap = mem.snapshot()
    mem.store("A", 0, 99)
    assert snap["A"] == [1, 2]


def test_memory_rebind():
    mem = Memory({"A": [1]})
    mem.bind("A", [5, 6])
    assert mem.snapshot() == {"A": [5, 6]}


def test_recorder_basic_sampling():
    rec = MetricsRecorder()
    rec.sample(fired=3, live=10)
    rec.sample(fired=1, live=4)
    res = rec.result("m", True, (42,))
    assert res.cycles == 2
    assert res.instructions == 4
    assert res.peak_live == 10
    assert res.mean_live == 7.0
    assert res.mean_ipc == 2.0
    assert res.ipc_trace == [3, 1]
    assert "ok" in res.summary()


def test_recorder_without_traces_keeps_aggregates():
    rec = MetricsRecorder(sample_traces=False)
    rec.sample(fired=3, live=10)
    rec.sample(fired=1, live=4)
    res = rec.result("m", True, ())
    assert res.ipc_trace == [] and res.live_trace == []
    assert res.peak_live == 10
    assert res.mean_live == 7.0


def test_empty_result_defaults():
    res = ExecutionResult("m", False, 0, 0, (), RLETrace(), RLETrace())
    assert res.peak_live == 0
    assert res.mean_live == 0.0
    assert res.mean_ipc == 0.0
    assert "DEADLOCK" in res.summary()


def test_unsampled_live_metrics_raise():
    """A hand-built result with cycles but neither traces nor extra
    fallbacks must refuse to report live state, not claim zero."""
    res = ExecutionResult("m", True, 10, 10, (), RLETrace(), RLETrace())
    with pytest.raises(MetricsUnavailable):
        res.peak_live
    with pytest.raises(MetricsUnavailable):
        res.mean_live
    # The extra-field fallbacks (what engines record when trace
    # sampling is off) restore availability.
    res.extra["peak_live"] = 7
    res.extra["mean_live"] = 3.5
    assert res.peak_live == 7
    assert res.mean_live == 3.5
