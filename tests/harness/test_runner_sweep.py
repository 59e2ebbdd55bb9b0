"""Unit tests for the runner and for sweeps submitted through
:func:`repro.harness.pool.run_batch`."""

import pytest

from repro.errors import DeadlockError, ReproError, SimulationError
from repro.frontend.lower import lower_module
from repro.harness.pool import run_batch
from repro.harness.runner import (
    MACHINES,
    PAPER_SYSTEMS,
    CompiledWorkload,
    run_program,
)
from repro.sim.memory import Memory
from repro.workloads import build_workload

from tests.conftest import sum_loop_module


def test_machine_lists_consistent():
    assert set(PAPER_SYSTEMS) <= set(MACHINES)
    assert len(PAPER_SYSTEMS) == 5


def test_compiled_workload_caches_artifacts():
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    assert cw.tagged is cw.tagged
    assert cw.flat is cw.flat


def test_entry_args_padding_and_overflow():
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    assert cw.entry_args([5]) == [5]
    with pytest.raises(SimulationError):
        cw.entry_args([1, 2, 3, 4, 5])


def test_entry_args_pads_hidden_params_with_zeros():
    wl = build_workload("dmv", "tiny")
    n_params = wl.compiled.program.entry_block().n_params
    full = wl.compiled.entry_args(wl.args)
    assert len(full) == n_params
    assert full[:len(wl.args)] == list(wl.args)
    assert all(v == 0 for v in full[len(wl.args):])


def test_declared_results_truncation():
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    # Without metadata, every result is declared.
    cw.program.meta.pop("entry_declared_results", None)
    assert cw.declared_results((1, 2, 3)) == (1, 2, 3)
    cw.program.meta["entry_declared_results"] = 1
    assert cw.declared_results((1, 2, 3)) == (1,)
    cw.program.meta["entry_declared_results"] = 0
    assert cw.declared_results((1, 2, 3)) == ()


def test_fingerprint_tracks_program_content():
    a = CompiledWorkload(lower_module(sum_loop_module()))
    b = CompiledWorkload(lower_module(sum_loop_module()))
    assert a.fingerprint == b.fingerprint
    other = build_workload("dmv", "tiny").compiled
    assert a.fingerprint != other.fingerprint


def test_unknown_machine_rejected():
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    with pytest.raises(SimulationError, match="unknown machine"):
        cw.run("gpu", Memory(), [5])


def test_run_program_one_shot():
    res = run_program(lower_module(sum_loop_module()), "tyr",
                      Memory(), [5], tags=2)
    assert res.completed
    assert res.machine == "tyr"
    assert res.extra["declared_results"] == (10,)


def test_result_machine_renamed():
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    res = cw.run("unordered", Memory(), [5])
    assert res.machine == "unordered"


def test_run_machines_checked():
    """Oracle-checked runs come back in the order they were given."""
    wl = build_workload("dmv", "tiny")
    vn, tyr = run_batch([(wl, "vn"), (wl, "tyr")])
    assert (vn.machine, tyr.machine) == ("vn", "tyr")
    assert vn.cycles > tyr.cycles


def test_sweep_tags_ordering():
    wl = build_workload("dmv", "tiny")
    few, many = run_batch([(wl, "tyr", {"tags": tags})
                           for tags in (2, 16)])
    assert few.cycles >= many.cycles
    assert few.peak_live <= many.peak_live


def test_sweep_issue_width():
    wl = build_workload("dmv", "tiny")
    narrow, wide = run_batch([(wl, "tyr", {"issue_width": width})
                              for width in (8, 64)])
    assert narrow.cycles >= wide.cycles


def test_sweep_width_x_tags_grid():
    wl = build_workload("dmv", "tiny")
    points = [(width, tags) for width in (8, 32) for tags in (2, 8)]
    grid = dict(zip(points, run_batch(
        [(wl, "tyr", {"issue_width": width, "tags": tags})
         for width, tags in points])))
    for (width, tags), res in grid.items():
        assert res.extra["issue_width"] == width
        assert res.cycles <= grid[(8, tags)].cycles
        assert res.cycles <= grid[(width, 2)].cycles


def test_min_global_tags_scan():
    """A bounded global tag pool deadlocks dmv at 4 tags and completes
    at 256; the deadlock comes back in its slot when tolerated."""
    wl = build_workload("dmv", "tiny")
    starved, ample = run_batch(
        [(wl, "unordered-bounded", {"total_tags": total}, False)
         for total in (4, 256)],
        tolerate=(DeadlockError,))
    assert isinstance(starved, DeadlockError)
    assert ample.completed
