"""Unit tests for the block-window engine (vN / sequential dataflow)."""

import pytest

from repro.errors import SimulationError
from repro.frontend import ArraySpec, Function, Module, Return, load, v
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.latency import load_delay
from repro.sim.memory import Memory
from repro.sim.window import WindowEngine
from repro.sim.window.plan import build_plans

from tests.conftest import (
    dmv_expected,
    dmv_memory,
    dmv_module,
    sum_loop_module,
)


def run_window(module, args, memory=None, **kwargs):
    prog = lower_module(module)
    mem = Memory(memory or {})
    n = prog.entry_block().n_params
    full = list(args) + [0] * (n - len(args))
    return WindowEngine(prog, mem, **kwargs).run(full), mem


def test_vn_configuration_is_sequential():
    res, _ = run_window(sum_loop_module(), [12], window=1, issue_width=1)
    assert res.completed
    assert res.machine == "vn"
    assert max(res.ipc_trace) <= 1


def test_larger_window_is_faster():
    results = {}
    for window in (1, 4, 16):
        res, _ = run_window(dmv_module(), [8], dmv_memory(8),
                            window=window, issue_width=128)
        results[window] = res
        assert res.completed
    assert results[1].cycles > results[4].cycles >= results[16].cycles


def test_window_memory_correct():
    n = 8
    memory = dmv_memory(n)
    res, mem = run_window(dmv_module(), [n], memory, window=8,
                          issue_width=64)
    assert mem["w"] == dmv_expected(memory, n)


def test_window_bounds_live_state():
    # Sequential dataflow's state stays near the window size, far
    # below tagged dataflow's.
    res, _ = run_window(dmv_module(), [12], dmv_memory(12), window=8)
    assert res.peak_live < 100


def test_bad_window_rejected():
    prog = lower_module(sum_loop_module())
    with pytest.raises(SimulationError):
        WindowEngine(prog, Memory(), window=0)


def test_machine_name_defaults():
    prog = lower_module(sum_loop_module())
    assert WindowEngine(prog, Memory(), window=1,
                        issue_width=1).machine_name == "vn"
    assert WindowEngine(prog, Memory(), window=8).machine_name == "seqdf"


def test_plans_split_slices_at_spawns():
    prog = lower_module(dmv_module())
    plans = build_plans(prog)
    entry = plans[prog.entry]
    spawn_items = [i for i in entry.items if i[0] == "spawn"]
    slice_items = [i for i in entry.items if i[0] == "slice"]
    assert len(spawn_items) == 1  # the outer loop
    assert len(slice_items) == len(spawn_items) + 1
    # The outer loop's plan has a terminator pseudo-op.
    outer = next(p for name, p in plans.items() if name != prog.entry
                 and p.term_id is not None)
    assert outer.ops[outer.term_id].inputs  # consumes the decider


def test_fetch_stall_accounting():
    """Sequential dataflow's bottleneck is control resolution (the
    paper's 'wait for your turn in the global block-order'); vN's is
    its single-slice window."""
    res_seq, _ = run_window(dmv_module(), [8], dmv_memory(8),
                            window=8, issue_width=128)
    assert res_seq.extra["fetch_stall_decider_cycles"] > 0
    res_vn, _ = run_window(dmv_module(), [8], dmv_memory(8),
                           window=1, issue_width=1)
    assert res_vn.extra["fetch_stall_window_cycles"] > \
        res_vn.extra["fetch_stall_decider_cycles"]


def test_conditional_spawn_fetch():
    from repro.frontend.ast import (
        Assign, For, Function, If, Module, Return,
    )
    from repro.frontend.dsl import c, v

    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [
                If(v("i") % 2 == c(0), [
                    For("j", 0, v("i"), [
                        Assign("acc", v("acc") + 1),
                    ]),
                ]),
            ]),
            Return([v("acc")]),
        ]),
    ])
    res, _ = run_window(mod, [7], window=4)
    assert res.completed
    assert res.results[0] == sum(i for i in range(7) if i % 2 == 0)


@pytest.mark.parametrize("codegen", [True, False],
                         ids=["kernels", "interpreter"])
def test_budget_is_checked_when_a_stalled_load_lands(codegen,
                                                     bind_at_construction):
    """A window machine stalled on a load skips the ``max_cycles``
    check, since the wait is bounded by the load's delay, and raises on
    the cycle the load lands: a budget cut anywhere into the stall
    raises at cycle 63 here."""
    module = Module([Function("main", ["i"], [Return([load("A", v("i"))])])],
                    arrays=[ArraySpec("A", read_only=True)])
    latency = 64
    idx = next(i for i in range(512) if load_delay(latency, "A", i) == 62)
    cw = CompiledWorkload(lower_module(module))
    for budget in (7, 62):
        eng = WindowEngine(cw.program, Memory({"A": list(range(600))}),
                           load_latency=latency, max_cycles=budget,
                           kernels=cw.kernels("window") if codegen else None)
        with pytest.raises(SimulationError, match=f"max_cycles={budget}"):
            eng.run(cw.entry_args([idx]))
        assert eng.metrics.cycles == 63
