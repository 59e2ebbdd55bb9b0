"""Cross-machine correctness: every machine model must reproduce the
reference interpreter's results and memory on every program shape."""

import gc
import inspect
import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.frontend.ast import (
    ArraySpec,
    Assign,
    Call,
    Cond,
    For,
    Function,
    If,
    Module,
    Return,
    Store,
    While,
)
from repro.frontend.dsl import c, load, v
from repro.frontend.lower import lower_module
from repro.harness.runner import PAPER_SYSTEMS, CompiledWorkload
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, UnboundedGlobalPolicy
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload

from tests.conftest import (
    assert_machine_matches_reference,
    dmv_expected,
    dmv_memory,
    dmv_module,
    sum_loop_module,
)

ALL_SAFE_MACHINES = list(PAPER_SYSTEMS)  # deadlock-free machines


def cases():
    yield ("dmv", dmv_module(), [8], dmv_memory(8))
    yield ("sum", sum_loop_module(), [25], {})
    yield ("sum-zero", sum_loop_module(), [0], {})
    yield ("sum-one", sum_loop_module(), [1], {})

    collatz = Module([
        Function("main", ["x"], [
            Assign("steps", c(0)),
            While(v("x") > 1, [
                Assign("x", Cond(v("x") % 2 == c(0), v("x") / 2,
                                 v("x") * 3 + 1)),
                Assign("steps", v("steps") + 1),
            ]),
            Return([v("steps")]),
        ]),
    ])
    yield ("collatz", collatz, [27], {})
    yield ("collatz-1", collatz, [1], {})

    branchy = Module([
        Function("main", ["n"], [
            Assign("a", c(0)),
            Assign("b", c(0)),
            For("i", 0, v("n"), [
                If(v("i") % 3 == c(0),
                   [Assign("a", v("a") + v("i"))],
                   [If(v("i") % 3 == c(1),
                       [Assign("b", v("b") + 1)],
                       [Assign("a", v("a") - 1)])]),
            ]),
            Return([v("a") * 1000 + v("b")]),
        ]),
    ])
    yield ("branchy", branchy, [14], {})

    sparse = Module([
        Function("main", ["n"], [
            Assign("total", c(0)),
            For("i", 0, v("n"), [
                Assign("s", c(0)),
                For("j", load("ptr", v("i")), load("ptr", v("i") + 1), [
                    Assign("s", v("s") + load("data", v("j"))),
                ]),
                Assign("total", v("total") + v("s")),
            ]),
            Return([v("total")]),
        ]),
    ], arrays=[ArraySpec("ptr", read_only=True),
               ArraySpec("data", read_only=True)])
    yield ("sparse", sparse, [4],
           {"ptr": [0, 2, 2, 5, 6], "data": [1, 2, 3, 4, 5, 6]})

    calls = Module(
        [
            Function("bump", ["i"], [
                Store("Acc", v("i"), load("Acc", v("i")) + 1),
                Return([load("Acc", v("i"))]),
            ]),
            Function("main", ["n"], [
                Store("Acc", c(0), c(5)),
                Assign("r", c(0)),
                For("k", 0, v("n"), [
                    Call(["r1"], "bump", [c(0)]),
                    Assign("r", v("r") + v("r1")),
                ]),
                Return([v("r")]),
            ]),
        ],
        arrays=[ArraySpec("Acc", length=2)],
    )
    yield ("call-chain", calls, [3], {"Acc": [0, 0]})

    parallel_store = Module(
        [Function("main", ["n"], [
            For("i", 0, v("n"), [
                Store("out", v("i"), v("i") * v("i") + 1),
            ], parallel=("out",)),
            Return([c(0)]),
        ])],
        arrays=[ArraySpec("out")],
    )
    yield ("par-store", parallel_store, [9], {"out": [0] * 9})


CASES = list(cases())


@pytest.mark.parametrize("machine", ALL_SAFE_MACHINES)
@pytest.mark.parametrize(
    "name,module,args,memory", CASES, ids=[case[0] for case in CASES]
)
def test_machine_matches_reference(name, module, args, memory, machine):
    assert_machine_matches_reference(module, args, memory, machine)


@pytest.mark.parametrize("tags", [2, 3, 5, 64])
def test_tyr_correct_at_any_tag_count(tags):
    module = dmv_module()
    res = assert_machine_matches_reference(
        module, [6], dmv_memory(6), "tyr", tags=tags,
        check_token_bound=True,
    )
    assert res.completed


def test_tyr_two_tags_bounds_state_far_below_unordered():
    module = dmv_module()
    n = 12
    mem = dmv_memory(n)
    r2 = assert_machine_matches_reference(module, [n], mem, "tyr", tags=2)
    ru = assert_machine_matches_reference(module, [n], mem, "unordered")
    assert r2.peak_live < ru.peak_live / 3
    assert r2.cycles > ru.cycles  # fewer tags = less parallelism


def test_bounded_global_tags_deadlock_on_dmv():
    """Paper Fig. 11: greedily bounding a *global* tag space deadlocks."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    mem = Memory(dmv_memory(8))
    with pytest.raises(DeadlockError) as err:
        cw.run("unordered-bounded", mem, [8], total_tags=8)
    diagnosis = err.value.diagnosis
    assert diagnosis is not None
    assert diagnosis.pending_allocations
    assert "tags in use" in err.value.args[0]


def test_greedy_kbounding_deadlocks_on_nested_loops():
    """Paper Sec. VIII-A: naive per-block k-bounding is not safe for
    general (nested) programs."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    mem = Memory(dmv_memory(8))
    with pytest.raises(DeadlockError):
        cw.run("kbounded", mem, [8], tags=4)


def test_greedy_kbounding_fine_on_flat_loop():
    """...but works on a single non-nested loop (TTDA's target)."""
    res = assert_machine_matches_reference(
        sum_loop_module(), [30], {}, "kbounded", tags=4
    )
    assert res.completed


def test_deterministic_across_runs():
    module = dmv_module()
    mem_init = dmv_memory(6)
    runs = []
    for _ in range(2):
        cw = CompiledWorkload(lower_module(module))
        mem = Memory(dict(mem_init))
        res = cw.run("tyr", mem, [6], tags=4)
        runs.append((res.cycles, res.instructions, res.peak_live,
                     tuple(res.live_trace[:50])))
    assert runs[0] == runs[1]


def test_vn_is_one_wide():
    res = assert_machine_matches_reference(
        dmv_module(), [6], dmv_memory(6), "vn"
    )
    assert max(res.ipc_trace) <= 1
    assert res.mean_ipc <= 1.0


def test_performance_ordering_matches_paper():
    """Fig. 12's qualitative ordering: vn slowest, unordered fastest,
    TYR close to unordered; Fig. 14: TYR state far below unordered."""
    module = dmv_module()
    n = 12
    mem_init = dmv_memory(n)
    results = {}
    for m in PAPER_SYSTEMS:
        results[m] = assert_machine_matches_reference(
            module, [n], mem_init, m
        )
    cyc = {m: r.cycles for m, r in results.items()}
    assert cyc["vn"] > cyc["seqdf"] > cyc["unordered"]
    assert cyc["ordered"] > cyc["unordered"]
    assert cyc["tyr"] <= cyc["unordered"] * 1.5
    peak = {m: r.peak_live for m, r in results.items()}
    assert peak["unordered"] > 5 * peak["vn"]
    assert peak["unordered"] > peak["ordered"]


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize("machine", [
    "tyr", "unordered", "unordered-bounded", "kbounded", "ordered",
    "seqdf", "datapar",
])
def test_issue_width_below_one_is_rejected(machine, width):
    """A machine that may fire nothing per cycle is a configuration
    error, raised at construction: not a hang until ``max_cycles``, a
    watchdog deadlock, or a deadlock blamed on Theorem 2."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    what = "lanes" if machine == "datapar" else "issue width"
    with pytest.raises(SimulationError, match=f"^{what} must be >= 1$"):
        cw.run(machine, Memory(dmv_memory(4)), [4], issue_width=width,
               max_cycles=10_000)


@pytest.mark.parametrize("engine", [TaggedEngine, QueuedEngine,
                                    WindowEngine, DataParallelEngine],
                         ids=lambda cls: cls.__name__)
def test_engine_default_max_cycles_is_the_runner_s(engine):
    """An engine built directly -- by a test, ``tyr-repro trace`` or
    fig11's ablations -- gets the simulated-cycle budget a
    ``CompiledWorkload.run`` gets."""
    def default(fn):
        return inspect.signature(fn).parameters["max_cycles"].default

    assert default(engine.__init__) == default(CompiledWorkload.run)


@pytest.mark.parametrize("engine", ["tagged", "queued", "window",
                                    "datapar"])
def test_engine_rejects_a_wrong_argument_count(engine):
    """Every engine's run checks the argument count against the
    program's entry, and a run that fails the check still drops its
    fire tables, so the engine frees by reference counting."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    memory = Memory(dmv_memory(4))
    eng = {
        "tagged": lambda: TaggedEngine(cw.tagged, memory,
                                       UnboundedGlobalPolicy()),
        "queued": lambda: QueuedEngine(cw.flat, memory),
        "window": lambda: WindowEngine(cw.program, memory),
        "datapar": lambda: DataParallelEngine(cw.program, memory),
    }[engine]()
    n = cw.program.entry_block().n_params
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SimulationError,
                           match=f"^entry takes {n} args, got {n + 1}$"):
            eng.run([4] * (n + 1))
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


#: A cache whose misses stall a load for 299 cycles, longer than the
#: watchdog's 256-cycle floor at the budgets below.
_SLOW_MISSES = "line=4,miss=300,l1=4x2x1"


@pytest.mark.parametrize("slack, workload, cache", [
    pytest.param(-1, "dmv", None, id="N-1"),
    pytest.param(0, "dmv", None, id="N"),
    pytest.param(-1, "smv", _SLOW_MISSES, id="N-1-smv-miss300"),
    pytest.param(0, "smv", _SLOW_MISSES, id="N-smv-miss300"),
])
@pytest.mark.parametrize("machine", [
    "vn", "ooo", "seqdf", "ordered", "unordered", "tyr", "kbounded",
    "datapar",
])
def test_max_cycles_admits_a_run_that_fits(machine, slack, workload,
                                           cache):
    """``max_cycles`` is a budget of simulated cycles: a run needing N
    completes with ``max_cycles=N``, with the same numbers as an
    unbounded run, and raises with ``max_cycles=N-1``. A long load
    stall is not a deadlock at a small budget either (smv's misses)."""
    wl = build_workload(workload, "tiny")
    free = wl.run_checked(machine, cache=cache)
    budget = free.cycles + slack
    if slack < 0:
        with pytest.raises(SimulationError,
                           match=f"exceeded max_cycles={budget}$"):
            wl.run(machine, max_cycles=budget, cache=cache)
        return
    res = wl.run_checked(machine, max_cycles=budget, cache=cache)
    assert (res.cycles, res.instructions, res.peak_live, res.results) == \
        (free.cycles, free.instructions, free.peak_live, free.results)
