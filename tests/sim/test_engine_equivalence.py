"""Engine-equivalence oracle: hot-path rewrites must not change
simulated behavior.

``golden_engine_metrics.json`` pins cycles, instructions, peak/mean
live state, declared results, tag-pool statistics, and fetch-stall
counters for every registered workload on every tagged policy, the
queued (ordered) engine, the window machines (vn/ooo/seqdf), and the
data-parallel machine -- each captured *before* its hot-path rewrite
(tagged/queued at the seed commit, window/datapar before the PR 2
overhaul).  These tests replay the same runs and assert bit-identical
numbers: at the default hand-off budget (each workload's first run
per kernel family and timing rule interprets, then hands off to its
kernels mid-run; later runs bind them at construction), with every
engine binding its kernels at construction (budget 0), and through
the interpreter (``codegen=False``), the reference semantics the
kernels are checked against.

``golden_profile_metrics.json`` pins what profiled runs attribute:
per-reason stall cycles, the hottest nodes and the cache-mode hit/miss
split, for every golden machine on every tiny workload under three
timing settings.  The records were captured from the interpreter's
attribution hooks; they replay through the profiled kernels (a
profiled datapar run interprets) at the default budget and at budget
0, and again through the interpreter.

Also here: regression tests for the stall-loop bugs (both engines'
memory-stall branches used to skip the ``max_cycles`` check, so a
stalled program could overrun its cycle budget unbounded).
"""

import json
import os

import pytest

from repro.errors import SimulationError
from repro.frontend.ast import ArraySpec, Function, Module, Return
from repro.frontend.dsl import load, v
from repro.frontend.lower import lower_module
from repro.harness.runner import run_program
from repro.sim.codegen import core as codegen_core
from repro.sim.engine import Engine
from repro.sim.latency import load_delay
from repro.sim.memory import Memory

from tests.sim.capture_golden_engine_metrics import (
    OUT,
    PROFILE_OUT,
    capture,
    capture_large,
    capture_profiles,
    large_keys,
)

with open(OUT) as _fh:
    GOLDEN = json.load(_fh)

with open(PROFILE_OUT) as _fh:
    GOLDEN_PROFILES = json.load(_fh)

#: ``large``-scale records replay in seconds, not milliseconds, so
#: they are opt-in locally (``-m "not slow"`` is the default) and
#: exercised in CI.
_LARGE = large_keys()


@pytest.fixture(scope="module")
def fresh_metrics():
    """One replay of every fast golden run with the current engines."""
    return capture(include_large=False)


@pytest.fixture(scope="module")
def bound_metrics():
    """The same fast golden runs, each binding its kernels at
    construction (budget 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen_core, "HANDOFF_K", 0)
        return capture(include_large=False)


@pytest.fixture(scope="module")
def interpreted_metrics():
    """The same fast golden runs, each forced through the interpreter."""
    return capture(include_large=False, codegen=False)


@pytest.fixture(scope="module")
def fresh_profiles():
    """One replay of every profiled golden run."""
    return capture_profiles()


@pytest.fixture(scope="module")
def bound_profiles():
    """The same profiled runs, each binding its kernels at
    construction (budget 0)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen_core, "HANDOFF_K", 0)
        return capture_profiles()


@pytest.fixture(scope="module")
def interpreted_profiles():
    """The same profiled runs, each forced through the interpreter."""
    return capture_profiles(codegen=False)


@pytest.fixture(scope="module")
def fresh_large_metrics():
    """One replay of the ``large``-scale golden runs (slow tests)."""
    return capture_large()


def test_golden_file_covers_every_registered_workload():
    from repro.workloads.registry import EXTRA_WORKLOADS, WORKLOAD_NAMES

    covered = {key.split("/")[0] for key in GOLDEN}
    assert covered == set(WORKLOAD_NAMES + EXTRA_WORKLOADS)


def test_golden_file_pins_large_scale_runs():
    assert _LARGE <= set(GOLDEN)


@pytest.mark.parametrize("key", sorted(set(GOLDEN) - _LARGE))
def test_metrics_identical_to_golden(key, fresh_metrics):
    assert key in fresh_metrics, f"golden run {key} no longer replayed"
    assert fresh_metrics[key] == GOLDEN[key]


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(_LARGE))
def test_large_scale_metrics_identical_to_golden(key,
                                                 fresh_large_metrics):
    assert key in fresh_large_metrics, \
        f"golden run {key} no longer replayed"
    assert fresh_large_metrics[key] == GOLDEN[key]


def test_no_unpinned_runs(fresh_metrics):
    assert set(fresh_metrics) | _LARGE == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(set(GOLDEN) - _LARGE))
def test_bound_kernels_match_golden(key, bound_metrics):
    assert bound_metrics[key] == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(set(GOLDEN) - _LARGE))
def test_interpreter_matches_golden(key, interpreted_metrics):
    assert interpreted_metrics[key] == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_PROFILES))
def test_profile_identical_to_golden(key, fresh_profiles):
    assert key in fresh_profiles, f"profiled run {key} no longer replayed"
    assert fresh_profiles[key] == GOLDEN_PROFILES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_PROFILES))
def test_bound_kernel_profile_matches_golden(key, bound_profiles):
    assert bound_profiles[key] == GOLDEN_PROFILES[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_PROFILES))
def test_interpreter_profile_matches_golden(key, interpreted_profiles):
    assert interpreted_profiles[key] == GOLDEN_PROFILES[key]


def test_no_unpinned_profiles(fresh_profiles):
    assert set(fresh_profiles) == set(GOLDEN_PROFILES)


def test_profile_pins_cover_the_taxonomy():
    """Each stall reason the engines can reach is non-zero in some pin,
    and the cache runs pin a hit/miss split."""
    reached = {
        reason
        for rec in GOLDEN_PROFILES.values()
        for reason, n in rec["profile"]["stall_cycles"].items() if n
    }
    assert reached >= {"fired", "width_limited", "memory_stall",
                       "waiting_operands", "idle"}
    assert any(rec["profile"]["memory_stall_split"]
               for rec in GOLDEN_PROFILES.values())


# ---------------------------------------------------------------------------
# Stall-loop regressions: a program blocked on an in-flight load must
# still honor ``max_cycles`` (both engines' stall branches used to
# fast-forward straight past it).


def _one_load_module():
    return Module([
        Function("main", ["i"], [
            Return([load("A", v("i"))]),
        ]),
    ], arrays=[ArraySpec("A", read_only=True)])


def _slow_index(latency, array="A", min_delay=50):
    """An index whose modeled load latency is >= ``min_delay``."""
    for i in range(512):
        if load_delay(latency, array, i) >= min_delay:
            return i, load_delay(latency, array, i)
    pytest.fail("no slow index found; latency model changed?")


@pytest.mark.parametrize("machine", ["tyr", "ordered", "datapar"])
def test_stalled_load_respects_max_cycles(machine, monkeypatch):
    latency = 64
    idx, delay = _slow_index(latency)
    program = lower_module(_one_load_module())
    values = list(range(600))

    # Baseline: idealized timing finishes in a handful of cycles.
    fast = run_program(program, machine, Memory({"A": list(values)}),
                       [idx], load_latency=1)
    assert fast.extra["declared_results"] == (values[idx],)

    # With the slow load, completion needs roughly ``delay`` more
    # cycles, all spent stalled.  A budget cut into that stall window
    # must raise -- the seed engines would silently run to completion.
    budget = fast.cycles + 5
    assert budget < fast.cycles + delay - 1
    engines = []
    run = Engine.run

    def spy(engine, args):
        engines.append(engine)
        return run(engine, args)

    monkeypatch.setattr(Engine, "run", spy)
    with pytest.raises(SimulationError, match="max_cycles"):
        run_program(program, machine, Memory({"A": list(values)}),
                    [idx], load_latency=latency, max_cycles=budget)
    # The run raised inside the stall with the stall's cycles sampled
    # and committed (datapar, like its per-op tick, samples cycle
    # max_cycles + 1 first): both traces are as long as the run.
    metrics = engines[-1].metrics
    assert metrics.cycles == budget + (machine == "datapar")
    assert len(metrics.ipc_trace) == len(metrics.live_trace) \
        == metrics.cycles

    # Sanity: the same run with enough budget completes, and really
    # did need more cycles than the cut-off budget above.
    slow = run_program(program, machine, Memory({"A": list(values)}),
                       [idx], load_latency=latency,
                       max_cycles=fast.cycles + delay + 10)
    assert slow.extra["declared_results"] == (values[idx],)
    assert slow.cycles > budget
