"""Differential fuzz: generated plan kernels vs plain interpreters.

The AOT kernels (:mod:`repro.sim.codegen`) restructure every engine's
hot loop; each engine's plain interpreter, one firing rule per
engine, remains the reference semantics.
These properties pin bit-identity on random programs across all
machine models: metrics, traces, memory, results -- and, on the
machines that can fail, the failure itself (same exception type and
message either way). Profiled runs bind the same kernels (datapar's
interpret), and their profile must match the interpreter's table for
table. Kernel runs go twice: binding the kernels at construction
(budget 0), and handing off to them after the first cycle that fires
(budget 1).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.frontend.lower import lower_module
from repro.harness.runner import MACHINES, CompiledWorkload
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module

from tests.conftest import HANDOFF_BUDGETS, handoff_budget
from tests.properties.seeds import SEEDS

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _observe(seed: int, machine: str, codegen: bool,
             **kwargs) -> dict:
    """Everything one run exposes, or the failure it raises."""
    cw = CompiledWorkload(lower_module(random_module(seed)))
    mem = Memory(random_memory())
    try:
        res = cw.run(machine, mem, [3, 5], codegen=codegen, **kwargs)
    except ReproError as err:
        return {"error": (type(err).__name__, str(err)),
                "memory": mem.snapshot()}
    out = {
        "cycles": res.cycles,
        "instructions": res.instructions,
        "peak_live": res.peak_live,
        "mean_live": res.mean_live,
        "results": res.results,
        "completed": res.completed,
        "ipc": list(res.ipc_trace),
        "live": list(res.live_trace),
        "memory": mem.snapshot(),
        # The engine's own counters: fetch stalls, tag pools, vector
        # and scalar loop trips, cache statistics.
        "extra": {k: v for k, v in res.extra.items() if k != "profile"},
    }
    prof = res.extra.get("profile")
    if prof is not None:
        # Item lists, so key order and exact floats must match too.
        out["profile"] = {
            "stalls": list(prof.stall_cycles.items()),
            "node_fired": list(prof.node_fired.items()),
            "node_cycles": list(prof.node_cycles.items()),
            "memory_stall_split": list(prof.memory_stall_split.items()),
        }
    return out


@given(seed=SEEDS, machine=st.sampled_from(MACHINES))
@_SETTINGS
def test_kernels_match_interpreter(seed, machine):
    interp = _observe(seed, machine, codegen=False)
    for budget in HANDOFF_BUDGETS:
        with handoff_budget(budget):
            gen = _observe(seed, machine, codegen=True)
        assert gen == interp, budget


@given(seed=SEEDS, machine=st.sampled_from(MACHINES),
       latency=st.sampled_from([4, 8]))
@_SETTINGS
def test_kernels_match_interpreter_variable_latency(seed, machine,
                                                    latency):
    interp = _observe(seed, machine, codegen=False,
                      load_latency=latency)
    for budget in HANDOFF_BUDGETS:
        with handoff_budget(budget):
            gen = _observe(seed, machine, codegen=True,
                           load_latency=latency)
        assert gen == interp, budget


#: Timings the profiled comparison runs under: hash-based variable
#: latency, and a cache model small enough that random programs miss.
PROFILE_TIMINGS = ({"load_latency": 4},
                   {"cache": "line=4,miss=60,l1=4x2x1"})


@given(seed=SEEDS,
       machine=st.sampled_from(("tyr", "ordered", "seqdf", "datapar")))
@_SETTINGS
def test_profiled_runs_agree_and_conserve(seed, machine):
    """Profiling only observes: a profiled interpreter run matches an
    unprofiled kernel run on everything but the profile, a profiled
    kernel run matches it on everything (stall reasons, fired counts,
    exact attributed cycles, the hit/miss split), and its stall
    reasons sum exactly to its cycles."""
    for timing in PROFILE_TIMINGS:
        interp = _observe(seed, machine, codegen=False, profile=True,
                          **timing)
        unprofiled = {k: v for k, v in interp.items() if k != "profile"}
        for budget in HANDOFF_BUDGETS:
            with handoff_budget(budget):
                plain = _observe(seed, machine, codegen=True, **timing)
                gen = _observe(seed, machine, codegen=True, profile=True,
                               **timing)
            assert gen == interp, (timing, budget)
            assert plain == unprofiled, (timing, budget)
        profile = interp.get("profile")
        if profile is not None:
            assert (sum(n for _, n in profile["stalls"])
                    == interp["cycles"])
