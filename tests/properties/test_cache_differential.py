"""Differential fuzz: the cache-hierarchy model across execution modes.

The cache model threads through four interpreters and four kernel
generators; its probe sequence must be a pure function of the
program's memory-access order, never of which execution mode replayed
it. These properties pin, on random programs:

* ``cache=None`` leaves the seed semantics bit-identical (the golden
  records pin the real workloads; this pins the long tail);
* with a cache configured, generated kernels and the plain
  interpreters agree on every metric *and* on the per-level hit/miss
  counters;
* profiled cache runs agree with unprofiled ones and keep the stall
  taxonomy conserved, with ``memory_stall`` split exactly into
  hit/miss attribution.

Kernel runs go twice: binding the kernels at construction (budget 0),
and handing off to them after the first cycle that fires (budget 1).
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

SPECS = st.sampled_from([
    "line=2,miss=30,l1=4x2x1",
    "line=4,miss=60,l1=8x2x1",
    "line=4,miss=90,l1=4x1x1,l2=16x4x6",
])
_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _observe(seed: int, machine: str, codegen: bool, **kwargs) -> dict:
    cw = CompiledWorkload(lower_module(random_module(seed)))
    mem = Memory(random_memory())
    try:
        res = cw.run(machine, mem, [3, 5], codegen=codegen,
                     sample_traces=False, **kwargs)
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
        "memory": mem.snapshot(),
        "cache": res.extra.get("cache"),
    }
    prof = res.extra.get("profile")
    if prof is not None:
        out["stalls"] = dict(prof.stall_cycles)
        out["split"] = dict(prof.memory_stall_split)
    return out


@given(seed=SEEDS, machine=st.sampled_from(MACHINES))
@_SETTINGS
def test_cache_none_is_the_seed_semantics(seed, machine):
    """``cache=None`` must not even perturb the seed model."""
    for budget in HANDOFF_BUDGETS:
        with handoff_budget(budget):
            base = _observe(seed, machine, codegen=True)
            explicit = _observe(seed, machine, codegen=True, cache=None)
        assert explicit == base, budget
        assert base.get("cache") is None


@given(seed=SEEDS, machine=st.sampled_from(MACHINES), spec=SPECS)
@_SETTINGS
def test_kernels_match_interpreter_under_cache(seed, machine, spec):
    interp = _observe(seed, machine, codegen=False, cache=spec)
    for budget in HANDOFF_BUDGETS:
        with handoff_budget(budget):
            gen = _observe(seed, machine, codegen=True, cache=spec)
        assert gen == interp, budget
    if "error" not in interp:
        assert interp["cache"]["spec"].startswith(spec.split(",l")[0])


@given(seed=SEEDS,
       machine=st.sampled_from(("tyr", "ordered", "seqdf", "datapar")),
       spec=SPECS)
@_SETTINGS
def test_profiled_cache_runs_agree_and_conserve(seed, machine, spec):
    prof = _observe(seed, machine, codegen=False, cache=spec,
                    profile=True)
    for budget in HANDOFF_BUDGETS:
        with handoff_budget(budget):
            plain = _observe(seed, machine, codegen=True, cache=spec)
        if "error" in plain or "error" in prof:
            assert plain.get("error") == prof.get("error"), budget
        else:
            assert prof["cycles"] == plain["cycles"], budget
            assert prof["cache"] == plain["cache"], budget
    if "error" in prof:
        return
    assert sum(prof["stalls"].values()) == prof["cycles"]
    mem_stall = prof["stalls"].get("memory_stall", 0)
    split = prof["split"]
    if split:
        assert split.get("hit", 0) + split.get("miss", 0) == mem_stall
