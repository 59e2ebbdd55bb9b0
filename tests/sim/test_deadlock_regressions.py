"""Pinned reproductions of the gated-allocation starvation deadlocks.

Both were deterministic Theorem-2 violations carried since the seed
(ROADMAP.md): sibling loop pools under one parent ended with most tags
held by speculative (not-ready) pops while ready external allocates --
which need two free tags under the spare rule -- starved, and the
holders' data transitively depended on the starved work. The fix makes
speculative pops leave two tags free (sim/tagged/tagspace.py); these
tests keep both workloads completing forever after.

The window-engine tests pin a false stall: a delayed load maturing on
an otherwise idle cycle was not counted as progress, so the quiesce
check declared the machine stalled one cycle before the head slice
could retire the now-fired load.
"""

import pytest

from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.ir.interp import ReferenceInterpreter
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module
from repro.workloads.registry import build_workload


def test_tc_small_completes_on_tyr_at_eight_tags():
    res = build_workload("tc", "small").run_checked("tyr", tags=8)
    assert res.completed


def test_randomprog_66869_completes_on_tyr_at_four_tags():
    cw = CompiledWorkload(lower_module(random_module(66869)))
    res = cw.run("tyr", Memory(random_memory()), [3, 5], tags=4)
    assert res.completed


@pytest.mark.slow
@pytest.mark.parametrize("tags", [4, 6, 8, 12, 16, 24, 32, 48, 64])
def test_tc_small_completes_on_tyr_across_tag_sweep(tags):
    res = build_workload("tc", "small").run_checked("tyr", tags=tags)
    assert res.completed


@pytest.mark.parametrize("seed", [263, 503])
@pytest.mark.parametrize("timing", [{"cache": "line=4,miss=60,l1=4x2x1"},
                                    {"load_latency": 60}],
                         ids=["cache", "latency60"])
@pytest.mark.parametrize("mode", [{"codegen": False}, {"codegen": True},
                                  {"profile": True}],
                         ids=["interpreted", "generated", "profiled"])
def test_randomprog_maturing_load_is_progress_on_seqdf(seed, timing, mode):
    cw = CompiledWorkload(lower_module(random_module(seed)))
    ref_memory = Memory(random_memory())
    ref = ReferenceInterpreter(cw.program, ref_memory).run(
        cw.entry_args([3, 5]))
    memory = Memory(random_memory())
    res = cw.run("seqdf", memory, [3, 5], **timing, **mode)
    assert res.completed
    assert res.extra["declared_results"] == cw.declared_results(
        ref.results)
    assert memory.snapshot() == ref_memory.snapshot()
