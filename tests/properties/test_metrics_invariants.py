"""Cross-machine metric invariants on random programs."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload, PAPER_SYSTEMS
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module

from tests.properties.seeds import SEEDS

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _run(seed, machine, **kwargs):
    cw = CompiledWorkload(lower_module(random_module(seed)))
    return cw.run(machine, Memory(random_memory()), [3, 5], **kwargs)


@given(seed=SEEDS, machine=st.sampled_from(PAPER_SYSTEMS))
@_SETTINGS
def test_ipc_never_exceeds_issue_width(seed, machine):
    res = _run(seed, machine, issue_width=16)
    width = 1 if machine == "vn" else 16
    assert all(v <= width for v in res.ipc_trace)
    assert res.cycles * width >= res.instructions


@given(seed=SEEDS, machine=st.sampled_from(PAPER_SYSTEMS))
@_SETTINGS
def test_all_tokens_dead_at_completion(seed, machine):
    res = _run(seed, machine)
    assert res.completed
    if res.live_trace:
        assert res.live_trace[-1] == 0


@given(seed=SEEDS)
@_SETTINGS
def test_instruction_counts_are_stable_across_tag_budgets(seed):
    """TYR executes the same dynamic instructions regardless of tag
    budget, modulo allocate control emissions (+/- a few percent)."""
    a = _run(seed, "tyr", tags=2)
    b = _run(seed, "tyr", tags=64)
    lo, hi = sorted([a.instructions, b.instructions])
    assert hi - lo <= max(4, hi * 0.1)


@given(seed=SEEDS)
@_SETTINGS
def test_narrower_machines_are_never_faster(seed):
    wide = _run(seed, "tyr", issue_width=64)
    narrow = _run(seed, "tyr", issue_width=2)
    assert narrow.cycles >= wide.cycles


@given(seed=SEEDS)
@_SETTINGS
def test_more_tags_never_slow_tyr_down_much(seed):
    few = _run(seed, "tyr", tags=2)
    many = _run(seed, "tyr", tags=64)
    # More tags can only expose more parallelism (small scheduling
    # noise aside).
    assert many.cycles <= few.cycles * 1.1 + 4


@given(seed=SEEDS)
@_SETTINGS
def test_peak_live_matches_trace_maximum(seed):
    res = _run(seed, "unordered")
    if res.live_trace:
        assert res.peak_live == max(res.live_trace)
        assert 0 <= res.mean_live <= res.peak_live
