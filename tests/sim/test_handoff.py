"""When engines bind their generated kernels: at construction, at a
mid-run hand-off, or never.

An engine given a kernel module whose timing rule the module has not
compiled yet interprets until the run has fired ``HANDOFF_K``
instructions per static node, then binds the kernels at a cycle
boundary and runs on over the same state. A module that has compiled
the rule (through ``pool.precompile_specs`` or an earlier run that
handed off) binds at construction. These tests pin who binds when; the
differential suites and the golden replays pin that a hand-off changes
no number.
"""

from collections import Counter

import pytest

from repro.frontend.lower import lower_module
from repro.harness import pool
from repro.harness.pool import (
    precompile_specs,
    run_one,
    spec_for,
    workload_for,
)
from repro.harness.runner import KERNEL_FAMILY, CompiledWorkload
from repro.sim.codegen import core
from repro.sim.codegen import vector as vector_codegen
from repro.sim.codegen.core import FAST, NO_HANDOFF, rule_for
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, UnboundedGlobalPolicy
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload
from repro.workloads.randomprog import random_memory, random_module

from tests.conftest import HANDOFF_BUDGETS

#: The machines of the cold-program suites: every kernel family.
MACHINES = ("tyr", "unordered", "ordered", "seqdf", "datapar")

#: Engine class -> the tokens it has in flight: delayed buckets, or
#: the queued engine's per-load response queues.
IN_FLIGHT = {
    TaggedEngine: lambda eng: sum(map(len, eng._delayed.values())),
    QueuedEngine: lambda eng: sum(map(len, eng._inflight.values())),
    WindowEngine: lambda eng: sum(map(len, eng._delayed.values())),
    DataParallelEngine: lambda eng: 0,
}

CACHE_SPEC = "line=4,miss=60,l1=4x2x1"


@pytest.fixture
def events(monkeypatch):
    """Counts of kernel binds, rule compiles, ``compile()`` calls and
    hand-offs from here on; ``events.in_flight`` lists the tokens each
    hand-off found in flight."""
    seen = Counter()
    seen.in_flight = []
    bind = core.KernelModule.bind
    compile_rule = core.KernelModule.compile

    def counting_bind(self, engine):
        seen["bind"] += 1
        return bind(self, engine)

    def counting_compile(self, rule):
        seen["compile_rule"] += 1
        return compile_rule(self, rule)

    monkeypatch.setattr(core.KernelModule, "bind", counting_bind)
    monkeypatch.setattr(core.KernelModule, "compile", counting_compile)
    monkeypatch.setattr(core, "compile",
                        lambda *a: seen.update(["compile"]) or compile(*a),
                        raising=False)
    for cls, in_flight in IN_FLIGHT.items():
        def counting_hand_off(self, hand_off=cls._hand_off,
                              in_flight=in_flight):
            seen["hand_off"] += 1
            seen.in_flight.append(in_flight(self))
            hand_off(self)

        monkeypatch.setattr(cls, "_hand_off", counting_hand_off)
    return seen


def _observe(wl, machine, **kwargs):
    """Everything a checked run of ``wl`` exposes."""
    res, memory = wl.run(machine, **kwargs)
    wl.check(memory, res.extra["declared_results"])
    prof = res.extra.get("profile")
    tables = None if prof is None else [list(table.items()) for table in (
        prof.stall_cycles, prof.node_fired, prof.node_cycles,
        prof.memory_stall_split)]
    return (res.cycles, res.instructions, res.peak_live, res.mean_live,
            res.results, list(res.ipc_trace), list(res.live_trace),
            memory.snapshot(), tables,
            {k: v for k, v in res.extra.items() if k != "profile"})


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_short_never_seen_program_never_binds_or_compiles(seed, events):
    """These programs fire fewer than ``HANDOFF_K`` instructions per
    static node on every machine: their runs build the kernel tables
    (generation stays eager) but bind nothing and compile nothing."""
    program = lower_module(random_module(seed))
    for machine in MACHINES:
        for kwargs in ({}, {"load_latency": 4}, {"cache": CACHE_SPEC},
                       {"profile": True}):
            cw = CompiledWorkload(program)
            res = cw.run(machine, Memory(random_memory()), [3, 5],
                         **kwargs)
            assert res.completed, machine
            assert KERNEL_FAMILY[machine] in cw._kernels
    assert events == {}


@pytest.mark.parametrize("machine", MACHINES)
def test_long_run_binds_exactly_once(machine, events):
    """A registry run fires far more than ``HANDOFF_K`` instructions
    per static node: it starts interpreted, binds its kernels once, at
    the hand-off, and compiles its one timing rule there. The next run
    of the same program binds at construction; both equal the
    interpreter."""
    wl = build_workload("dmv", "tiny")
    interp = _observe(build_workload("dmv", "tiny"), machine,
                      codegen=False)
    assert _observe(wl, machine) == interp
    assert (events["bind"], events["hand_off"]) == (1, 1)
    assert events["compile_rule"] == 1
    kernels = wl.compiled.kernels(KERNEL_FAMILY[machine])
    assert kernels.is_compiled(FAST)
    assert _observe(wl, machine) == interp
    assert (events["bind"], events["hand_off"]) == (2, 1)


@pytest.mark.parametrize("config", [{}, {"load_latency": 4},
                                    {"cache": CACHE_SPEC},
                                    {"profile": True}],
                         ids=["fast", "latency", "cache", "profiled"])
def test_precompiled_rule_binds_at_construction(config, events,
                                                monkeypatch):
    """``pool.precompile_specs`` compiles the rule each spec binds (the
    profiled variant's for a profiled datapar spec), so every run binds
    its kernels at construction and none hands off."""
    monkeypatch.setattr(pool, "_WL_MEMO", {})
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, machine, config) for machine in MACHINES]
    precompile_specs(specs)
    compiled = workload_for(specs[0]).compiled
    rule = rule_for(config.get("cache"), config.get("load_latency", 1))
    for machine in MACHINES:
        assert compiled.kernels(KERNEL_FAMILY[machine]).is_compiled(
            rule, profiled=bool(config.get("profile")))
    before = events["bind"]
    for spec in specs:
        assert run_one(spec).completed
    assert events["bind"] - before == len(specs)
    assert events["hand_off"] == 0


@pytest.mark.parametrize("machine", ["tyr", "ordered", "seqdf"])
@pytest.mark.parametrize("timing", [{"load_latency": 4},
                                    {"cache": CACHE_SPEC}],
                         ids=["latency", "cache"])
def test_handoff_with_loads_in_flight(machine, timing, events,
                                      monkeypatch):
    """smv hands off at ``HANDOFF_K = 4`` with load responses in flight
    on each of these machines, under either timing, plain and
    profiled. The loads land after the hand-off (tagged rewrites its
    in-flight 5-tuples as the kernels' 4-tuples), and the run equals
    the interpreter's, traces and profile included."""
    monkeypatch.setattr(core, "HANDOFF_K", 4)
    for kwargs in (timing, dict(timing, profile=True)):
        interp = _observe(build_workload("smv", "tiny"), machine,
                          codegen=False, **kwargs)
        before = events["hand_off"]
        assert _observe(build_workload("smv", "tiny"), machine,
                        **kwargs) == interp
        assert events["hand_off"] == before + 1
        assert events.in_flight[-1] > 0


def test_profiled_datapar_handoff_builds_its_variant_once(events,
                                                          monkeypatch):
    """Whether a profiled datapar run may bind at construction is asked
    of the profiled variant without generating it; the run that hands
    off generates it, and the next profiled run binds it at
    construction."""
    built = []
    generate = vector_codegen.generate

    def counting_generate(program, profiled=False):
        built.append(profiled)
        return generate(program, profiled)

    monkeypatch.setattr(vector_codegen, "generate", counting_generate)
    wl = build_workload("dmv", "tiny")
    kernels = wl.compiled.kernels("vector")
    assert not kernels.is_compiled(FAST, profiled=True)
    assert built == [False]
    first = _observe(wl, "datapar", profile=True)
    assert built == [False, True]
    assert events["hand_off"] == 1
    assert kernels.is_compiled(FAST, profiled=True)
    assert not kernels.is_compiled(FAST)
    assert _observe(wl, "datapar", profile=True) == first
    assert built == [False, True]
    assert (events["bind"], events["hand_off"]) == (2, 1)


@pytest.mark.parametrize("budget", sorted(HANDOFF_BUDGETS))
def test_budgets_bind_at_construction_or_after_the_first_firing(
        budget, events, monkeypatch):
    """Budget 0 binds kernels at construction; budget 1 keeps the
    interpreter until the first cycle that fires, then hands off."""
    monkeypatch.setattr(core, "HANDOFF_K", HANDOFF_BUDGETS[budget])
    wl = build_workload("dmv", "tiny")
    cw = wl.compiled
    engines = {
        "tagged": lambda **kw: TaggedEngine(
            cw.tagged, wl.fresh_memory(), UnboundedGlobalPolicy(), **kw),
        "flat": lambda **kw: QueuedEngine(cw.flat, wl.fresh_memory(),
                                          **kw),
        "window": lambda **kw: WindowEngine(cw.program, wl.fresh_memory(),
                                            **kw),
        "vector": lambda **kw: DataParallelEngine(
            cw.program, wl.fresh_memory(), **kw),
    }
    for family, make in engines.items():
        kernels = cw.kernels(family)
        binds = events["bind"]
        eng = make(kernels=kernels)
        if budget == "budget0":
            assert events["bind"] == binds + 1, family
            assert eng._handoff == NO_HANDOFF, family
        else:
            assert events["bind"] == binds, family
            assert eng._handoff == 1, family
            assert eng._handoff_kernels is kernels, family
        assert eng.run(cw.entry_args(wl.args)).completed
        assert events["bind"] == binds + 1, family
        assert eng._handoff == NO_HANDOFF, family
        assert eng._handoff_kernels is None, family
    assert events["hand_off"] == (0 if budget == "budget0" else 4)


def test_traced_and_occupancy_runs_never_hand_off(monkeypatch):
    """Only the interpreter carries the trace and occupancy hooks: an
    engine given kernels for such a run keeps interpreting."""
    monkeypatch.setattr(core, "HANDOFF_K", HANDOFF_BUDGETS["budget1"])
    wl = build_workload("dmv", "tiny")
    cw = wl.compiled
    for kwargs in ({"record_trace": True}, {"track_occupancy": True}):
        eng = TaggedEngine(cw.tagged, wl.fresh_memory(),
                           UnboundedGlobalPolicy(),
                           kernels=cw.kernels("tagged"), **kwargs)
        assert eng._handoff == NO_HANDOFF
        assert eng.run(cw.entry_args(wl.args)).completed
        assert eng._kernels is None
