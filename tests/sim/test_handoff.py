"""When engines generate and bind their kernels: at construction, at
a mid-run hand-off, or never.

An engine given a kernel module whose timing rule the module has not
compiled yet interprets until the run has fired ``HANDOFF_K``
instructions per static node, then binds the kernels at a cycle
boundary and runs on over the same state. A module that has compiled
the rule (through an earlier run that handed off) binds at
construction. A module generates its kernel table on its first bind,
so a run that never binds generates nothing, and its workload builds
each machine lowering once. These tests pin who generates and binds
when; the differential suites and the golden replays pin that a
hand-off changes no number.
"""

import gc
import weakref
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
from repro.sim import codegen
from repro.sim.codegen import core
from repro.sim.codegen import queued as queued_codegen
from repro.sim.codegen import tagged as tagged_codegen
from repro.sim.codegen import vector as vector_codegen
from repro.sim.codegen import window as window_codegen
from repro.sim.codegen.core import FAMILIES, FAST, NO_HANDOFF, TIMED
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

#: Kernel family -> its generator module.
GENERATORS = {"tagged": tagged_codegen, "flat": queued_codegen,
              "window": window_codegen, "vector": vector_codegen}


def _counting(seen, key, fn):
    def counted(*args, **kwargs):
        seen[key] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.fixture
def events(monkeypatch):
    """Counts of table generations (``generate_source`` calls, and
    ``generate.<family>`` calls of each family's generator), kernel
    binds, rule compiles, ``compile()`` calls and hand-offs from here
    on; ``events.in_flight`` lists the tokens each hand-off found in
    flight."""
    seen = Counter()
    seen.in_flight = []
    monkeypatch.setattr(codegen, "generate_source", _counting(
        seen, "generate_source", codegen.generate_source))
    for family, module in GENERATORS.items():
        monkeypatch.setattr(module, "generate", _counting(
            seen, f"generate.{family}", module.generate))
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
    static node on every machine and timing rule, plain and profiled:
    each run is given its module, but generates no kernel table, binds
    nothing and compiles nothing."""
    program = lower_module(random_module(seed))
    for machine in MACHINES:
        for kwargs in ({}, {"load_latency": 4}, {"cache": CACHE_SPEC},
                       {"profile": True}):
            cw = CompiledWorkload(program)
            res = cw.run(machine, Memory(random_memory()), [3, 5],
                         **kwargs)
            assert res.completed, machine
            assert list(cw._kernels) == [KERNEL_FAMILY[machine]]
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
    family = KERNEL_FAMILY[machine]
    generated = {"generate_source": 1, f"generate.{family}": 1}
    assert _observe(wl, machine) == interp
    assert (events["bind"], events["hand_off"]) == (1, 1)
    assert events["compile_rule"] == 1
    assert {key: events[key] for key in generated} == generated
    kernels = wl.compiled.kernels(family)
    assert kernels.is_compiled(FAST)
    assert _observe(wl, machine) == interp
    assert (events["bind"], events["hand_off"]) == (2, 1)
    assert {key: events[key] for key in generated} == generated


@pytest.mark.parametrize("config", [{}, {"load_latency": 4},
                                    {"cache": CACHE_SPEC},
                                    {"profile": True}],
                         ids=["fast", "latency", "cache", "profiled"])
def test_precompiled_rule_binds_at_construction(config, events,
                                                monkeypatch):
    """A sweep's specs of one workload, as a pool worker runs them
    after ``pool.precompile_specs``: the first run of each family
    hands off, generating the family's table once per workload (tyr
    and unordered share one) and compiling the rule the spec binds, so
    unordered binds at construction. A second pass binds every run at
    construction, hands off nothing, generates nothing and calls
    ``compile()`` zero times. A profiled datapar run, which interprets,
    generates no vector table and binds nothing."""
    monkeypatch.setattr(pool, "_WL_MEMO", {})
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, machine, config) for machine in MACHINES]
    precompile_specs(specs)
    assert events == {}
    families = [family for family in FAMILIES
                if not (family == "vector" and config.get("profile"))]
    interpreting = len(FAMILIES) - len(families)
    for spec in specs:
        assert run_one(spec).completed
    generated = {key: n for key, n in events.items()
                 if key.startswith("generate")}
    assert generated == {
        "generate_source": len(families),
        **{f"generate.{family}": 1 for family in families}}
    assert events["hand_off"] == len(families)
    assert events["bind"] == len(specs) - interpreting
    compiled = workload_for(specs[0]).compiled
    rule = FAST if config in ({}, {"profile": True}) else TIMED
    for family in families:
        assert compiled.kernels(family).is_compiled(rule)
    compiles = events["compile"]
    for spec in specs:
        assert run_one(spec).completed
    assert events["bind"] == 2 * (len(specs) - interpreting)
    assert events["hand_off"] == len(families)
    assert events["compile"] == compiles
    assert {key: events[key] for key in generated} == generated


@pytest.mark.parametrize("machine", MACHINES)
def test_latency_run_binds_the_rule_a_cache_run_compiled(machine, events):
    """The cache model and the hash latency model share one timed
    rule: once a ``cache=`` run of a workload has handed off to its
    kernels, a ``load_latency`` run of it binds them at construction,
    hands off nothing, calls ``compile()`` zero times and equals the
    interpreter."""
    wl = build_workload("dmv", "tiny")
    _observe(wl, machine, cache=CACHE_SPEC)
    assert events["hand_off"] == 1
    binds, compiles = events["bind"], events["compile"]
    interp = _observe(build_workload("dmv", "tiny"), machine,
                      load_latency=4, codegen=False)
    assert _observe(wl, machine, load_latency=4) == interp
    assert events["hand_off"] == 1
    assert events["bind"] == binds + 1
    assert events["compile"] == compiles


@pytest.mark.parametrize("machine", ["tyr", "ordered", "seqdf"])
@pytest.mark.parametrize("timing", [{"load_latency": 4},
                                    {"cache": CACHE_SPEC}],
                         ids=["latency", "cache"])
def test_handoff_with_loads_in_flight(machine, timing, events,
                                      monkeypatch):
    """smv hands off at ``HANDOFF_K = 4`` with load responses in flight
    on each of these machines, under either timing, plain and
    profiled. The loads land after the hand-off (the kernels deposit
    the tokens the interpreter sent, as they are), and the run equals
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


@pytest.mark.parametrize("budget", ["budget0", "default"])
def test_profiled_datapar_run_interprets(budget, events, monkeypatch):
    """A profiled datapar run interprets: at budget 0 and at the
    default budget, the engine drops the module the runner gives it,
    so its run generates no table, binds nothing and calls
    ``compile()`` zero times, and its profile, key order included, is
    the ``codegen=False`` run's."""
    if budget in HANDOFF_BUDGETS:
        monkeypatch.setattr(core, "HANDOFF_K", HANDOFF_BUDGETS[budget])
    wl = build_workload("dmv", "tiny")
    gen = _observe(wl, "datapar", profile=True, cache=CACHE_SPEC)
    assert list(wl.compiled._kernels) == ["vector"]
    assert events == {}
    assert gen == _observe(wl, "datapar", profile=True, cache=CACHE_SPEC,
                           codegen=False)


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


def test_each_lowering_is_built_once_per_workload(monkeypatch):
    """The window and vector plans, and the loop classification, are
    built once per workload and read by every engine and the
    generators, through runs that interpret, hand off and bind at
    construction."""
    from repro.sim.vector import analysis, plan as vector_plan
    from repro.sim.window import plan as window_plan

    calls = Counter()
    for name, fn in (("build_plans", window_plan.build_plans),
                     ("build_vec_plans", vector_plan.build_vec_plans),
                     ("classify_loop", analysis.classify_loop)):
        for module in ("repro.harness.runner", "repro.sim.window.plan",
                       "repro.sim.window.engine", "repro.sim.codegen.window",
                       "repro.sim.vector.plan", "repro.sim.vector.engine",
                       "repro.sim.vector.analysis",
                       "repro.sim.codegen.vector"):
            monkeypatch.setattr(f"{module}.{name}",
                                _counting(calls, name, fn), raising=False)
    wl = build_workload("dmv", "tiny")
    for machine in ("seqdf", "vn", "ooo", "datapar"):
        for kwargs in ({}, {"profile": True}, {"load_latency": 4}, {}):
            assert wl.run(machine, **kwargs)[0].completed
    assert wl.compiled.kernels("window").is_compiled(FAST)
    assert wl.compiled.kernels("vector").is_compiled(FAST)
    blocks = len(wl.compiled.program.blocks)
    assert calls == {"build_plans": 1, "build_vec_plans": 1,
                     "classify_loop": blocks}


@pytest.mark.parametrize("case", ["never generated", "handed off",
                                  "profiled datapar"])
def test_dropped_workload_is_freed_without_the_collector(case):
    """A kernel module holds its family's lowering, never the
    workload, so a dropped workload is freed by reference counting
    alone, whether its kernels were never generated or generated at a
    hand-off, and whether its runs were profiled, when datapar's
    engine drops its module and interprets."""
    if case == "never generated":
        wl = None
        cw = CompiledWorkload(lower_module(random_module(0)))
    else:
        wl = build_workload("dmv", "tiny")
        cw = CompiledWorkload(wl.compiled.program)
    gc.collect()
    gc.disable()
    try:
        for machine in MACHINES:
            if wl is None:
                cw.run(machine, Memory(random_memory()), [3, 5])
            else:
                cw.run(machine, wl.fresh_memory(), wl.args,
                       profile=case == "profiled datapar")
        # A profiled datapar run generates nothing: it interprets.
        generated = {family: module._table is not None
                     for family, module in cw._kernels.items()}
        assert generated == {
            family: wl is not None and not (
                family == "vector" and case == "profiled datapar")
            for family in FAMILIES}
        ref = weakref.ref(cw)
        del cw
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", ["interpreted", "budget0", "budget1"])
def test_finished_engine_is_freed_without_the_collector(family, mode,
                                                         monkeypatch):
    """A run's engine, with its memory, metrics and kernels, is freed
    by reference counting once its result is built, whether it
    interpreted, bound its kernels at construction (budget 0) or handed
    off to them mid-run (budget 1): its fire tables hold its own bound
    methods until then."""
    if mode != "interpreted":
        monkeypatch.setattr(core, "HANDOFF_K", HANDOFF_BUDGETS[mode])
    wl = build_workload("dmv", "tiny")
    cw = CompiledWorkload(wl.compiled.program)
    make = {
        "tagged": lambda **kw: TaggedEngine(
            cw.tagged, wl.fresh_memory(), UnboundedGlobalPolicy(), **kw),
        "flat": lambda **kw: QueuedEngine(cw.flat, wl.fresh_memory(),
                                          **kw),
        "window": lambda **kw: WindowEngine(cw.program, wl.fresh_memory(),
                                            **kw),
        "vector": lambda **kw: DataParallelEngine(
            cw.program, wl.fresh_memory(), **kw),
    }[family]
    kernels = None if mode == "interpreted" else cw.kernels(family)
    gc.collect()
    gc.disable()
    try:
        eng = make(kernels=kernels)
        handoff = eng._handoff
        assert eng.run(cw.entry_args(wl.args)).completed
        assert handoff == (1 if mode == "budget1" else NO_HANDOFF)
        assert eng._handoff == NO_HANDOFF
        ref = weakref.ref(eng)
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_kernels_of_an_unknown_family_fail_at_the_call():
    cw = CompiledWorkload(lower_module(random_module(0)))
    with pytest.raises(ValueError, match="unknown kernel family 'bogus'"):
        cw.kernels("bogus")
    assert cw._kernels == {}
