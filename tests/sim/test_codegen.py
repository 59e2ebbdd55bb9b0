"""Unit tests for the generated plan kernels (:mod:`repro.sim.codegen`).

The differential fuzz suite (tests/properties) pins bit-identity on
random programs; these tests cover the machinery around the generators:
table determinism, the per-process shape memo (constants bound as
data, never compiled twice, no program kept alive), per-rule compile
(a run compiles only the timing rule it binds), the
``TYR_REPRO_DUMP_KERNELS`` hook (the only user of the program
fingerprint on the kernel path), and the rules for when engines fall
back to the plain interpreters. Engines here bind their kernels at
construction (budget 0); ``test_handoff.py`` covers the hand-off.
"""

import gc
import weakref
from dataclasses import replace
from types import FunctionType

import pytest

from repro.frontend import (
    ArraySpec,
    Assign,
    Function,
    Module,
    Return,
    Store,
    c,
    lower_module,
    v,
)
from repro.harness.pool import cache_key, spec_for
from repro.harness.runner import KERNEL_FAMILY, CompiledWorkload
from repro.ir import printer
from repro.ir.ops import Op
from repro.sim import codegen
from repro.sim.codegen import core
from repro.sim.codegen.core import DUMP_ENV, FAMILIES, FAST, TIMED
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, UnboundedGlobalPolicy
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload
from repro.workloads.randomprog import random_memory, random_module

pytestmark = pytest.mark.usefixtures("bind_at_construction")

#: One machine per kernel family.
FAMILY_MACHINE = {"tagged": "tyr", "flat": "ordered", "window": "seqdf",
                  "vector": "datapar"}


@pytest.fixture(scope="module")
def wl():
    return build_workload("dmv", "tiny")


#: A cache spec small enough that random programs miss.
CACHE_SPEC = "line=4,miss=60,l1=4x2x1"


def _shape_rows(table):
    return [(tuple(text for text, _ in recipe.variants), label)
            for (recipe, _), label in zip(table.rows, table.labels())]


def _compiled_sources(monkeypatch):
    """Every source ``compile()`` gets from here on, in call order."""
    sources = []

    def spy(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(core, "compile", spy, raising=False)
    return sources


# ---------------------------------------------------------------- source


def test_generate_source_deterministic(wl):
    """The table is a pure function of the plan: two independent
    compiles of the same program emit the same shapes, row for row,
    and the same source."""
    twin = build_workload("dmv", "tiny")
    for family in FAMILIES:
        a = codegen.generate_source(family,
                                    wl.compiled.lowering(family))
        b = codegen.generate_source(family,
                                    twin.compiled.lowering(family))
        assert a == b, family
        assert _shape_rows(a.table) == _shape_rows(b.table), family


def test_source_has_bind_entry_points(wl):
    """Every family's module binds one function per row and carries no
    cycle loop: each engine runs its own hand-written one."""
    cw = CompiledWorkload(wl.compiled.program)
    for family in FAMILIES:
        mod = cw.kernels(family)
        assert callable(mod.bind), family
        assert not hasattr(mod, "run_loop"), family
        source = codegen.generate_source(family, cw.lowering(family))
        assert source == "" and not hasattr(source.table, "loop"), family
        for text in source.table.texts():
            assert text.startswith("def kernel("), family
    assert len(cw.kernels("tagged").table.rows) == len(cw.tagged.nodes)
    assert len(cw.kernels("flat").table.rows) == len(cw.flat.nodes)


def test_dump_kernels_env(wl, monkeypatch, tmp_path):
    """A dump holds every shape the program uses and its node table,
    whether or not this process compiled those shapes already. It is
    named after the program's fingerprint, written when the table is
    generated (not when ``kernels()`` hands out the module), and each
    row shows its concrete refs and constants, not the recipe's
    placeholders. Each family dumps one table per program, whether or
    not a profiled run asked for it."""
    monkeypatch.setenv(DUMP_ENV, str(tmp_path))
    source = codegen.generate_source("window",
                                     wl.compiled.lowering("window"))
    codegen.compile_kernels(source, "window", "dumptest0000")
    dumped = (tmp_path / "window-dumptest0000.py").read_text()
    for text in source.table.texts():
        assert text in dumped
    assert "TABLE = [" in dumped
    assert dumped.count("\n    (") == len(source.table.rows)
    cw = CompiledWorkload(wl.compiled.program)
    fingerprint = cw.fingerprint[:12]
    modules = [cw.kernels(family) for family in FAMILIES]
    assert list(tmp_path.glob(f"*-{fingerprint}*")) == []
    for family, module in zip(FAMILIES, modules):
        module.table  # noqa: B018 -- generates (and dumps) the table
        dumped = (tmp_path / f"{family}-{fingerprint}.py").read_text()
        assert "Field(" not in dumped, family
        assert "# s0: shape\n" in dumped, family
    assert sorted(path.name for path in tmp_path.glob(f"*-{fingerprint}*")) \
        == sorted(f"{family}-{fingerprint}.py" for family in FAMILIES)
    tagged = (tmp_path / f"tagged-{fingerprint}.py").read_text()
    for nd in cw.tagged.nodes:
        # Allocates fire through the engine's state machine.
        if nd.op is not Op.ALLOCATE:
            assert f"('pops', {nd.node_id})" in tagged
    flat = (tmp_path / f"flat-{fingerprint}.py").read_text()
    dest_id, dest_port = next(edge for nd in cw.flat.nodes
                              for edges in nd.out_edges for edge in edges)
    assert f"('fifos', {dest_id}, {dest_port})" in flat


def test_kernel_path_never_formats_the_program(monkeypatch):
    """With dumping off, building and running a never-seen program's
    kernels -- plain, profiled, under each timing rule -- never prints
    its IR: the fingerprint only names dumps."""
    monkeypatch.delenv(DUMP_ENV, raising=False)

    def fail(*args, **kwargs):
        raise AssertionError("format_program on the kernel path")

    monkeypatch.setattr(printer, "format_program", fail)
    cw = CompiledWorkload(lower_module(random_module(-3)))
    for machine in FAMILY_MACHINE.values():
        for kwargs in ({}, {"profile": True}, {"load_latency": 4},
                       {"cache": CACHE_SPEC}):
            cw.run(machine, Memory(random_memory()), [3, 5], **kwargs)
    assert cw._fingerprint is None


# ------------------------------------------------------------ shape memo


def _program(one, zero, pad):
    """A straight-line program; ``pad`` shifts every node id."""
    body = [Assign("p", v("a") - c(7))] if pad else []
    body += [
        Assign("x", v("a") + c(one)),
        Assign("y", v("a") * c(zero)),
        Store("out", c(0), v("x")),
        Store("out", c(1), v("y")),
        Return([v("x"), v("y")]),
    ]
    return CompiledWorkload(lower_module(Module(
        functions=[Function("main", ["a"], body)],
        arrays=[ArraySpec("out")])))


def _observe(cw, machine, codegen_on):
    memory = Memory({"out": [None, None]})
    res = cw.run(machine, memory, [3], codegen=codegen_on)
    # repr keeps 1 apart from True and 0 from 0.0 and -0.0.
    return repr((res.cycles, res.instructions,
                 res.extra["declared_results"], memory.snapshot()))


def test_shared_shapes_bind_their_own_constants():
    """Programs sharing shapes but not destinations or immediates run
    back to back in one process, each equal to the interpreter. A memo
    keyed by constant values would hand the second program the first
    one's ``1`` for ``True`` or ``0`` for ``0.0``."""
    programs = [_program(1, 0, False), _program(True, 0.0, True),
                _program(True, -0.0, False)]
    first, second = (codegen.generate_source("tagged", cw.lowering("tagged"))
                     for cw in programs[:2])
    assert set(first.table.texts()) & set(second.table.texts())
    for machine in FAMILY_MACHINE.values():
        for cw in programs:
            assert (_observe(cw, machine, True)
                    == _observe(cw, machine, False)), machine


def test_rebinding_known_shapes_compiles_nothing(wl, monkeypatch):
    """Once a run has compiled a program's shapes for its timing rule,
    rebuilding the kernels from a fresh workload and running them again
    is binding only: no loop source and zero ``compile()`` calls."""
    for machine in FAMILY_MACHINE.values():
        CompiledWorkload(wl.compiled.program).run(machine, wl.fresh_memory(),
                                                  wl.args)
    sources = _compiled_sources(monkeypatch)
    again = CompiledWorkload(wl.compiled.program)
    for family, machine in FAMILY_MACHINE.items():
        assert codegen.generate_source(family, again.lowering(family)) == ""
        again.kernels(family)
        res = again.run(machine, wl.fresh_memory(), wl.args)
        assert res.completed
    assert sources == []


def _rule_texts(cw, rules):
    """The shape texts of ``cw``'s tables under ``rules``, loops
    included, over every family."""
    texts = set()
    for family in FAMILIES:
        table = codegen.generate_source(family, cw.lowering(family)).table
        texts.update(table.texts(rules))
    return texts


def test_runs_compile_only_their_timing_rule(monkeypatch):
    """A plain run of a never-seen program compiles no timed-rule
    text. A later ``cache=`` run of the same program compiles its
    timed texts, in at most one ``compile()`` call per family; then a
    ``load_latency`` run, which binds the same timed texts, another
    ``cache=`` run and a plain run compile nothing."""
    monkeypatch.setattr(core, "_SHAPES", {})
    cw = CompiledWorkload(lower_module(random_module(-3)))
    fast = _rule_texts(cw, (FAST,))
    timed_only = _rule_texts(cw, (TIMED,)) - fast
    assert timed_only
    sources = _compiled_sources(monkeypatch)

    def runs(**kwargs):
        for machine in FAMILY_MACHINE.values():
            cw.run(machine, Memory(random_memory()), [3, 5], **kwargs)

    runs()
    compiled = "".join(sources)
    assert fast <= set(core._SHAPES)
    assert not any(text in compiled for text in timed_only)
    before = len(sources)
    runs(cache=CACHE_SPEC)
    assert 0 < len(sources) - before <= len(FAMILIES)
    assert timed_only <= set(core._SHAPES)
    before = len(sources)
    runs(load_latency=4)
    runs(cache=CACHE_SPEC)
    runs()
    assert len(sources) == before


#: Distinct shapes over randomprog seeds 0..199 (about 25k tagged,
#: 13k flat and 13k window node rows, 1k vector block rows). Per-node
#: families stay near 3% of their rows; a vector shape is a whole
#: block in up to two timing variants, so it is rarely shared.
SHAPE_BOUNDS = {"tagged": 600, "flat": 600, "window": 550,
                "vector": 2000}


def test_distinct_shapes_stay_bounded():
    texts = {family: set() for family in FAMILIES}
    for seed in range(200):
        cw = CompiledWorkload(lower_module(random_module(seed)))
        for family in FAMILIES:
            table = codegen.generate_source(family,
                                            cw.lowering(family)).table
            texts[family].update(table.texts())
    counts = {family: len(found) for family, found in texts.items()}
    for family, bound in SHAPE_BOUNDS.items():
        assert counts[family] <= bound, counts


def _record(profile):
    """A profile with the order of every table it holds."""
    return (profile.machine, profile.cycles, profile.instructions,
            *(list(table.items()) for table in (
                profile.stall_cycles, profile.node_fired,
                profile.node_cycles, profile.memory_stall_split)))


def test_dropped_workload_kernels_are_collected(wl):
    """Kernels live as long as their workload: the shape memo holds
    code objects only, so no compiled program outlives its owner."""
    cw = CompiledWorkload(wl.compiled.program)
    refs = [weakref.ref(cw.kernels(family)) for family in FAMILIES]
    for family, machine in FAMILY_MACHINE.items():
        cw.run(machine, wl.fresh_memory(), wl.args)
    del cw
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(FAMILIES)


# -------------------------------------------------------------- fallback


def test_traced_runs_never_touch_kernels(wl, monkeypatch):
    """Traced and occupancy-tracked runs carry hooks the kernels omit:
    the runner hands them their module as it does every run, and the
    engine drops it, so even at budget 0 they generate no table and
    bind nothing. ``codegen=False`` asks for the interpreter: the
    runner requests no module. A profiled run binds its kernels."""
    cw = CompiledWorkload(wl.compiled.program)
    requested, bound = [], []
    build = cw.kernels
    monkeypatch.setattr(
        cw, "kernels", lambda family: requested.append(family)
        or build(family))
    bind = core.KernelModule.bind
    monkeypatch.setattr(
        core.KernelModule, "bind",
        lambda self, engine: bound.append(self.family) or bind(self, engine))
    res = cw.run("tyr", wl.fresh_memory(), wl.args, codegen=False)
    assert res.completed and requested == []
    for kwargs in ({"record_trace": True}, {"track_occupancy": True}):
        res = cw.run("tyr", wl.fresh_memory(), wl.args, **kwargs)
        assert res.completed
    assert requested == ["tagged", "tagged"]
    assert bound == [] and cw._kernels["tagged"]._table is None
    res = cw.run("tyr", wl.fresh_memory(), wl.args, profile=True)
    assert res.completed and bound == ["tagged"]


def test_profiled_engines_bind_kernels(wl):
    """The tagged, queued and window engines given kernels bind them
    when profiling too, and book what the interpreter books. A
    profiling vector engine drops its kernels and interprets: the
    vector family has no cycle loop to book the stall taxonomy in."""
    cw = wl.compiled
    mem = wl.fresh_memory
    engines = {
        "tagged": lambda **kw: TaggedEngine(
            cw.tagged, mem(), UnboundedGlobalPolicy(), profile=True, **kw),
        "flat": lambda **kw: QueuedEngine(cw.flat, mem(), profile=True,
                                          **kw),
        "window": lambda **kw: WindowEngine(cw.program, mem(),
                                            profile=True, **kw),
        "vector": lambda **kw: DataParallelEngine(cw.program, mem(),
                                                  profile=True, **kw),
    }
    # Each engine's fire table, one function per node (per block for
    # vector): a generated kernel or a partial of the plain rule.
    tables = {
        "tagged": lambda eng: eng._fire_fns,
        "flat": lambda eng: eng._try_fire_fns,
        "window": lambda eng: [fn for fns in eng._fire_tables.values()
                               for fn in fns],
        "vector": lambda eng: list(eng._ticked.values()),
    }
    rules = {"tagged": "_fire_instr", "flat": "_try_fire",
             "window": "_fire", "vector": "_run_items"}
    for family, make in engines.items():
        gen = make(kernels=cw.kernels(family))
        interp = make()
        generated, interpreted = tables[family](gen), tables[family](interp)
        assert len(generated) == len(interpreted), family
        if family == "vector":
            rule = getattr(gen, rules[family])
            assert all(fn.func == rule for fn in generated), family
        else:
            assert all(isinstance(fn, FunctionType)
                       for fn in generated), family
        rule = getattr(interp, rules[family])
        assert all(fn.func == rule for fn in interpreted), family
        assert _record(gen.run(wl.args).extra["profile"]) == _record(
            interp.run(wl.args).extra["profile"]), family


def test_codegen_flag_matches_interpreter(wl):
    for machine in ("tyr", "ordered", "vn", "datapar"):
        interp = wl.compiled.run(machine, wl.fresh_memory(), wl.args,
                                 codegen=False)
        gen = wl.compiled.run(machine, wl.fresh_memory(), wl.args,
                              codegen=True)
        assert (gen.cycles, gen.instructions, gen.results) == \
            (interp.cycles, interp.instructions, interp.results)


# --------------------------------------------------------------- harness


def test_cache_key_ignores_codegen(wl):
    """Results are bit-identical either way, so a cached result must
    serve both settings."""
    spec = spec_for(wl, "tyr", {"tags": 8})
    assert cache_key(spec) == cache_key(
        replace(spec, config={**spec.config, "codegen": False}))


def test_every_machine_has_a_family(wl):
    from repro.harness.runner import MACHINES
    assert set(KERNEL_FAMILY) == set(MACHINES)
    assert set(KERNEL_FAMILY.values()) == set(FAMILIES)
