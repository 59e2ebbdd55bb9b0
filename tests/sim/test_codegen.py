"""Unit tests for the generated plan kernels (:mod:`repro.sim.codegen`).

The differential fuzz suite (tests/properties) pins bit-identity on
random programs; these tests cover the machinery around the generators:
table determinism, the per-process shape memo (constants bound as
data, never compiled twice, no program kept alive, profiled variants
built only when a profiled run needs them), per-rule compile (a run
compiles only the timing rule it binds), the ``TYR_REPRO_DUMP_KERNELS``
hook (the only user of the program fingerprint on the kernel path),
and the rules for when engines fall back to the plain interpreters.
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
from repro.errors import SimulationError
from repro.harness.pool import cache_key, spec_for
from repro.harness.runner import KERNEL_FAMILY, CompiledWorkload
from repro.ir import printer
from repro.ir.ops import Op
from repro.sim import codegen
from repro.sim.codegen import core
from repro.sim.codegen.core import CACHE, DUMP_ENV, FAMILIES, FAST, VAR
from repro.sim.memory import Memory
from repro.sim.profile import STALL_REASONS
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, TyrPolicy, UnboundedGlobalPolicy
from repro.sim.tagged.engine import _ALLOC_POP, ROOT_TAG
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload
from repro.workloads.randomprog import random_memory, random_module

from tests.conftest import dmv_memory, dmv_module

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
        a = codegen.generate_source(family, wl.compiled)
        b = codegen.generate_source(family, twin.compiled)
        assert a == b, family
        assert _shape_rows(a.table) == _shape_rows(b.table), family
        assert a.table.loop == b.table.loop, family


def test_source_has_bind_entry_points(wl):
    """Every family's module binds one function per row, and every
    family but the vector one carries a cycle loop."""
    cw = CompiledWorkload(wl.compiled.program)
    for family in FAMILIES:
        mod = cw.kernels(family)
        assert callable(mod.bind), family
        assert (mod.run_loop is None) == (family == "vector"), family
        source = codegen.generate_source(family, cw)
        for text in source.table.texts():
            assert text.startswith("def kernel("), family
    assert len(cw.kernels("tagged").rows) == len(cw.tagged.nodes)
    assert len(cw.kernels("flat").rows) == len(cw.flat.nodes)


def test_dump_kernels_env(wl, monkeypatch, tmp_path):
    """A dump holds every shape the program uses and its node table,
    whether or not this process compiled those shapes already. It is
    named after the program's fingerprint, and each row shows its
    concrete refs and constants, not the recipe's placeholders."""
    monkeypatch.setenv(DUMP_ENV, str(tmp_path))
    source = codegen.generate_source("window", wl.compiled)
    codegen.compile_kernels(source, "window", "dumptest0000")
    dumped = (tmp_path / "window-dumptest0000.py").read_text()
    for text in source.table.texts():
        assert text in dumped
    assert "TABLE = [" in dumped
    assert dumped.count("\n    (") == len(source.table.rows)
    cw = CompiledWorkload(wl.compiled.program)
    fingerprint = cw.fingerprint[:12]
    for family in FAMILIES:
        cw.kernels(family)
        dumped = (tmp_path / f"{family}-{fingerprint}.py").read_text()
        assert "Field(" not in dumped, family
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
    first = codegen.generate_source("tagged", programs[0])
    second = codegen.generate_source("tagged", programs[1])
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
        assert codegen.generate_source(family, again) == ""
        again.kernels(family)
        res = again.run(machine, wl.fresh_memory(), wl.args)
        assert res.completed
    assert sources == []


def _rule_texts(cw, rules, profiled=False):
    """The shape texts of ``cw``'s tables under ``rules``, loops
    included, over every family."""
    texts = set()
    for family in FAMILIES:
        table = codegen.generate_source(family, cw).table
        if profiled:
            table = table.profile()
        texts.update(table.texts(rules))
    return texts


def test_runs_compile_only_their_timing_rule(monkeypatch):
    """A plain run of a never-seen program compiles no cache-rule or
    var-rule text. A later ``cache=`` run of the same program compiles
    its cache-rule texts, in at most one ``compile()`` call per
    family; a third run compiles nothing."""
    monkeypatch.setattr(core, "_SHAPES", {})
    cw = CompiledWorkload(lower_module(random_module(-3)))
    fast = _rule_texts(cw, (FAST,))
    cache_only = _rule_texts(cw, (CACHE,)) - fast
    var_only = _rule_texts(cw, (VAR,)) - fast
    assert cache_only and var_only
    sources = _compiled_sources(monkeypatch)

    def runs(**kwargs):
        for machine in FAMILY_MACHINE.values():
            cw.run(machine, Memory(random_memory()), [3, 5], **kwargs)

    runs()
    compiled = "".join(sources)
    assert fast <= set(core._SHAPES)
    assert not any(text in compiled for text in cache_only | var_only)
    before = len(sources)
    runs(cache=CACHE_SPEC)
    assert 0 < len(sources) - before <= len(FAMILIES)
    assert cache_only <= set(core._SHAPES)
    assert not any(text in "".join(sources) for text in var_only)
    before = len(sources)
    runs(cache=CACHE_SPEC)
    runs()
    assert len(sources) == before


def test_profiled_datapar_compiles_only_its_rule(monkeypatch):
    """A profiled datapar run of a never-seen program compiles its
    profiled whole-block shapes for the rule it binds, not the
    other two."""
    monkeypatch.setattr(core, "_SHAPES", {})
    cw = CompiledWorkload(lower_module(random_module(-3)))
    table = codegen.generate_source("vector", cw).table.profile()
    own = set(table.texts((FAST,)))
    others = set(table.texts((CACHE, VAR))) - own
    assert others
    sources = _compiled_sources(monkeypatch)
    res = cw.run("datapar", Memory(random_memory()), [3, 5], profile=True)
    assert res.extra["profile"].cycles == res.cycles
    assert own <= set(core._SHAPES)
    assert not any(text in "".join(sources) for text in others)


#: Distinct shapes over randomprog seeds 0..199 (about 25k tagged,
#: 13k flat and 13k window node rows, 1k vector block rows). Per-node
#: families stay near 3% of their rows; a vector shape is a whole
#: block in up to three timing variants, so it is rarely shared.
SHAPE_BOUNDS = {"tagged": 600, "flat": 600, "window": 550,
                "vector": 2000}


def test_distinct_shapes_stay_bounded():
    texts = {family: set() for family in FAMILIES}
    for seed in range(200):
        cw = CompiledWorkload(lower_module(random_module(seed)))
        for family in FAMILIES:
            table = codegen.generate_source(family, cw).table
            texts[family].update(t for t in table.texts()
                                 if t != table.loop)
    counts = {family: len(found) for family, found in texts.items()}
    for family, bound in SHAPE_BOUNDS.items():
        assert counts[family] <= bound, counts


def _record(profile):
    """A profile with the order of every table it holds."""
    return (profile.machine, profile.cycles, profile.instructions,
            *(list(table.items()) for table in (
                profile.stall_cycles, profile.node_fired,
                profile.node_cycles, profile.memory_stall_split)))


def test_profiled_variants_are_built_lazily(wl, monkeypatch):
    """A plain run generates and compiles no profiled shape. The first
    profiled run compiles the program's profiled variant for the timing
    rule it binds; a second profiled run of the same program, from a
    fresh workload with nothing memoized on it, calls ``compile()``
    zero times."""
    monkeypatch.setattr(core, "_SHAPES", {})
    program = wl.compiled.program
    plain = CompiledWorkload(program)
    for machine in FAMILY_MACHINE.values():
        assert plain.run(machine, wl.fresh_memory(), wl.args).completed
    profiled_only = set()
    for family in FAMILIES:
        table = codegen.generate_source(family, plain).table
        profiled_only |= (set(table.profile().texts((FAST,)))
                          - set(table.texts()))
    assert len(profiled_only) >= len(FAMILIES)
    assert not profiled_only & set(core._SHAPES)
    for machine in FAMILY_MACHINE.values():
        assert plain.run(machine, wl.fresh_memory(), wl.args,
                         profile=True).completed
    assert profiled_only <= set(core._SHAPES)
    sources = _compiled_sources(monkeypatch)
    again = CompiledWorkload(program)
    for machine in FAMILY_MACHINE.values():
        res = again.run(machine, wl.fresh_memory(), wl.args, profile=True)
        ref = again.run(machine, wl.fresh_memory(), wl.args, profile=True,
                        codegen=False)
        assert _record(res.extra["profile"]) == _record(
            ref.extra["profile"]), machine
    assert sources == []


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
    """Traced and occupancy-tracked runs carry hooks the kernels omit,
    and ``codegen=False`` asks for the interpreter: the runner must not
    even request kernels for them. A profiled run does."""
    cw = CompiledWorkload(wl.compiled.program)
    requested = []
    build = cw.kernels
    monkeypatch.setattr(
        cw, "kernels", lambda family: requested.append(family)
        or build(family))
    for kwargs in ({"record_trace": True}, {"track_occupancy": True},
                   {"codegen": False}):
        res = cw.run("tyr", wl.fresh_memory(), wl.args, **kwargs)
        assert res.completed
    assert requested == []
    res = cw.run("tyr", wl.fresh_memory(), wl.args, profile=True)
    assert res.completed and requested == ["tagged"]


def test_profiled_engines_bind_kernels(wl):
    """Engines given kernels bind their profiled variant when
    profiling, and it books what the interpreter books."""
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
    for family, make in engines.items():
        plain = cw.kernels(family)
        assert plain.profiled() is not plain
        assert plain.profiled().profiled() is plain.profiled()
        gen = make(kernels=plain)
        interp = make()
        if family == "vector":
            # The vector engine swaps its block tables rather than a
            # loop: both hold one function per block, a generated
            # whole-block kernel or the interpreter's item walk.
            assert gen._ticked.keys() == interp._ticked.keys()
            for name, (kernel,) in gen._ticked.items():
                (walk,) = interp._ticked[name]
                assert isinstance(kernel, FunctionType)
                assert walk.func == interp._run_items
        else:
            assert gen._kernels is plain.profiled()
            assert interp._kernels is None
        assert _record(gen.run(wl.args).extra["profile"]) == _record(
            interp.run(wl.args).extra["profile"]), family


def test_kernel_books_tag_starved_cycles():
    """No real run reaches ``tag_starved`` (a tagged cycle firing
    nothing needs a ready queue of failed allocate pops), so build one:
    the only ready event is an allocate whose stubbed pop fails and
    marks its pool dirty, and whose stubbed wake re-queues it. The
    profiled kernel and the interpreter both book all five cycles up
    to ``max_cycles`` as ``tag_starved``."""
    cw = CompiledWorkload(lower_module(dmv_module()))
    alloc = next(nd.node_id for nd in cw.tagged.nodes
                 if nd.op is Op.ALLOCATE)
    stalls = {}
    for kernels in (cw.kernels("tagged"), None):
        eng = TaggedEngine(cw.tagged, Memory(dmv_memory(4)), TyrPolicy(4),
                           max_cycles=5, profile=True, kernels=kernels)
        event = (alloc, ROOT_TAG, _ALLOC_POP)
        pool = eng._alloc_pool[alloc]

        def pop_fails(nid, tag):
            eng._dirty_pools.append(pool)
            return False

        eng._fire_alloc_pop = pop_fails
        eng._wake_waiters = lambda pool: eng._ready.append(event)
        eng._ready.append(event)
        with pytest.raises(SimulationError, match="max_cycles=5"):
            if kernels is None:
                eng._run_loop()
            else:
                eng._kernels.run_loop(eng)
        stalls[kernels is None] = dict(eng._profiler.stall_cycles)
    expected = dict.fromkeys(STALL_REASONS, 0)
    expected["tag_starved"] = 5
    assert stalls[False] == stalls[True] == expected


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
    assert cache_key(spec) == cache_key(replace(spec, codegen=False))


def test_every_machine_has_a_family(wl):
    from repro.harness.runner import MACHINES
    assert set(KERNEL_FAMILY) == set(MACHINES)
    assert set(KERNEL_FAMILY.values()) == set(FAMILIES)
