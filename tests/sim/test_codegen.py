"""Unit tests for the generated plan kernels (:mod:`repro.sim.codegen`).

The differential fuzz suite (tests/properties) pins bit-identity on
random programs; these tests cover the machinery around the generators:
table determinism, the per-process shape memo (constants bound as
data, never compiled twice, no program kept alive), the
``TYR_REPRO_DUMP_KERNELS`` hook, and the rules for when engines fall
back to the closure interpreters.
"""

import gc
import weakref
from dataclasses import replace

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
from repro.sim import codegen
from repro.sim.codegen import core
from repro.sim.codegen.core import DUMP_ENV, FAMILIES
from repro.sim.memory import Memory
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import TaggedEngine, UnboundedGlobalPolicy
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine
from repro.workloads import build_workload
from repro.workloads.randomprog import random_module

#: One machine per kernel family.
FAMILY_MACHINE = {"tagged": "tyr", "flat": "ordered", "window": "seqdf",
                  "vector": "datapar"}


@pytest.fixture(scope="module")
def wl():
    return build_workload("dmv", "tiny")


def _shape_rows(table):
    return [(tuple(text for text, _ in variants), label)
            for variants, _, label in table.rows]


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
    whether or not this process compiled those shapes already."""
    monkeypatch.setenv(DUMP_ENV, str(tmp_path))
    source = codegen.generate_source("window", wl.compiled)
    codegen.compile_kernels(source, "window", "dumptest0000")
    dumped = (tmp_path / "window-dumptest0000.py").read_text()
    for text in source.table.texts():
        assert text in dumped
    assert "TABLE = [" in dumped
    assert dumped.count("\n    (") == len(source.table.rows)


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


def test_rebuilding_known_shapes_compiles_nothing(wl, monkeypatch):
    """Once a program's shapes are memoized, rebuilding its kernels is
    binding only: empty source and zero ``compile()`` calls."""
    for family in FAMILIES:
        CompiledWorkload(wl.compiled.program).kernels(family)
    calls = []
    monkeypatch.setattr(core, "compile",
                        lambda *a: calls.append(a) or compile(*a),
                        raising=False)
    again = CompiledWorkload(wl.compiled.program)
    for family, machine in FAMILY_MACHINE.items():
        assert codegen.generate_source(family, again) == ""
        again.kernels(family)
        res = again.run(machine, wl.fresh_memory(), wl.args)
        assert res.completed
    assert calls == []


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


def test_traced_and_profiled_runs_never_touch_kernels(wl, monkeypatch):
    """Profiled, traced, and occupancy-tracked runs carry hooks the
    kernels omit; the runner must not even request kernels for them
    (nor when codegen=False)."""
    cw = CompiledWorkload(wl.compiled.program)
    monkeypatch.setattr(
        cw, "kernels",
        lambda family: pytest.fail("kernels requested on a "
                                   "fallback path"))
    for kwargs in ({"profile": True}, {"record_trace": True},
                   {"track_occupancy": True}, {"codegen": False}):
        res = cw.run("tyr", wl.fresh_memory(), wl.args, **kwargs)
        assert res.completed


def test_profiled_engines_keep_interpreter_tables(wl):
    """Engines given kernels still interpret when profiling: the
    profiler wraps per-op closures the generated code inlines away."""
    cw = wl.compiled
    mem = wl.fresh_memory
    tagged = TaggedEngine(cw.tagged, mem(), UnboundedGlobalPolicy(),
                          profile=True, kernels=cw.kernels("tagged"))
    assert tagged._kernels is None
    queued = QueuedEngine(cw.flat, mem(), profile=True,
                          kernels=cw.kernels("flat"))
    assert queued._kernels is None
    window = WindowEngine(cw.program, mem(), profile=True,
                          kernels=cw.kernels("window"))
    assert window._kernels is None
    # The vector engine swaps its step tables rather than a loop:
    # generated tables hold one whole-block function per block,
    # interpreted tables one closure per op.
    vec_gen = DataParallelEngine(cw.program, mem(),
                                 kernels=cw.kernels("vector"))
    assert all(len(t) == 1 for t in vec_gen._ticked.values())
    vec_prof = DataParallelEngine(cw.program, mem(), profile=True,
                                  kernels=cw.kernels("vector"))
    assert any(len(t) > 1 for t in vec_prof._ticked.values())


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
