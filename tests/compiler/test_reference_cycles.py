"""The compile path frees what it builds by reference counting.

Lowering a program, each machine lowering of it, and a run of it leave
nothing for the cyclic collector. A reference cycle anywhere in that
path (a nested recursive helper closing over itself, a back-reference
from a helper object to its owner) would keep the whole program -- its
AST, IR, graphs or plans -- alive until a collection, which every
never-seen program then pays for in older-generation collections.
"""

import gc

import pytest

from repro.compiler.elaborate import elaborate
from repro.compiler.flatten import flatten
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.codegen import core
from repro.sim.memory import Memory
from repro.sim.vector.plan import lower_vector
from repro.sim.window.plan import build_plans
from repro.workloads import build_workload
from repro.workloads.randomprog import random_memory, random_module

MACHINES = ("tyr", "unordered", "ordered", "seqdf", "datapar")


def _cyclic_garbage(fn) -> int:
    """Objects ``fn`` leaves only the cyclic collector can free."""
    fn()  # lazy imports and first-use set-up are not garbage
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(4))
def test_lowering_and_machine_lowerings_leave_no_cycles(seed):
    def compile_all():
        program = lower_module(random_module(seed))
        for lower in (elaborate, flatten, build_plans, lower_vector):
            lower(program)

    assert _cyclic_garbage(compile_all) == 0


@pytest.mark.parametrize("machine", MACHINES)
def test_cold_run_leaves_no_cycles(machine):
    def cold_run():
        cw = CompiledWorkload(lower_module(random_module(11)))
        assert cw.run(machine, Memory(random_memory()), [3, 5]).completed

    assert _cyclic_garbage(cold_run) == 0


@pytest.mark.parametrize("machine", MACHINES)
def test_run_compiling_new_shapes_leaves_no_cycles(machine, monkeypatch):
    """Kernels bound at construction, every node shape compiled anew."""
    monkeypatch.setattr(core, "HANDOFF_K", 0)
    wl = build_workload("dmv", "tiny")

    def kernel_run():
        monkeypatch.setattr(core, "_SHAPES", {})
        cw = CompiledWorkload(wl.compiled.program)
        assert cw.run(machine, wl.fresh_memory(), wl.args).completed

    assert _cyclic_garbage(kernel_run) == 0
