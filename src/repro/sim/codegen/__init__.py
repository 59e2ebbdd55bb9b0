"""Ahead-of-time Python codegen for the engine hot loops.

For each lowered plan this package emits specialized Python -- one
flat function per static node's firing rule plus a fused cycle loop
per engine family -- and lets the engines dispatch through those
kernels instead of the generic dispatch closures. The closure
interpreters remain the bit-identical reference semantics (and the
only path for traced/occupancy/profiled runs).

Families and their inputs:

========  =============================================  ==============
family    generated from                                 machines
========  =============================================  ==============
tagged    elaborated ``TaggedGraph``                     unordered,
                                                         unordered-
                                                         bounded, tyr,
                                                         kbounded
flat      flattened ``FlatGraph``                        ordered
window    ``build_plans(program)`` block plans           vn, ooo, seqdf
vector    ``build_vec_plans(program)`` + loop analysis   datapar
========  =============================================  ==============

Kernels are shared by *shape* (see :mod:`~repro.sim.codegen.core`):
:func:`generate_source` returns a program's kernel table plus the
source of the shapes this process has not compiled yet, and
:func:`compile_kernels` compiles just those, so a program made of
known shapes costs no ``compile()`` at all. Nothing is cached on disk;
``pool.precompile_specs`` builds kernels in the sweep parent so forked
workers inherit them. Set ``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump
each program's shape sources and node table.
"""

from __future__ import annotations

from repro.sim.codegen.core import (
    DUMP_ENV,
    FAMILIES,
    KernelModule,
    KernelSource,
    compile_kernels,
    dump_kernel_source,
    kernel_source,
)

__all__ = [
    "DUMP_ENV",
    "FAMILIES",
    "KernelModule",
    "KernelSource",
    "compile_kernels",
    "dump_kernel_source",
    "generate_source",
]


def generate_source(family: str, compiled) -> KernelSource:
    """The kernel table of one family of ``compiled`` (a
    :class:`~repro.harness.runner.CompiledWorkload`), as the source of
    its shapes not compiled in this process yet.

    The table is a deterministic function of the lowered plan; the
    source text also depends on which shapes this process already
    compiled (none left means an empty string).
    """
    if family == "tagged":
        from repro.sim.codegen.tagged import generate
        table = generate(compiled.tagged)
    elif family == "flat":
        from repro.sim.codegen.queued import generate
        table = generate(compiled.flat)
    elif family == "window":
        from repro.sim.codegen.window import generate
        table = generate(compiled.program)
    elif family == "vector":
        from repro.sim.codegen.vector import generate
        table = generate(compiled.program)
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    return kernel_source(table)
