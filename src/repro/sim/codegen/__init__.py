"""Ahead-of-time Python codegen for the engine firing rules.

For each lowered plan this package emits specialized Python -- one
flat function per static node's firing rule (per block for the vector
family) -- and the engines fill their fire tables with those kernels
instead of interpreting: at construction when the program's module
has compiled the run's timing rule, else at a mid-run hand-off once
the run has paid for them (both in :class:`repro.sim.engine.Engine`).
A module generates its kernel table there, on its first bind, so a
run that never hands off generates nothing. Specialization per node
shape and timing rule lives only here: each engine's interpreter, one
plain firing rule per opcode, remains the bit-identical reference
semantics (and the only path for traced, occupancy-tracked and
profiled datapar runs, whose engines drop the module they are given).
The cycle loop is never generated: the tagged, queued and window
engines each have one hand-written loop that kernel, interpreted and
profiled runs share.

Each family has one kernel table per program, generated from its
lowering. Profiled tagged, flat and window runs use it as it is, since
the cycle loop books the stall taxonomy whichever fire table it runs.
The vector family has no cycle loop, so a profiled datapar run
interprets, and its item walk books the taxonomy.

Families and the machine lowerings they are generated from
(``CompiledWorkload.lowering(family)``, built once per workload and
read by its engines too):

========  =============================================  ==============
family    generated from                                 machines
========  =============================================  ==============
tagged    elaborated ``TaggedGraph``                     unordered,
                                                         unordered-
                                                         bounded, tyr,
                                                         kbounded
flat      flattened ``FlatGraph``                        ordered
window    ``build_plans(program)`` block plans           vn, ooo, seqdf
vector    ``lower_vector(program)``: block plans + loop  datapar
          classification
========  =============================================  ==============

Kernels are shared by *shape* (see :mod:`~repro.sim.codegen.core`):
the tagged, flat and window generators emit each node shape once per
process, memoized by the node's structure, so :func:`generate_source`
mostly reads a program's constants into its kernel table (the vector
generator, whose whole-block shapes rarely repeat, emits every block).
:func:`compile_kernels` dumps the table when dumping and returns it to
its :class:`KernelModule`. A workload's module calls both on its first
use, looking them up here at each generation, and each timing rule's
shapes compile the first time an engine binds that rule: a program
made of known shapes, or run only under rules already compiled, costs
no ``compile()`` at all. Nothing is cached on disk, and nothing is
generated ahead of the runs: ``pool.precompile_specs`` builds only
the lowerings in a sweep's parent, and each forked worker's runs
generate and compile their tables at their hand-offs.
Set ``TYR_REPRO_DUMP_KERNELS=<dir>`` to dump each generated table's
shape sources and node table; only then is the program's IR
fingerprint computed, to name the dump.
"""

from __future__ import annotations

from repro.sim.codegen.core import (
    DUMP_ENV,
    FAMILIES,
    KernelModule,
    KernelSource,
    compile_kernels,
    dump_kernel_source,
    dumping,
    kernel_source,
)

__all__ = [
    "DUMP_ENV",
    "FAMILIES",
    "KernelModule",
    "KernelSource",
    "compile_kernels",
    "dump_kernel_source",
    "dumping",
    "generate_source",
]


def generate_source(family: str, lowering) -> KernelSource:
    """The kernel table of one family, generated from its machine
    lowering (what ``CompiledWorkload.lowering(family)`` returns: the
    tagged graph, the flat graph, the window plans or the vector
    lowering) and wrapped for :func:`compile_kernels`. The table is a
    deterministic function of the lowering; the source text is
    empty."""
    if family == "tagged":
        from repro.sim.codegen.tagged import generate
    elif family == "flat":
        from repro.sim.codegen.queued import generate
    elif family == "window":
        from repro.sim.codegen.window import generate
    elif family == "vector":
        from repro.sim.codegen.vector import generate
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    return kernel_source(generate(lowering))
