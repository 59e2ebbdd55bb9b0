"""Uniform runner across all machine models (paper Sec. VI).

``run_program`` executes one context program on one machine and
returns an :class:`ExecutionResult`. :class:`CompiledWorkload` caches
the per-machine compiled artifacts (elaborated tagged graph, flat
graph) so sweeps do not recompile.

Machine names:

========================  ==================================================
``vn``                    sequential von Neumann (window 1, width 1)
``seqdf``                 sequential dataflow (WaveScalar/TRIPS-style)
``ordered``               ordered dataflow (FIFO queues, RipTide-style)
``unordered``             unordered dataflow, unbounded global tags
``unordered-bounded``     unordered dataflow, bounded global tags (deadlocks)
``tyr``                   TYR local tag spaces
``kbounded``              TTDA-style greedy per-block k-bounding
``datapar``               data-parallel (vector/GPU-style) machine
========================  ==================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.compiler.elaborate import elaborate
from repro.compiler.flatten import flatten
from repro.ir.program import ContextProgram
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult
from repro.sim.queued import QueuedEngine
from repro.sim.tagged import (
    BoundedGlobalPolicy,
    KBoundedPolicy,
    TaggedEngine,
    TyrPolicy,
    UnboundedGlobalPolicy,
)
from repro.sim.vector import DataParallelEngine
from repro.sim.window import WindowEngine

MACHINES = (
    "vn",
    "ooo",
    "seqdf",
    "ordered",
    "unordered",
    "unordered-bounded",
    "tyr",
    "kbounded",
    "datapar",
)

#: The five systems the paper's main evaluation compares (Sec. VI).
PAPER_SYSTEMS = ("vn", "seqdf", "ordered", "unordered", "tyr")

_TAGGED_MACHINES = ("unordered", "unordered-bounded", "tyr", "kbounded")

#: machine name -> generated-kernel family (see repro.sim.codegen).
KERNEL_FAMILY = {
    "vn": "window",
    "ooo": "window",
    "seqdf": "window",
    "ordered": "flat",
    "unordered": "tagged",
    "unordered-bounded": "tagged",
    "tyr": "tagged",
    "kbounded": "tagged",
    "datapar": "vector",
}


class CompiledWorkload:
    """A context program plus lazily compiled machine artifacts.

    ``optimize=True`` runs the :mod:`repro.compiler.passes` pipeline
    (copy/select folding, algebraic simplification, dead-op
    elimination) before any machine lowering.
    """

    def __init__(self, program: ContextProgram, optimize: bool = False):
        if optimize:
            from repro.compiler.passes import optimize_program
            optimize_program(program)
        self.program = program
        self._tagged = None
        self._flat = None
        self._fingerprint: Optional[str] = None
        self._kernels: Dict[str, object] = {}
        #: Optional :class:`~repro.harness.cache.CompileCache`; when
        #: set, elaboration/flattening first consult the on-disk store
        #: and write back on a miss.
        self.plan_cache = None

    def _lowered(self, kind: str, build):
        if self.plan_cache is not None:
            artifact = self.plan_cache.get_plan(self.fingerprint, kind)
            if artifact is not None:
                return artifact
        artifact = build(self.program)
        if self.plan_cache is not None:
            self.plan_cache.put_plan(self.fingerprint, kind, artifact)
        return artifact

    @property
    def tagged(self):
        if self._tagged is None:
            self._tagged = self._lowered("tagged", elaborate)
        return self._tagged

    @property
    def flat(self):
        if self._flat is None:
            self._flat = self._lowered("flat", flatten)
        return self._flat

    @property
    def fingerprint(self) -> str:
        """SHA-256 of the printed IR -- the program's cache identity.

        Machine lowerings (tagged/flat graphs and engine plans) are
        deterministic functions of the context program, so hashing the
        printed IR covers them all.
        """
        if self._fingerprint is None:
            import hashlib

            from repro.ir.printer import format_program
            self._fingerprint = hashlib.sha256(
                format_program(self.program).encode()
            ).hexdigest()
        return self._fingerprint

    def kernels(self, family: str):
        """The generated-kernel module for one engine family
        (memoized here; dropped with this workload).

        Kernel shapes are compiled once per process and shared by
        every program, so building a module is mostly binding this
        program's table; forked sweep workers inherit the modules
        ``pool.precompile_specs`` built in the parent.
        """
        from repro.sim import codegen

        mod = self._kernels.get(family)
        if mod is None:
            source = codegen.generate_source(family, self)
            mod = codegen.compile_kernels(source, family,
                                          self.fingerprint)
            self._kernels[family] = mod
        return mod

    def entry_args(self, args: Sequence[object]) -> List[object]:
        """Pad user arguments with zeros for hidden order-token params."""
        full = list(args)
        n = self.program.entry_block().n_params
        if len(full) > n:
            raise SimulationError(
                f"entry takes {n} args, got {len(full)}"
            )
        full += [0] * (n - len(full))
        return full

    def declared_results(self, results: Sequence[object]):
        n = self.program.meta.get("entry_declared_results",
                                  len(results))
        return tuple(results[:n])

    # ------------------------------------------------------------------
    def run(self, machine: str, memory: Memory, args: Sequence[object],
            *, issue_width: int = 128, tags: int = 64,
            queue_depth: int = 4, window: int = 8,
            total_tags: int = 64,
            tag_overrides: Optional[Dict[str, int]] = None,
            sample_traces: bool = True,
            check_token_bound: bool = False,
            track_occupancy: bool = False,
            record_trace: bool = False,
            load_latency: int = 1,
            max_cycles: int = 50_000_000,
            profile: bool = False,
            codegen: bool = True,
            cache=None) -> ExecutionResult:
        """Run this workload on ``machine`` and return its metrics.

        The returned result's declared program outputs are in
        ``result.extra["declared_results"]``.

        ``cache`` configures the stateful cache-hierarchy memory model
        (:mod:`repro.sim.cache`): a :class:`~repro.sim.cache.CacheConfig`,
        a spec string like ``"line=8,miss=100,l1=64x4x1"``, or an
        equivalent dict.  Load delays then come from set-associative
        cache probes instead of the hash-based ``load_latency`` model
        (the two are mutually exclusive), stores probe the model too,
        and per-level hit/miss statistics land in
        ``result.extra["cache"]``.

        ``codegen=True`` (the default) dispatches through the
        generated plan kernels (:mod:`repro.sim.codegen`); profiled,
        traced, and occupancy-tracked runs always fall back to the
        closure interpreters, which carry those hooks.  Metrics are
        bit-identical either way.

        ``max_cycles`` bounds *simulated* cycles, which does not help
        against a slow host or an engine bug that stops the cycle
        counter advancing; sweeps needing a wall-clock bound run
        through :func:`repro.harness.pool.run_specs` with
        ``RunOptions(timeout=...)``, which terminates the worker
        process instead.
        """
        full_args = self.entry_args(args)
        cache_model = None
        if cache is not None:
            from repro.sim.cache import CacheConfig, CacheModel

            if load_latency > 1:
                raise SimulationError(
                    "cache= and load_latency>1 are mutually "
                    "exclusive: the cache model replaces the "
                    "hash-based load-delay model"
                )
            cache_model = CacheModel(CacheConfig.coerce(cache), memory)
        use_codegen = codegen and not (profile or record_trace
                                       or track_occupancy)
        kernels = (self.kernels(KERNEL_FAMILY[machine])
                   if use_codegen and machine in KERNEL_FAMILY
                   else None)
        if machine in _TAGGED_MACHINES:
            if machine == "unordered":
                policy = UnboundedGlobalPolicy()
            elif machine == "unordered-bounded":
                policy = BoundedGlobalPolicy(total_tags)
            elif machine == "tyr":
                policy = TyrPolicy(tags, overrides=tag_overrides)
            else:
                policy = KBoundedPolicy(tags, overrides=tag_overrides)
            engine = TaggedEngine(
                self.tagged, memory, policy, issue_width=issue_width,
                sample_traces=sample_traces,
                check_token_bound=check_token_bound,
                track_occupancy=track_occupancy,
                record_trace=record_trace,
                load_latency=load_latency,
                max_cycles=max_cycles,
                profile=profile,
                kernels=kernels,
                cache=cache_model,
            )
        elif machine == "ordered":
            engine = QueuedEngine(
                self.flat, memory, queue_depth=queue_depth,
                issue_width=issue_width, sample_traces=sample_traces,
                load_latency=load_latency, max_cycles=max_cycles,
                profile=profile, kernels=kernels,
                cache=cache_model,
            )
        elif machine == "vn":
            engine = WindowEngine(
                self.program, memory, window=1, issue_width=1,
                sample_traces=sample_traces, load_latency=load_latency,
                max_cycles=max_cycles, machine_name="vn",
                profile=profile, kernels=kernels,
                cache=cache_model,
            )
        elif machine == "ooo":
            # Out-of-order superscalar approximation (paper Fig. 5b):
            # a small reorder window over the vN order, modeled at
            # block-slice granularity (a slice is a handful of
            # instructions, so 2 slices ~ a small instruction window).
            engine = WindowEngine(
                self.program, memory, window=2, issue_width=4,
                sample_traces=sample_traces, load_latency=load_latency,
                max_cycles=max_cycles, machine_name="ooo",
                profile=profile, kernels=kernels,
                cache=cache_model,
            )
        elif machine == "seqdf":
            engine = WindowEngine(
                self.program, memory, window=window,
                issue_width=issue_width, sample_traces=sample_traces,
                load_latency=load_latency, max_cycles=max_cycles,
                machine_name="seqdf", profile=profile,
                kernels=kernels, cache=cache_model,
            )
        elif machine == "datapar":
            engine = DataParallelEngine(
                self.program, memory, lanes=issue_width,
                sample_traces=sample_traces, load_latency=load_latency,
                max_cycles=max_cycles, profile=profile,
                kernels=kernels, cache=cache_model,
            )
        else:
            raise SimulationError(f"unknown machine {machine!r}")
        result = engine.run(full_args)
        result.machine = machine
        prof = result.extra.get("profile")
        if prof is not None:
            # Keep the profile's machine name in sync with the
            # harness-level alias (e.g. "tyr" vs the engine's
            # "tagged").
            prof.machine = machine
        result.extra["declared_results"] = self.declared_results(
            result.results
        )
        if cache_model is not None:
            result.extra["cache"] = cache_model.stats(
                result.instructions)
        return result


def run_program(program: ContextProgram, machine: str, memory: Memory,
                args: Sequence[object], **kwargs) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`CompiledWorkload`."""
    return CompiledWorkload(program).run(machine, memory, args, **kwargs)
