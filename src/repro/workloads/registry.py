"""Workload registry: build any Table II benchmark at a chosen scale.

``build_workload(name, scale)`` returns a :class:`WorkloadInstance`
bundling the frontend module, entry arguments, initial memory, and a
correctness check against the oracle. Scales trade run time for
fidelity; the ``paper`` column records the original input sizes we
scaled down from (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.frontend.ast import Module
from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.memory import Memory
from repro.workloads import dense, extra, graphs, sparse

WORKLOAD_NAMES = ("dmv", "dmm", "dconv", "smv", "spmspv", "spmspm", "tc")

#: Additional workloads beyond the paper's seven (used for ablations).
EXTRA_WORKLOADS = ("spmspv-scatter", "bfs", "histogram")

#: Original input sizes from the paper's Table II.
PAPER_PARAMETERS: Dict[str, str] = {
    "dmv": "Size: 4,096 x 4,096",
    "dmm": "Size: 256 x 256",
    "dconv": "Image: 512 x 512, filter: 11 x 11",
    "smv": "Size: 22,098^2, non-zeros: 1,935,324 (DNVS/trdheim)",
    "spmspv": "Size: 32,276^2, nnz: 74,482 / vector nnz: 1,638 "
              "(DIMACS10/M6 subset)",
    "spmspm": "Size: 256 x 256, density: 5%",
    "tc": "Nodes: 16,384, edges: 206,107 (navigable small world)",
}


@dataclass
class WorkloadInstance:
    """One runnable benchmark configuration."""

    name: str
    scale: str
    module: Module
    args: List[object]
    initial_memory: Dict[str, List]
    expected_memory: Dict[str, List]
    expected_results: Tuple[object, ...]
    params: Dict[str, object]
    #: RNG seed the builder ran with (part of a run's cache identity).
    seed: int = 0
    _compiled: Optional[CompiledWorkload] = field(default=None,
                                                  repr=False)

    @property
    def compiled(self) -> CompiledWorkload:
        if self._compiled is None:
            self._compiled = CompiledWorkload(lower_module(self.module))
        return self._compiled

    def fresh_memory(self) -> Memory:
        return Memory({k: list(vs)
                       for k, vs in self.initial_memory.items()})

    def run(self, machine: str, **kwargs):
        """Run on ``machine`` with fresh memory; returns
        (ExecutionResult, Memory)."""
        mem = self.fresh_memory()
        res = self.compiled.run(machine, mem, self.args, **kwargs)
        return res, mem

    def check(self, memory: Memory,
              results: Sequence[object]) -> None:
        """Assert outputs match the oracle."""
        for array, want in self.expected_memory.items():
            got = memory[array]
            if list(got) != list(want):
                raise ReproError(
                    f"{self.name}: array {array!r} mismatch "
                    f"(first divergence at index "
                    f"{next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)})"
                )
        if self.expected_results:
            got_r = tuple(results[:len(self.expected_results)])
            if got_r != tuple(self.expected_results):
                raise ReproError(
                    f"{self.name}: results {got_r} != "
                    f"{tuple(self.expected_results)}"
                )

    def run_checked(self, machine: str, **kwargs):
        res, mem = self.run(machine, **kwargs)
        self.check(mem, res.extra["declared_results"])
        return res


#: Per-scale parameters: name -> scale -> kwargs for the instance
#: builder.
SCALES: Dict[str, Dict[str, Dict[str, object]]] = {
    "dmv": {
        "tiny": {"n": 8},
        "small": {"n": 24},
        "default": {"n": 40},
        "large": {"n": 64},
    },
    "dmm": {
        "tiny": {"n": 4},
        "small": {"n": 8},
        "default": {"n": 12},
        "large": {"n": 20},
    },
    "dconv": {
        "tiny": {"h": 6, "w": 6, "kh": 3, "kw": 3},
        "small": {"h": 10, "w": 10, "kh": 3, "kw": 3},
        "default": {"h": 14, "w": 14, "kh": 5, "kw": 5},
        "large": {"h": 24, "w": 24, "kh": 5, "kw": 5},
    },
    "smv": {
        "tiny": {"n": 16, "bandwidth": 3},
        "small": {"n": 64, "bandwidth": 6},
        "default": {"n": 160, "bandwidth": 8},
        "large": {"n": 400, "bandwidth": 8},
    },
    "spmspv": {
        "tiny": {"n": 24, "density": 0.15, "vnnz": 4},
        "small": {"n": 96, "density": 0.08, "vnnz": 10},
        "default": {"n": 192, "density": 0.08, "vnnz": 20},
        "large": {"n": 320, "density": 0.08, "vnnz": 40},
    },
    "spmspm": {
        "tiny": {"n": 8, "density": 0.25},
        "small": {"n": 20, "density": 0.15},
        "default": {"n": 32, "density": 0.12},
        "large": {"n": 48, "density": 0.10},
    },
    "tc": {
        "tiny": {"n": 20, "k": 4, "p": 0.1},
        "small": {"n": 48, "k": 6, "p": 0.1},
        "default": {"n": 80, "k": 8, "p": 0.1},
        "large": {"n": 160, "k": 8, "p": 0.1},
    },
    "spmspv-scatter": {
        "tiny": {"n": 24, "density": 0.15, "vnnz": 4},
        "small": {"n": 96, "density": 0.08, "vnnz": 10},
        "default": {"n": 192, "density": 0.08, "vnnz": 20},
        "large": {"n": 320, "density": 0.08, "vnnz": 40},
    },
    "bfs": {
        "tiny": {"n": 16, "k": 4},
        "small": {"n": 40, "k": 4},
        "default": {"n": 96, "k": 6},
        "large": {"n": 200, "k": 6},
    },
    "histogram": {
        "tiny": {"n": 24},
        "small": {"n": 96},
        "default": {"n": 256},
        "large": {"n": 640},
    },
}

_BUILDERS: Dict[str, Callable] = {
    "dmv": dense.dmv_instance,
    "dmm": dense.dmm_instance,
    "dconv": dense.dconv_instance,
    "smv": sparse.smv_instance,
    "spmspv": sparse.spmspv_instance,
    "spmspm": sparse.spmspm_instance,
    "tc": graphs.tc_instance,
    "spmspv-scatter": sparse.spmspv_scatter_instance,
    "bfs": extra.bfs_instance,
    "histogram": extra.histogram_instance,
}


def build_workload(name: str, scale: str = "default",
                   seed: int = 0, **overrides) -> WorkloadInstance:
    """Build a benchmark at a named scale (or with explicit params)."""
    if name not in _BUILDERS:
        raise ReproError(
            f"unknown workload {name!r}; choose from {WORKLOAD_NAMES}"
        )
    if scale not in SCALES[name]:
        raise ReproError(
            f"unknown scale {scale!r}; choose from "
            f"{sorted(SCALES[name])}"
        )
    params = dict(SCALES[name][scale])
    params.update(overrides)
    module, args, memory, expected_memory, expected_results = (
        _BUILDERS[name](seed=seed, **params)
    )
    return WorkloadInstance(
        name=name,
        scale=scale,
        module=module,
        args=list(args),
        initial_memory=memory,
        expected_memory=expected_memory,
        expected_results=tuple(expected_results),
        params=params,
        seed=seed,
    )


def paper_parameters(name: str) -> str:
    """The paper's Table II input description for ``name``."""
    return PAPER_PARAMETERS[name]
