"""The paper's benchmark suite (Table II) plus input generation and
oracles.

Seven kernels spanning regular and irregular parallelism:

* dense: ``dmv``, ``dmm``, ``dconv``
* sparse: ``smv``, ``spmspv``, ``spmspm``
* graph: ``tc`` (triangle counting)

Each workload builds a frontend module, input memory, and a
correctness check against its oracle. Input sizes are scaled down from
the paper's (50M-1B dynamic instructions) to fit a pure-Python
simulator; see DESIGN.md for the substitution rationale.
"""

from repro.workloads.registry import (
    WORKLOAD_NAMES,
    WorkloadInstance,
    build_workload,
    paper_parameters,
)

__all__ = [
    "WORKLOAD_NAMES",
    "WorkloadInstance",
    "build_workload",
    "paper_parameters",
]
