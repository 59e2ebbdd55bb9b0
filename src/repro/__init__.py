"""Reproduction of "The TYR Dataflow Architecture: Improving Locality
by Taming Parallelism" (MICRO 2024).

TYR is an unordered (tagged) dataflow architecture that bounds live
state by replacing the single global tag space of classic tagged
dataflow with per-concurrent-block *local tag spaces*. This package
implements, in pure Python:

* a structured-program frontend and dataflow IR (the paper's C->UDIR
  compiler path), split into concurrent blocks at loop/function
  boundaries (:mod:`repro.frontend`, :mod:`repro.ir`);
* lowering to executable machine graphs: the TYR/tagged elaboration
  with full ``allocate``/``changeTag``/``join``/``free`` linkage and
  free barriers, and a flat steer graph for ordered dataflow
  (:mod:`repro.compiler`);
* five machine models -- sequential von Neumann, sequential dataflow
  (WaveScalar/TRIPS-like), ordered dataflow (RipTide-like), unordered
  tagged dataflow, and TYR -- plus deadlock-prone baselines
  (:mod:`repro.sim`);
* the paper's seven-benchmark suite with oracles
  (:mod:`repro.workloads`);
* experiment drivers regenerating every figure and table
  (:mod:`repro.harness`).

Quickstart::

    from repro import build_workload, PAPER_SYSTEMS

    wl = build_workload("dmv", "small")
    for machine in PAPER_SYSTEMS:
        result = wl.run_checked(machine)
        print(result.summary())
"""

from repro.errors import (
    CompileError,
    DeadlockError,
    IRError,
    ProgramError,
    ReproError,
    SimulationError,
    TokenBoundExceeded,
)
from repro.frontend.lower import lower_module
from repro.harness.runner import (
    MACHINES,
    PAPER_SYSTEMS,
    CompiledWorkload,
    run_program,
)
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult
from repro.workloads import WORKLOAD_NAMES, build_workload

__version__ = "1.0.0"

__all__ = [
    "CompileError",
    "CompiledWorkload",
    "DeadlockError",
    "ExecutionResult",
    "IRError",
    "MACHINES",
    "Memory",
    "PAPER_SYSTEMS",
    "ProgramError",
    "ReproError",
    "SimulationError",
    "TokenBoundExceeded",
    "WORKLOAD_NAMES",
    "build_workload",
    "lower_module",
    "run_program",
    "__version__",
]
