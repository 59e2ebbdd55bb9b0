"""Fig. 12: execution time across all apps and systems.

Paper headline (gmean speedups of TYR): 68x vs vN, 22.7x vs sequential
dataflow, 21.7x vs ordered dataflow, 0.77x vs unordered dataflow
(i.e. TYR is slightly slower than unordered but in the same league).
"""

from __future__ import annotations

from typing import Dict

from repro.harness.ascii_plots import grouped_bar_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.harness.results import speedup_vs
from repro.harness.runner import PAPER_SYSTEMS
from repro.sim.metrics import ExecutionResult
from repro.workloads import WORKLOAD_NAMES, build_workload


def collect(scale: str, tags: int = 64, sample_traces: bool = True,
            apps=WORKLOAD_NAMES, jobs: int = 1,
            cache=None, options=None
            ) -> Dict[str, Dict[str, ExecutionResult]]:
    """Run every app on every paper system (oracle-checked)."""
    workloads = {app: build_workload(app, scale) for app in apps}
    config = {"tags": tags, "sample_traces": sample_traces}
    flat = iter(run_batch(
        [(workloads[app], machine, config)
         for app in apps for machine in PAPER_SYSTEMS],
        jobs=jobs, cache=cache, options=options,
    ))
    return {app: {machine: next(flat) for machine in PAPER_SYSTEMS}
            for app in apps}


@register("fig12")
def run(scale: str = "default", tags: int = 64,
        results: Dict[str, Dict[str, ExecutionResult]] = None,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    results = results or collect(scale, tags, sample_traces=False,
                                 jobs=jobs, cache=cache,
                                 options=options)
    cycles = {app: {m: r.cycles for m, r in per.items()}
              for app, per in results.items()}
    speedups = speedup_vs(results, reference="tyr")
    chart = grouped_bar_chart(
        cycles, list(results), list(PAPER_SYSTEMS),
        title=f"Execution time (cycles, {scale} inputs)", log=True,
        unit=" cycles",
    )
    rows = [[m, round(s, 2)] for m, s in speedups.items() if m != "tyr"]
    tab = table(["system", "gmean slowdown vs TYR (x)"], rows,
                title="TYR speedup summary (paper: 68x vs vN, 22.7x vs "
                      "seqdf, 21.7x vs ordered, 0.77x vs unordered)")
    data = {"cycles": cycles, "speedups": speedups}
    return ExperimentReport(
        name="fig12",
        title="Execution time across all apps and systems "
              "(paper Fig. 12)",
        data=data,
        text=chart + "\n\n" + tab,
        paper_expectation=(
            "TYR vastly outperforms vN/seqdf/ordered and is near "
            "unordered (gmean 0.77x)"
        ),
    )
