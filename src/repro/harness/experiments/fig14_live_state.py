"""Fig. 14: peak and mean live tokens per app and system (log scale).

Paper headline: TYR reduces peak state by 572.8x vs unordered dataflow
on average, while remaining above vN/seqdf/ordered (98.4x / 136x /
23x) -- all well within hardware reach. TYR's mean is close to its
peak (better utilization).
"""

from __future__ import annotations

from typing import Dict

from repro.harness.ascii_plots import grouped_bar_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.experiments.fig12_exec_time import collect
from repro.harness.results import state_reduction_vs
from repro.harness.runner import PAPER_SYSTEMS
from repro.sim.metrics import ExecutionResult


@register("fig14")
def run(scale: str = "default", tags: int = 64,
        results: Dict[str, Dict[str, ExecutionResult]] = None,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    results = results or collect(scale, tags, jobs=jobs, cache=cache,
                                 options=options)
    peak = {app: {m: r.peak_live for m, r in per.items()}
            for app, per in results.items()}
    mean = {app: {m: round(r.mean_live, 1) for m, r in per.items()}
            for app, per in results.items()}
    ratios = state_reduction_vs(results, reference="tyr")
    chart = grouped_bar_chart(
        peak, list(results), list(PAPER_SYSTEMS),
        title=f"Peak live tokens ({scale} inputs, log scale)", log=True,
    )
    rows = []
    for app in results:
        for m in PAPER_SYSTEMS:
            rows.append([app, m, peak[app][m], mean[app][m]])
    tab = table(["app", "system", "peak live", "mean live"], rows)
    ratio_tab = table(
        ["system", "gmean peak-state ratio vs TYR (x)"],
        [[m, round(r, 2)] for m, r in ratios.items() if m != "tyr"],
        title="State ratios (paper: unordered 572.8x above TYR; "
              "vn/seqdf/ordered 98.4x/136x/23x below)",
    )
    data = {"peak": peak, "mean": mean, "ratios": ratios}
    return ExperimentReport(
        name="fig14",
        title="Live state during execution (paper Fig. 14)",
        data=data,
        text=chart + "\n\n" + ratio_tab + "\n\n" + tab,
        paper_expectation=(
            "TYR peak state orders of magnitude below unordered "
            "dataflow; modestly above vn/seqdf/ordered"
        ),
    )
