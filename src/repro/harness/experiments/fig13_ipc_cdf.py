"""Fig. 13: CDF of per-cycle IPC across all apps and systems.

Unordered dataflow is nearly ideal (saturates the issue width most
cycles); TYR is close behind; vN pegs at 1 IPC; sequential/ordered
dataflow rarely exceed ~10 IPC.

Per-machine distributions are aggregated by merging each run's IPC
histogram (O(distinct values) per run) rather than concatenating and
sorting per-cycle traces -- at ``large`` scale the concatenated trace
across all apps is millions of entries, the merged histogram a few
dozen.
"""

from __future__ import annotations

from repro.harness.ascii_plots import cdf_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.harness.results import (
    histogram_cdf,
    histogram_quantile,
    merge_histograms,
)
from repro.harness.runner import PAPER_SYSTEMS
from repro.workloads import WORKLOAD_NAMES, build_workload


@register("fig13")
def run(scale: str = "default", tags: int = 64, apps=WORKLOAD_NAMES,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    combined = {m: [] for m in PAPER_SYSTEMS}
    workloads = {app: build_workload(app, scale) for app in apps}
    flat = iter(run_batch(
        [(workloads[app], machine, {"tags": tags})
         for app in apps for machine in PAPER_SYSTEMS],
        jobs=jobs, cache=cache, options=options,
    ))
    for app in apps:
        for machine in PAPER_SYSTEMS:
            combined[machine].append(
                next(flat).ipc_trace.histogram())
    merged = {m: merge_histograms(hists)
              for m, hists in combined.items()}
    cdfs = {m: histogram_cdf(hist) for m, hist in merged.items()}
    medians = {}
    p90 = {}
    maxes = {}
    for machine, hist in merged.items():
        n = sum(hist.values())
        medians[machine] = histogram_quantile(hist, n // 2)
        p90[machine] = histogram_quantile(hist, int(n * 0.9))
        maxes[machine] = max(hist, default=0)
    chart = cdf_chart(cdfs, title=f"IPC CDF over all apps ({scale})")
    tab = table(
        ["system", "median IPC", "p90 IPC", "max IPC"],
        [[m, medians[m], p90[m], maxes[m]] for m in PAPER_SYSTEMS],
    )
    data = {"medians": medians, "p90": p90, "max": maxes}
    return ExperimentReport(
        name="fig13",
        title="CDF of measured IPC (paper Fig. 13)",
        data=data,
        text=chart + "\n\n" + tab,
        paper_expectation=(
            "vn always 1 IPC; seqdf/ordered rarely above ~10; "
            "unordered near the issue width; TYR close to unordered"
        ),
    )
