"""Fig. 9: TYR's parallelism-state knob on dmv.

Varying the local tag-space size trades live state for execution time;
with unlimited tags TYR behaves identically to naive unordered
dataflow.
"""

from __future__ import annotations

from repro.harness.ascii_plots import line_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.workloads import build_workload


@register("fig09")
def run(scale: str = "default", workload: str = "dmv",
        tag_counts=(2, 8, 64), jobs: int = 1, cache=None,
        options=None, **kwargs) -> ExperimentReport:
    wl = build_workload(workload, scale)
    results = run_batch(
        [(wl, "tyr", {"tags": tags}) for tags in tag_counts]
        + [(wl, "unordered", {})],
        jobs=jobs, cache=cache, options=options,
    )
    swept = dict(zip(tag_counts, results))
    unordered = results[-1]
    traces = {f"tyr t={t}": res.live_trace for t, res in swept.items()}
    traces["unordered (unlimited)"] = unordered.live_trace
    rows = [[f"tyr t={t}", r.cycles, r.peak_live]
            for t, r in swept.items()]
    rows.append(["unordered", unordered.cycles, unordered.peak_live])
    chart = line_chart(
        {k: t.downsample(72) for k, t in traces.items()},
        title=f"Live tokens vs time across tag counts: {workload}",
        ylabel="live tokens", xlabel="cycles (normalized)",
    )
    data = {
        "cycles": {t: r.cycles for t, r in swept.items()},
        "peak": {t: r.peak_live for t, r in swept.items()},
        "unordered_cycles": unordered.cycles,
        "unordered_peak": unordered.peak_live,
    }
    return ExperimentReport(
        name="fig09",
        title="Trading off parallelism and state via tag count "
              "(paper Fig. 9)",
        data=data,
        text=chart + "\n\n" + table(
            ["config", "cycles", "peak live"], rows
        ),
        paper_expectation=(
            "more tags -> faster and more state; TYR with ample tags "
            "matches naive unordered dataflow"
        ),
    )
