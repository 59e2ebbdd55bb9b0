"""Fig. 2: live state over time on spmspm, all systems.

The paper's headline trace: unordered dataflow's live state grows
explosively and drains slowly; sequential/ordered dataflow stay low
but take far longer; TYR plateaus at a bounded level and finishes
nearly as fast as unordered.
"""

from __future__ import annotations

from repro.harness.ascii_plots import line_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.harness.runner import PAPER_SYSTEMS
from repro.workloads import build_workload


@register("fig02")
def run(scale: str = "default", workload: str = "spmspm",
        tags: int = 64, jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    results = run_batch(
        [(wl, machine, {"tags": tags}) for machine in PAPER_SYSTEMS],
        jobs=jobs, cache=cache, options=options)
    traces = {}
    summary_rows = []
    for machine, res in zip(PAPER_SYSTEMS, results):
        traces[machine] = res.live_trace
        summary_rows.append([machine, res.cycles, res.peak_live,
                             round(res.mean_live, 1)])
    chart = line_chart(
        {m: t.downsample(72) for m, t in traces.items()},
        title=f"Live tokens over time: {workload} ({scale})",
        ylabel="live tokens", xlabel="cycles (per-series normalized)",
        logy=True,
    )
    tab = table(["system", "cycles", "peak live", "mean live"],
                summary_rows)
    data = {
        "cycles": {m: len(t) for m, t in traces.items()},
        "peak": {m: t.peak() for m, t in traces.items()},
        "traces": {m: t.downsample(100) for m, t in traces.items()},
    }
    return ExperimentReport(
        name="fig02",
        title="State over time while executing spmspm (paper Fig. 2)",
        data=data,
        text=chart + "\n\n" + tab,
        paper_expectation=(
            "unordered explodes state then drains; vn/seqdf/ordered low "
            "state but slow; TYR bounded state at near-unordered speed"
        ),
    )
