"""Fig. 16: state vs execution time across tag widths on spmspm.

TYR completes even with 2 tags per concurrent block; adding tags
expands parallelism (shorter traces, more state) until performance
saturates around tags = issue_width / 2.
"""

from __future__ import annotations

from repro.harness.ascii_plots import line_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.workloads import build_workload


@register("fig16")
def run(scale: str = "default", workload: str = "spmspm",
        tag_counts=(2, 8, 32, 64, 128, 512), issue_width: int = 128,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    swept = dict(zip(tag_counts, run_batch(
        [(wl, "tyr", {"issue_width": issue_width, "tags": tags})
         for tags in tag_counts],
        jobs=jobs, cache=cache, options=options,
    )))
    chart = line_chart(
        {f"t={t}": r.live_trace.downsample(72)
         for t, r in swept.items()},
        title=f"Live tokens vs time across tag widths: {workload} "
              f"({scale}, width {issue_width})",
        ylabel="live tokens", xlabel="cycles (normalized)",
    )
    rows = [[t, r.cycles, r.peak_live, round(r.mean_ipc, 1)]
            for t, r in swept.items()]
    tab = table(["tags/block", "cycles", "peak live", "mean IPC"], rows)
    data = {
        "cycles": {t: r.cycles for t, r in swept.items()},
        "peak": {t: r.peak_live for t, r in swept.items()},
    }
    return ExperimentReport(
        name="fig16",
        title="State vs execution time across tag widths "
              "(paper Fig. 16)",
        data=data,
        text=chart + "\n\n" + tab,
        paper_expectation=(
            "correct even with t=2; execution time improves with tags "
            "until ~width/2, state grows with tags"
        ),
    )
