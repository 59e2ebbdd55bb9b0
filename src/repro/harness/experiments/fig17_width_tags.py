"""Fig. 17: IPC and peak state over the (issue width x tags) grid on
spmspv.

Peak performance needs both sufficient issue width and sufficient
tags; peak state grows with tags but not with width. Scaling tags at
half the issue width (the gray line in the paper) keeps both rising
together until parallelism saturates.
"""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.workloads import build_workload


@register("fig17")
def run(scale: str = "small", workload: str = "spmspv",
        widths=(8, 16, 32, 64, 128), tag_counts=(2, 4, 8, 16, 32, 64),
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    points = [(width, tags) for width in widths for tags in tag_counts]
    # The tags = width/2 scaling line (paper Fig. 17c).
    points += [(width, max(2, width // 2)) for width in widths
               if (width, max(2, width // 2)) not in points]
    grid = dict(zip(points, run_batch(
        [(wl, "tyr", {"issue_width": width, "tags": tags,
                      "sample_traces": False})
         for width, tags in points],
        jobs=jobs, cache=cache, options=options,
    )))
    ipc_rows = []
    peak_rows = []
    for width in widths:
        ipc_rows.append(
            [width] + [round(grid[(width, t)].mean_ipc, 1)
                       for t in tag_counts]
        )
        peak_rows.append(
            [width] + [grid[(width, t)].peak_live for t in tag_counts]
        )
    line_rows = []
    for width in widths:
        tags = max(2, width // 2)
        res = grid[(width, tags)]
        line_rows.append([width, tags, round(res.mean_ipc, 1),
                          res.peak_live])
    headers = ["width \\ tags"] + [str(t) for t in tag_counts]
    text = "\n\n".join([
        table(headers, ipc_rows,
              title=f"Mean IPC over (width x tags): {workload} ({scale})"),
        table(headers, peak_rows, title="Peak live tokens"),
        table(["width", "tags=width/2", "IPC", "peak live"], line_rows,
              title="Scaling tags with width (paper Fig. 17c)"),
    ])
    data = {
        "ipc": {f"{w}x{t}": grid[(w, t)].mean_ipc
                for w in widths for t in tag_counts},
        "peak": {f"{w}x{t}": grid[(w, t)].peak_live
                 for w in widths for t in tag_counts},
        "line": {w: (round(grid[(w, max(2, w // 2))].mean_ipc, 2),
                     grid[(w, max(2, w // 2))].peak_live)
                 for w in widths},
    }
    return ExperimentReport(
        name="fig17",
        title="IPC and live state over issue width x tags "
              "(paper Fig. 17)",
        data=data,
        text=text,
        paper_expectation=(
            "performance bottlenecked by whichever of width/tags is "
            "small; state grows with tags, not width"
        ),
    )
