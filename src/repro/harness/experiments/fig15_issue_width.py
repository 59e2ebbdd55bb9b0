"""Fig. 15: execution time and state vs issue width on dmv.

Unordered dataflow and TYR speed up steadily with issue width;
sequential and ordered dataflow see negligible gains (their
parallelism is already exhausted). Live state is fairly insensitive
to issue width.
"""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.workloads import build_workload

MACHINES = ("seqdf", "ordered", "unordered", "tyr")


@register("fig15")
def run(scale: str = "default", workload: str = "dmv",
        widths=(16, 32, 64, 128, 256, 512), tags: int = 64,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    flat = iter(run_batch(
        [(wl, machine, {"tags": tags, "sample_traces": False,
                        "issue_width": width})
         for machine in MACHINES for width in widths],
        jobs=jobs, cache=cache, options=options,
    ))
    swept = {machine: {width: next(flat) for width in widths}
             for machine in MACHINES}
    cycle_rows = []
    state_rows = []
    for width in widths:
        cycle_rows.append([width] + [swept[m][width].cycles
                                     for m in MACHINES])
        state_rows.append([width] + [swept[m][width].peak_live
                                     for m in MACHINES])
    text = "\n\n".join([
        table(["issue width"] + list(MACHINES), cycle_rows,
              title=f"Execution time (cycles) vs issue width: "
                    f"{workload} ({scale})"),
        table(["issue width"] + list(MACHINES), state_rows,
              title="Peak live tokens vs issue width"),
    ])
    data = {
        "cycles": {m: {w: swept[m][w].cycles for w in widths}
                   for m in MACHINES},
        "peak": {m: {w: swept[m][w].peak_live for w in widths}
                 for m in MACHINES},
    }
    return ExperimentReport(
        name="fig15",
        title="Scaling with issue width (paper Fig. 15)",
        data=data,
        text=text,
        paper_expectation=(
            "unordered/TYR keep speeding up with width; seqdf/ordered "
            "see little gain; live state roughly width-insensitive"
        ),
    )
