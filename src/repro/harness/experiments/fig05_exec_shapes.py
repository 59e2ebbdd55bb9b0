"""Figs. 1/5: execution shapes of dmv across architectures.

The paper draws the dynamic execution graph per architecture: trace
width = time, height = parallelism. We regenerate the quantitative
content: per-cycle issue profiles, showing vN's flat 1-wide trace,
ordered/sequential dataflow's limited height, and tagged dataflow's
tall-but-short execution.
"""

from __future__ import annotations

from repro.harness.ascii_plots import line_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.runner import PAPER_SYSTEMS
from repro.harness.sweep import run_machines
from repro.workloads import build_workload


#: Fig. 5 also surveys data-parallel machines (5f); we include ours.
MACHINES = tuple(PAPER_SYSTEMS) + ("datapar",)


@register("fig05")
def run(scale: str = "small", workload: str = "dmv",
        jobs: int = 1, cache=None, options=None,
        **kwargs) -> ExperimentReport:
    wl = build_workload(workload, scale)
    results = run_machines(wl, MACHINES, jobs=jobs, cache=cache,
                           options=options)
    profiles = {}
    rows = []
    for machine in MACHINES:
        res = results[machine]
        profiles[machine] = res.ipc_trace
        rows.append([
            machine,
            res.cycles,  # trace width (time)
            res.ipc_trace.peak(),  # trace height (parallelism)
            round(res.mean_ipc, 2),
        ])
    chart = line_chart(
        {m: t.downsample(72) for m, t in profiles.items()},
        title=f"Issue profile (parallelism over time): {workload}",
        ylabel="instructions issued", xlabel="cycles (normalized)",
        logy=True,
    )
    tab = table(
        ["system", "trace width (cycles)", "max height (parallelism)",
         "mean IPC"],
        rows,
        title="Execution-shape summary (paper Figs. 1/5)",
    )
    data = {
        "width": {r[0]: r[1] for r in rows},
        "height": {r[0]: r[2] for r in rows},
    }
    return ExperimentReport(
        name="fig05",
        title="Execution shapes across architectures (paper Fig. 5)",
        data=data,
        text=tab + "\n\n" + chart,
        paper_expectation=(
            "vn: widest/flattest (1 IPC); tagged dataflow: narrowest and "
            "tallest; ordered/sequential dataflow in between"
        ),
    )
