"""Fig. 18: per-region tag sizing on dmm.

TYR's local tag spaces can be sized independently per program region.
Shrinking the outermost loop's tag space (64 -> 8) removes outer-loop
over-parallelization that inner loops already saturate, cutting peak
state (paper: 28.5%) at nearly unchanged performance.
"""

from __future__ import annotations

from typing import List

from repro.harness.ascii_plots import line_chart, table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.ir.program import BlockKind, ContextProgram
from repro.workloads import build_workload


def outermost_loops(program: ContextProgram) -> List[str]:
    """LOOP blocks spawned directly from the entry block."""
    entry = program.entry_block()
    return [
        op.attrs["callee"] for op in entry.spawns()
        if program.block(op.attrs["callee"]).kind is BlockKind.LOOP
    ]


@register("fig18")
def run(scale: str = "large", workload: str = "dmv",
        base_tags: int = 64, outer_tags: int = 32,
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    """Note: the paper tunes dmm (256x256); at our scaled-down dmm the
    outer loop has fewer iterations than tags, so the knob cannot bind.
    dmv at the large scale (64 outer iterations) exhibits the same
    effect the paper reports, so it is the default here (recorded in
    EXPERIMENTS.md)."""
    wl = build_workload(workload, scale)
    outer = outermost_loops(wl.compiled.program)
    baseline, tuned = run_batch(
        [
            (wl, "tyr", {"tags": base_tags}),
            (wl, "tyr", {"tags": base_tags,
                         "tag_overrides": {name: outer_tags
                                           for name in outer}}),
        ],
        jobs=jobs, cache=cache, options=options,
    )
    reduction = 1 - tuned.peak_live / max(baseline.peak_live, 1)
    slowdown = tuned.cycles / max(baseline.cycles, 1)
    chart = line_chart(
        {
            f"all blocks t={base_tags}":
                baseline.live_trace.downsample(72),
            f"outer loop t={outer_tags}":
                tuned.live_trace.downsample(72),
        },
        title=f"Live tokens vs time: region-selective tags on "
              f"{workload} ({scale})",
        ylabel="live tokens",
    )
    tab = table(
        ["config", "cycles", "peak live", "mean live"],
        [
            [f"t={base_tags} everywhere", baseline.cycles,
             baseline.peak_live, round(baseline.mean_live, 1)],
            [f"outer loop t={outer_tags}", tuned.cycles,
             tuned.peak_live, round(tuned.mean_live, 1)],
        ],
    )
    summary = (
        f"peak-state reduction: {reduction * 100:.1f}% "
        f"(paper: 28.5%), execution-time ratio: {slowdown:.2f}x"
    )
    data = {
        "outer_blocks": outer,
        "baseline_cycles": baseline.cycles,
        "baseline_peak": baseline.peak_live,
        "tuned_cycles": tuned.cycles,
        "tuned_peak": tuned.peak_live,
        "reduction": reduction,
        "slowdown": slowdown,
    }
    return ExperimentReport(
        name="fig18",
        title="Selective per-region tag scaling (paper Fig. 18)",
        data=data,
        text=chart + "\n\n" + tab + "\n" + summary,
        paper_expectation=(
            "shrinking the outermost loop's tags cuts peak state "
            "(~28.5%) with minimal performance impact"
        ),
    )
