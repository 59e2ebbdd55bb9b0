"""Extension: per-nesting-depth tag allocation (Culler's {k_i},
paper Sec. VIII-A).

Culler's dissertation extended k-bounding to nested loops by reserving
k1 tags for innermost loops, k2 for the next level, and so on, and
analyzed the state impact of different {k_i}. TYR's local tag spaces
subsume that: every loop level is its own tag space, so a depth-based
budget is just a set of per-block overrides. This experiment sweeps
inner-heavy vs uniform vs outer-heavy allocations on a deeply nested
kernel and shows Culler's conclusion: tags belong to the inner loops.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.ir.program import BlockKind, ContextProgram
from repro.workloads import build_workload


def loop_depths(program: ContextProgram) -> Dict[str, int]:
    """Loop-nesting depth per LOOP block (entry = depth 0)."""
    graph = program.call_graph()
    depth = {program.entry: 0}
    frontier = deque([program.entry])
    while frontier:
        name = frontier.popleft()
        for callee in graph.get(name, ()):
            child = depth[name]
            if program.block(callee).kind is BlockKind.LOOP:
                child += 1
            if callee not in depth or child < depth[callee]:
                depth[callee] = child
                frontier.append(callee)
    return {
        name: d for name, d in depth.items()
        if name in program.blocks
        and program.block(name).kind is BlockKind.LOOP
    }


def depth_overrides(program: ContextProgram,
                    budgets: List[int]) -> Dict[str, int]:
    """Map each loop to ``budgets[depth-1]`` (clamped to the last)."""
    out = {}
    for name, depth in loop_depths(program).items():
        out[name] = budgets[min(depth, len(budgets)) - 1]
    return out


@register("ext-depth")
def run(scale: str = "default", workload: str = "dconv",
        jobs: int = 1, cache=None, options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    program = wl.compiled.program
    depths = loop_depths(program)
    max_depth = max(depths.values())

    # The same multiset of budgets, assigned inner-heavy vs
    # outer-heavy, plus a uniform baseline -- Culler's comparison.
    ascending = [max(2, 2 ** (d + 1)) for d in range(1, max_depth + 1)]
    configs = {
        "uniform t=16": [16] * max_depth,
        "inner-heavy": ascending,
        "outer-heavy": list(reversed(ascending)),
    }
    results = run_batch(
        [(wl, "tyr", {"tags": 16,
                      "tag_overrides": depth_overrides(program, budgets),
                      "sample_traces": False})
         for budgets in configs.values()],
        jobs=jobs, cache=cache, options=options,
    )
    rows = []
    data = {}
    for (label, budgets), res in zip(configs.items(), results):
        rows.append([label, "/".join(map(str, budgets)), res.cycles,
                     res.peak_live])
        data[label] = {"budgets": budgets, "cycles": res.cycles,
                       "peak": res.peak_live}
    text = table(
        ["allocation", "tags by depth (outer->inner)", "cycles",
         "peak live"],
        rows,
        title=f"Per-depth tag budgets on {workload} ({scale}; "
              f"{max_depth} loop levels)",
    )
    return ExperimentReport(
        name="ext-depth",
        title="Per-nesting-depth tag allocation (Culler's {k_i}, "
              "Sec. VIII-A)",
        data=data,
        text=text,
        paper_expectation=(
            "tags are most valuable in inner loops: inner-heavy "
            "allocations dominate outer-heavy at equal or less state"
        ),
    )
