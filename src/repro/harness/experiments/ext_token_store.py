"""Extension: token-store implementability (paper Problem #2,
Sec. II-C / III).

Unordered dataflow needs one monolithic associative wait-match store
sized for *all* live tokens -- the unsolved implementation problem the
paper recounts. TYR distributes matching across per-block stores whose
occupancy is bounded by ``tags x block inputs``, "opening the door to
an efficient, scalable implementation".

This experiment measures peak wait-match store occupancy per tag space
under both architectures and checks TYR's static bound.
"""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.workloads import build_workload


def _static_store_bound(graph, block: str, tags: int) -> int:
    """TYR's per-block store bound: tags x (token inputs in block)."""
    inputs = sum(
        len(n.token_ports) for n in graph.nodes if n.block == block
    )
    return tags * inputs


@register("ext-store")
def run(scale: str = "default", workload: str = "dconv",
        tags: int = 64, jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    unordered, tyr = run_batch(
        [
            (wl, "unordered", {"track_occupancy": True,
                               "sample_traces": False}),
            (wl, "tyr", {"tags": tags, "track_occupancy": True,
                         "sample_traces": False}),
        ],
        jobs=jobs, cache=cache, options=options,
    )

    u_occ = unordered.extra["peak_store_occupancy"]
    t_occ = tyr.extra["peak_store_occupancy"]
    graph = wl.compiled.tagged
    rows = []
    violations = []
    for block in sorted(t_occ):
        if block == "<root>":
            bound = "-"
        else:
            bound = _static_store_bound(graph, block, tags)
            if t_occ[block] > bound:
                violations.append(block)
        rows.append([block, u_occ.get(block, 0), t_occ[block], bound])

    monolithic = sum(u_occ.values())
    largest_tyr = max(v for b, v in t_occ.items())
    text = "\n".join([
        table(
            ["tag space", "unordered peak", "TYR peak",
             f"TYR bound (t={tags})"],
            rows,
            title=f"Peak wait-match store occupancy: {workload} "
                  f"({scale})",
        ),
        "",
        f"unordered dataflow needs ONE associative store holding up to "
        f"{monolithic} tokens",
        f"TYR's largest per-block store holds {largest_tyr} tokens "
        f"(and each is statically bounded)",
    ])
    data = {
        "unordered_total": monolithic,
        "tyr_largest": largest_tyr,
        "tyr_by_block": t_occ,
        "unordered_by_block": u_occ,
        "bound_violations": violations,
    }
    return ExperimentReport(
        name="ext-store",
        title="Token-store sizing: monolithic vs per-block "
              "(extension of paper Sec. III)",
        data=data,
        text=text,
        paper_expectation=(
            "TYR's local tag spaces enable small, bounded, distributed "
            "token stores; unordered dataflow's store is unbounded"
        ),
    )
