"""Extension: tolerance of unpredictable memory latency.

The paper's case for unordered dataflow in irregular workloads is
that data-dependent latencies stall ordered pipelines while tag
matching just reorders around them (Sec. II-C: ordered dataflow "is
prone to stalls as long-latency operations block later instances of
the same instruction"). This experiment gives every load a
pseudo-random latency in [1, L] and measures each architecture's
slowdown relative to its own single-cycle-memory baseline.
"""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.harness.runner import PAPER_SYSTEMS
from repro.workloads import build_workload


@register("ext-latency")
def run(scale: str = "default", workload: str = "tc",
        latencies=(1, 4, 16, 32), jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    flat = iter(run_batch(
        [(wl, machine, {"load_latency": latency,
                        "sample_traces": False})
         for machine in PAPER_SYSTEMS for latency in latencies],
        jobs=jobs, cache=cache, options=options,
    ))
    cycles = {machine: {latency: next(flat).cycles
                        for latency in latencies}
              for machine in PAPER_SYSTEMS}
    rows = []
    slowdown = {}
    for machine in PAPER_SYSTEMS:
        base = cycles[machine][latencies[0]]
        factors = [cycles[machine][latency] / base
                   for latency in latencies]
        slowdown[machine] = factors[-1]
        rows.append([machine]
                    + [cycles[machine][latency] for latency in latencies]
                    + [f"{factors[-1]:.2f}x"])
    text = table(
        ["system"] + [f"L={latency}" for latency in latencies]
        + [f"slowdown @L={latencies[-1]}"],
        rows,
        title=f"Execution time under random load latency in [1, L]: "
              f"{workload} ({scale})",
    )
    data = {"cycles": cycles, "slowdown": slowdown}
    return ExperimentReport(
        name="ext-latency",
        title="Memory-latency tolerance by token-synchronization "
              "scheme (extension of paper Sec. II-C)",
        data=data,
        text=text,
        paper_expectation=(
            "tagged dataflow (unordered/TYR) degrades least under "
            "unpredictable latency; ordered dataflow and vN degrade "
            "most"
        ),
    )
