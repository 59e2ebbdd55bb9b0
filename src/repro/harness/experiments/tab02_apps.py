"""Table II: applications and input sizes (paper vs this reproduction)."""

from __future__ import annotations

from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.ir.interp import ReferenceInterpreter
from repro.workloads import WORKLOAD_NAMES, build_workload, paper_parameters


@register("tab02")
def run(scale: str = "default", jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    """``jobs``, ``cache`` and ``options`` are unused: every driver
    takes them."""
    rows = []
    dyn = {}
    for name in WORKLOAD_NAMES:
        wl = build_workload(name, scale)
        mem = wl.fresh_memory()
        res = ReferenceInterpreter(wl.compiled.program, mem).run(
            wl.compiled.entry_args(wl.args)
        )
        dyn[name] = res.dynamic_ops
        params = ", ".join(f"{k}={v}" for k, v in wl.params.items())
        rows.append([name, paper_parameters(name), params,
                     res.dynamic_ops])
    text = table(
        ["app", "paper input", f"this repro ({scale})",
         "dynamic ops"],
        rows,
        title="Applications and input sizes (paper Table II; inputs "
              "scaled for a pure-Python simulator)",
    )
    return ExperimentReport(
        name="tab02",
        title="Applications and their input sizes (paper Table II)",
        data={"dynamic_ops": dyn},
        text=text,
        paper_expectation="seven apps, 50M-1B dynamic instructions "
                          "(scaled down here)",
    )
