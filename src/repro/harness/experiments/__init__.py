"""One driver per paper figure/table (see DESIGN.md experiment index).

Every driver exposes ``run(scale=..., ...) -> ExperimentReport`` (the
contract is in :mod:`repro.harness.experiments.base`) with
machine-readable ``data`` (asserted on by tests and benchmarks)
and a rendered ``text`` (the regenerated figure/table).
"""

from repro.harness.experiments.base import (
    ExperimentReport,
    EXPERIMENTS,
    get_experiment,
    register,
)

# Importing the modules registers them.
from repro.harness.experiments import (  # noqa: F401,E402
    ext_depth_tags,
    ext_latency,
    ext_locality,
    ext_token_store,
    fig02_state_trace,
    fig05_exec_shapes,
    fig09_tag_knob,
    fig11_deadlock,
    fig12_exec_time,
    fig13_ipc_cdf,
    fig14_live_state,
    fig15_issue_width,
    fig16_tag_sweep,
    fig17_width_tags,
    fig18_region_tags,
    tab01_isa,
    tab02_apps,
)

__all__ = ["ExperimentReport", "EXPERIMENTS", "get_experiment",
           "register"]
