"""Experiment harness: runners, the run pool and result cache,
aggregation, and one driver per paper figure/table (see DESIGN.md's
experiment index)."""

from repro.harness.runner import CompiledWorkload, MACHINES, run_program

__all__ = ["CompiledWorkload", "MACHINES", "run_program"]
