"""Shared infrastructure for experiment drivers.

Every registered driver is a callable ``run(scale=..., <knobs>,
jobs=1, cache=None, options=None)`` returning an
:class:`ExperimentReport`. Besides ``scale`` and its own knobs
(workload, tag counts, issue widths, ...) it takes the uniform harness
arguments below, which the CLI passes to every driver (tab01 and
tab02 take and ignore them); an unknown keyword raises ``TypeError``.
Drivers that simulate submit their runs through
:func:`repro.harness.pool.run_batch` (only fig11's ablated policies,
which no machine name selects, run directly), threading these into
it:

``jobs``
    worker-pool fan-out (results stay order-stable and byte-identical
    to a serial run);
``cache``
    a :class:`~repro.harness.cache.ResultCache`; finished runs are
    written back incrementally, so interrupted experiments resume;
``options``
    a :class:`~repro.harness.pool.RunOptions` carrying the per-run
    wall-clock timeout, crash-retry budget, JSON-lines run log, and
    live progress line (CLI: ``experiment --timeout/--retries/
    --run-log/--progress``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError


@dataclass
class ExperimentReport:
    """The outcome of regenerating one paper figure or table."""

    name: str  # e.g. "fig12"
    title: str  # what the paper shows
    data: Dict[str, object]  # machine-readable results
    text: str  # the regenerated figure/table as text
    paper_expectation: str = ""  # the paper's claim, for EXPERIMENTS.md

    def __str__(self) -> str:
        header = f"== {self.name}: {self.title} =="
        parts = [header, self.text]
        if self.paper_expectation:
            parts.append(f"[paper: {self.paper_expectation}]")
        return "\n".join(parts)


#: Registry: experiment name -> run() callable.
EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {}


def register(name: str):
    def deco(fn: Callable[..., ExperimentReport]):
        EXPERIMENTS[name] = fn
        return fn
    return deco


def get_experiment(name: str) -> Callable[..., ExperimentReport]:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ReproError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None
