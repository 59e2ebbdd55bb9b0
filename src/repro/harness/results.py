"""Aggregation helpers for experiment reporting (paper Sec. VI metrics).

Execution time and IPC measure parallelism; peak/mean live tokens
measure state. Cross-benchmark summaries use the geometric mean, as in
the paper's Fig. 12/14 headline numbers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.sim.metrics import ExecutionResult


def gmean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    vals = [float(value) for value in values]
    if not vals:
        return 0.0
    if any(value <= 0 for value in vals):
        raise ValueError("gmean requires positive values")
    return math.exp(sum(math.log(value) for value in vals) / len(vals))


def speedup_vs(results: Dict[str, Dict[str, ExecutionResult]],
               reference: str = "tyr") -> Dict[str, float]:
    """Per-machine gmean speedup of ``reference`` (cycles ratio).

    ``results[app][machine]`` -> ExecutionResult. Returns
    machine -> gmean over apps of ``cycles(machine) /
    cycles(reference)`` (>1 means the reference is faster, matching the
    paper's "TYR is 68x faster vs. vN" phrasing).
    """
    machines = {m for per_app in results.values() for m in per_app}
    out: Dict[str, float] = {}
    for machine in sorted(machines):
        ratios = []
        for app, per_app in results.items():
            if machine in per_app and reference in per_app:
                ratios.append(per_app[machine].cycles
                              / per_app[reference].cycles)
        if ratios:
            out[machine] = gmean(ratios)
    return out


def state_reduction_vs(results: Dict[str, Dict[str, ExecutionResult]],
                       reference: str = "tyr") -> Dict[str, float]:
    """Per-machine gmean ratio ``peak_live(machine) /
    peak_live(reference)`` (paper Fig. 14's 572.8x style numbers)."""
    machines = {m for per_app in results.values() for m in per_app}
    out: Dict[str, float] = {}
    for machine in sorted(machines):
        ratios = []
        for per_app in results.values():
            if machine in per_app and reference in per_app:
                a = max(per_app[machine].peak_live, 1)
                b = max(per_app[reference].peak_live, 1)
                ratios.append(a / b)
        if ratios:
            out[machine] = gmean(ratios)
    return out


def merge_histograms(histograms: Iterable[Dict[int, int]]
                     ) -> Dict[int, int]:
    """Pointwise sum of value->count histograms.

    The merged histogram carries the same information as
    concatenating the underlying traces, without materializing them --
    how cross-app distributions (paper Fig. 13) are aggregated.
    """
    out: Dict[int, int] = {}
    for hist in histograms:
        for value, count in hist.items():
            out[value] = out.get(value, 0) + count
    return out


def histogram_quantile(histogram: Dict[int, int], index: int) -> int:
    """The value at position ``index`` of the sorted concatenated
    trace (``sorted(trace)[index]`` without building the list).

    ``index`` must satisfy ``0 <= index < sum(counts)``, exactly like
    the list indexing it replaces -- an out-of-range index raises
    ``ValueError`` instead of silently reporting a quantile of 0.
    """
    total = sum(histogram.values())
    if not 0 <= index < total:
        raise ValueError(
            f"index {index} out of range for a histogram of {total} "
            f"sample(s)")
    seen = 0
    for value, count in sorted(histogram.items()):
        seen += count
        if seen > index:
            return value
    raise AssertionError("unreachable: index bounds checked above")


def histogram_cdf(histogram: Dict[int, int]
                  ) -> List[Tuple[float, float]]:
    """(value, fraction of samples <= value) points of the CDF of the
    concatenated trace (paper Fig. 13's per-cycle IPC CDF)."""
    total = sum(histogram.values())
    if not total:
        return []
    points: List[Tuple[float, float]] = []
    seen = 0
    for value, count in sorted(histogram.items()):
        seen += count
        points.append((float(value), seen / total))
    return points
