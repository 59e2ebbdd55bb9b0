"""Summary statistics and the parent-versus-change decision rule.

``tail`` is the latency percentile rule: the highest percentile that
still has at least ten samples beyond it. ``classify`` decides one
workload x metric row of ``compare`` from paired runs of a parent and
a change: at least ten pairs, a gain needs nine tenths of the pairs
won and a median difference larger than the parent's interquartile
range, a regression is a median worse than the parent's by more than
the metric's bound, and a metric whose run-to-run spread exceeds its
bound is unresolved.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10

#: Fewest parent/change pairs ``classify`` decides on.
MIN_PAIRS = 10

#: Share of the pairs a change must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    :data:`TAIL_BEYOND` samples beyond it.

    That is the eleventh-largest sample, at percentile
    ``100 * (n - 10) / n``. With twenty samples or fewer that
    percentile would not lie above the median, so the maximum is
    returned instead, at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _worse(change: float, parent: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative when it is better)."""
    delta = change - parent if better == "lower" else parent - change
    return delta / parent if parent else 0.0


def classify(parent: Sequence[float], change: Sequence[float],
             better: str, bound: float) -> Dict[str, object]:
    """Decide one metric from runs paired by index.

    Returns the verdict (``gain``, ``regression``, ``unresolved``,
    ``unchanged`` or ``too-few-pairs``) with the numbers behind it.
    """
    n = min(len(parent), len(change))
    parent, change = list(parent[:n]), list(change[:n])
    row: Dict[str, object] = {"pairs": n}
    if n < MIN_PAIRS:
        row["verdict"] = "too-few-pairs"
        return row
    pq = quartiles(parent)
    cq = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if _worse(c, p, better) < 0)
    worse = _worse(cq[1], pq[1], better)
    noise = max(spread(parent), spread(change))
    if better == "lower":
        dominates = max(change) < min(parent)
    else:
        dominates = min(change) > max(parent)
    row.update(parent=pq, change=cq, ratio=cq[1] / pq[1] if pq[1] else
               float("inf"), wins=wins, worse=worse, spread=noise)
    if worse > bound:
        verdict = "regression"
    elif (worse < 0 and wins >= WIN_SHARE * n
          and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
        verdict = "gain"
    elif noise > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    row["verdict"] = verdict
    return row

