"""Early progress watchdog shared by every engine family.

A machine that quiesces (empty ready queue, nothing in flight) with
live tokens is caught immediately by each engine's quiesce check. The
watchdog covers the *other* failure shape: a loop that keeps burning
cycles without retiring an instruction -- stale due-cycle bookkeeping,
a waiter list that re-queues without progress, a cycle loop whose
stall fast path regresses. Counting consecutive zero-fire cycles is
O(1) per cycle and perturbs nothing: the counter resets on every
productive cycle, so a run that completes is bit-identical with or
without the watchdog.

Which zero-fire cycles count depends on the family's loop:

* tagged and ordered count a cycle only when no load is in flight. A
  cycle waiting on memory neither resets nor extends the streak;
* the window machines (vn, ooo, seqdf) count every cycle without
  firing, retire or fetch progress, and trip once the streak reaches
  the horizon with no load in flight, or with one whose due cycle has
  already passed (stale bookkeeping);
* datapar runs depth-first and cannot spin this way, so it has no
  watchdog. A load stall lasts the timing model's delay minus one
  cycle, and ``max_cycles`` bounds it, as it bounds tagged and
  ordered, which never count a cycle waiting on memory either.

The horizon is far beyond any legitimate zero-fire stretch (memory
stalls are bounded by the worst-case load latency, on the order of
hundreds of cycles) yet early enough that a wedged large workload
surfaces in seconds instead of grinding to ``max_cycles``: at the
default 50M-cycle budget the horizon is 100k cycles, under
``max_cycles / 10`` as the robustness plan requires.
"""

from __future__ import annotations

from typing import Optional

#: Never wait longer than this many zero-progress cycles.
WATCHDOG_CAP = 100_000
#: Never trip before this many, so tiny ``max_cycles`` test budgets
#: cannot make legitimate short stalls fatal.
WATCHDOG_FLOOR = 256


def watchdog_horizon(max_cycles: int) -> int:
    """Consecutive zero-progress cycles tolerated before diagnosing.

    ``min(100k, max(256, max_cycles // 10))`` -- proportional to the
    cycle budget for small runs, capped for large ones.
    """
    return min(WATCHDOG_CAP, max(WATCHDOG_FLOOR, max_cycles // 10))


def watchdog_note(cycles: Optional[int]) -> str:
    """What a deadlock message adds when the watchdog, not the quiesce
    check, tripped after ``cycles`` zero-progress cycles."""
    if cycles is None:
        return ""
    return (f" (progress watchdog: {cycles} consecutive cycles without "
            f"progress)")
