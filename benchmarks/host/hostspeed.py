"""Host-speed calibration.

On a shared 2 vCPU Xeon virtual machine (Python 3.11.7), effective CPU
speed swings by up to 25% within a minute, while a fixed pure-Python
loop timed between the operations tracks those swings closely: per
round of the steady workload, round time and loop time correlate at
0.96. So every end-to-end time is reported at a reference host speed:
each measured time is scaled by ``REFERENCE_S / c``, where ``c`` is the
mean time of the calibration samples taken among the measured
operations, on the same CPU, and ``REFERENCE_S`` is about one sample's
median time on that machine. The loop does what the simulator's cycle
loops spend their time on -- attribute and dict access, list queues,
small calls, integer arithmetic -- and it is part of the benchmark,
which a change to the simulator does not edit.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Sequence

#: Seconds of one calibration sample on the reference host.
REFERENCE_S = 0.0032

#: Loop iterations per calibration sample.
ITERATIONS = 6000

#: Least time between two samples a :class:`Sampler` takes, which
#: bounds the calibration's share of a run's wall time to a few
#: percent.
SPACING_S = 0.05

#: Fewest samples a :class:`Sampler` scales a round by.
WINDOW = 5


class _Token:
    __slots__ = ("tag", "value")

    def __init__(self, tag: int, value: int):
        self.tag = tag
        self.value = value


def _step(table: dict, token: _Token) -> int:
    slot = table.get(token.tag)
    if slot is None:
        table[token.tag] = token.value
        return 0
    del table[token.tag]
    return slot + token.value


def _loop(n: int) -> int:
    table: dict = {}
    queue: List[_Token] = []
    acc = 0
    for i in range(n):
        queue.append(_Token((i * 40503) & 255, i))
        if len(queue) > 16:
            acc = (acc + _step(table, queue.pop(0))) & 0xFFFFFFFF
    return acc


def sample() -> float:
    """Seconds of one run of the calibration loop."""
    t0 = perf_counter()
    _loop(ITERATIONS)
    return perf_counter() - t0


def calibration(n: int = 5) -> List[float]:
    """``n`` samples in a row, for a point in time between operations
    (such as either side of a set-up)."""
    return [sample() for _ in range(n)]


def factor(samples: Sequence[float]) -> float:
    """Scale from measured host seconds to reference-host seconds."""
    return REFERENCE_S * len(samples) / sum(samples)


class Sampler:
    """Calibration samples taken between operations.

    :meth:`tick` goes before each operation and samples when
    :data:`SPACING_S` has passed since the last sample; :meth:`factor`
    closes a round and returns the scale for the samples taken during
    it, topped up with the latest earlier ones to at least
    :data:`WINDOW` samples, so a round too short to take many is not
    scaled by one noisy sample.
    """

    def __init__(self):
        self._samples: List[float] = []
        self._round = 0
        self._last = float("-inf")

    def tick(self) -> None:
        if perf_counter() - self._last >= SPACING_S:
            self._samples.append(sample())
            self._round += 1
            self._last = perf_counter()

    def factor(self) -> float:
        if not self._samples:
            self.tick()
        used = self._samples[-max(self._round, WINDOW):]
        self._samples = self._samples[-WINDOW:]
        self._round = 0
        return factor(used)
