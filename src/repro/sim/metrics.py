"""Execution metrics shared by all machine models (paper Sec. VI).

The paper samples IPC and the number of live tokens every cycle; peak
and mean live state are the locality metrics (Fig. 14), the per-cycle
traces drive Figs. 2, 9, 16, 18, and the IPC samples drive the CDF of
Fig. 13.

Storage layout (PR 3): per-cycle traces are **run-length encoded**
into paired ``array('q')`` buffers (:class:`RLETrace`) instead of
plain Python lists.  Simulated traces are extremely repetitive -- vN
fires exactly 1 instruction every cycle, stall regions hold the live
count constant for thousands of cycles -- so RLE shrinks a
multi-million-cycle trace by orders of magnitude, which is what makes
``--scale large`` sweeps (and their pickled
:class:`~repro.harness.cache.ResultCache` entries) tractable.

The contract consumers rely on:

* ``MetricsRecorder.sample``/``sample_idle`` are O(1) appends to the
  compact arrays, and the cycle loops append to the same arrays
  inline (``MetricsRecorder.counters``/``commit``);
* ``ExecutionResult.ipc_trace``/``live_trace`` are *lazy sequences*:
  indexing, slicing, iteration, ``len`` and equality all behave like
  a list's, but nothing is materialized until asked for;
* streaming aggregations (:meth:`RLETrace.peak`,
  :meth:`RLETrace.total`, :meth:`RLETrace.histogram`,
  :meth:`RLETrace.downsample`) answer the Fig. 13/14/16-style
  questions straight from the runs, so those consumers never
  materialize a trace at all.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MetricsUnavailable


def _rebuild_rle(values: array, counts: array) -> "RLETrace":
    """The trace over the run arrays ``values`` and ``counts``."""
    trace = RLETrace.__new__(RLETrace)
    trace._values = values
    trace._counts = counts
    trace._length = sum(counts)
    trace._cum = None
    return trace


def _pack_array(arr: array) -> Tuple[str, bytes]:
    """Narrowest-typecode, zlib-compressed wire form of a run array.

    In-memory runs are int64 for O(1) appends without overflow checks,
    but on the wire that wastes 8 bytes on values that are almost
    always small (IPC <= issue width, run counts mostly 1). Narrowing
    first makes the compressor's input 2-8x smaller; compressing then
    flattens the remaining repetition.
    """
    import zlib

    if arr:
        lo, hi = min(arr), max(arr)
        for code, bound in (("b", 1 << 7), ("h", 1 << 15),
                            ("i", 1 << 31)):
            if -bound <= lo and hi < bound:
                return code, zlib.compress(array(code, arr).tobytes())
    return "q", zlib.compress(arr.tobytes())


def _unpack_array(code: str, blob: bytes) -> array:
    import zlib

    narrow = array(code)
    narrow.frombytes(zlib.decompress(blob))
    return narrow if code == "q" else array("q", narrow)


def _rebuild_rle_packed(values_code: str, values_blob: bytes,
                        counts_code: str, counts_blob: bytes
                        ) -> "RLETrace":
    """Pickle helper for the packed wire format."""
    return _rebuild_rle(_unpack_array(values_code, values_blob),
                        _unpack_array(counts_code, counts_blob))


class RLETrace(_SequenceABC):
    """A run-length-encoded trace of per-cycle integer samples.

    Runs are kept canonical (adjacent runs never hold equal values, all
    counts are positive), so two traces are equal iff their run arrays
    are equal.  Random access is O(log runs) via a lazily built
    cumulative-count index; iteration and aggregation are O(runs).
    """

    __slots__ = ("_values", "_counts", "_length", "_cum")

    def __init__(self, samples: Optional[Sequence[int]] = None):
        self._values = array("q")
        self._counts = array("q")
        self._length = 0
        #: Lazily built inclusive cumulative counts (``_cum[r]`` is the
        #: number of samples in runs ``0..r``); invalidated by appends.
        self._cum: Optional[array] = None
        if samples:
            for value in samples:
                self.append(value)

    # -- recording (the engines' per-cycle hot path) -------------------
    def append(self, value: int) -> None:
        """Record one sample (O(1); merges into the last run)."""
        counts = self._counts
        if counts and self._values[-1] == value:
            counts[-1] += 1
        else:
            self._values.append(value)
            counts.append(1)
        self._length += 1

    def append_run(self, value: int, n: int) -> None:
        """Record ``n`` consecutive equal samples (O(1))."""
        if n <= 0:
            return
        counts = self._counts
        if counts and self._values[-1] == value:
            counts[-1] += n
        else:
            self._values.append(value)
            counts.append(n)
        self._length += n

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[int]:
        for value, count in zip(self._values, self._counts):
            yield from repeat(value, count)

    def _cumulative(self) -> array:
        cum = self._cum
        if cum is None or (len(cum) != len(self._counts)
                           or (cum and cum[-1] != self._length)):
            cum = array("q")
            total = 0
            for count in self._counts:
                total += count
                cum.append(total)
            self._cum = cum
        return cum

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step == 1:
                return self._materialize_range(start, stop)
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("trace index out of range")
        return self._values[bisect_right(self._cumulative(), index)]

    def _materialize_range(self, start: int, stop: int) -> List[int]:
        if stop <= start:
            return []
        out: List[int] = []
        cum = self._cumulative()
        r = bisect_right(cum, start)
        pos = start
        values = self._values
        while pos < stop:
            run_end = cum[r]
            take = min(stop, run_end) - pos
            out.extend(repeat(values[r], take))
            pos += take
            r += 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, RLETrace):
            return (self._values == other._values
                    and self._counts == other._counts)
        if isinstance(other, (list, tuple)):
            if len(other) != self._length:
                return False
            it = iter(other)
            for value, count in zip(self._values, self._counts):
                if any(value != got for got in islice(it, count)):
                    return False
            return True
        return NotImplemented

    __hash__ = None  # unhashable, like the lists it replaces

    def __repr__(self) -> str:
        return (f"RLETrace(len={self._length}, "
                f"runs={len(self._values)})")

    # -- streaming aggregation -----------------------------------------
    @property
    def n_runs(self) -> int:
        return len(self._values)

    def peak(self, default: int = 0) -> int:
        return max(self._values) if self._values else default

    def total(self) -> int:
        return sum(v * c for v, c in zip(self._values, self._counts))

    def histogram(self) -> Dict[int, int]:
        """value -> number of cycles with that sample."""
        hist: Dict[int, int] = {}
        for value, count in zip(self._values, self._counts):
            hist[value] = hist.get(value, 0) + count
        return hist

    def downsample(self, n_points: int = 100) -> List[int]:
        """Bucket-max downsampling to ``n_points`` samples (keeps
        peaks visible); a trace of at most ``n_points`` samples comes
        back whole."""
        if n_points <= 0:
            raise ValueError(
                f"n_points must be positive, got {n_points}")
        n = self._length
        if n <= n_points:
            return self._materialize_range(0, n)
        cum = self._cumulative()
        values = self._values
        out: List[int] = []
        step = n / n_points
        for i in range(n_points):
            lo = int(i * step)
            hi = max(lo + 1, int((i + 1) * step))
            r = bisect_right(cum, lo)
            best = values[r]
            while cum[r] < hi:
                r += 1
                if values[r] > best:
                    best = values[r]
            out.append(best)
        return out

    # -- pickling (compact: narrowed + compressed run arrays) ----------
    def __reduce__(self):
        return (_rebuild_rle_packed,
                _pack_array(self._values) + _pack_array(self._counts))


@dataclass
class ExecutionResult:
    """Outcome and metrics of one simulated execution.

    ``ipc_trace``/``live_trace`` are :class:`RLETrace` lazy sequences:
    indexing, slicing, iteration and equality behave like lists, and
    nothing is materialized until asked for.
    """

    machine: str
    completed: bool
    cycles: int
    instructions: int
    results: Tuple[object, ...]
    ipc_trace: RLETrace
    live_trace: RLETrace
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def peak_live(self) -> int:
        if len(self.live_trace) == 0:
            if "peak_live" in self.extra:
                return self.extra["peak_live"]
            if self.cycles > 0:
                raise MetricsUnavailable(
                    f"{self.machine}: live trace was not sampled and "
                    "extra['peak_live'] is absent; run with "
                    "sample_traces=True or record the aggregate"
                )
            return 0
        return self.live_trace.peak()

    @property
    def mean_live(self) -> float:
        if len(self.live_trace) == 0:
            if "mean_live" in self.extra:
                return self.extra["mean_live"]
            if self.cycles > 0:
                raise MetricsUnavailable(
                    f"{self.machine}: live trace was not sampled and "
                    "extra['mean_live'] is absent; run with "
                    "sample_traces=True or record the aggregate"
                )
            return 0.0
        return self.live_trace.total() / len(self.live_trace)

    @property
    def mean_ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    def summary(self) -> str:
        # Hand-built results (unsampled traces, no aggregate extras)
        # must still render; degrade the live-state fields to "?"
        # instead of raising MetricsUnavailable.
        try:
            peak = str(self.peak_live)
        except MetricsUnavailable:
            peak = "?"
        try:
            mean = f"{self.mean_live:.1f}"
        except MetricsUnavailable:
            mean = "?"
        text = (
            f"{self.machine}: {'ok' if self.completed else 'DEADLOCK'} "
            f"cycles={self.cycles} instrs={self.instructions} "
            f"ipc={self.mean_ipc:.2f} peak_live={peak} "
            f"mean_live={mean}"
        )
        cache = self.extra.get("cache") if self.extra else None
        if cache and cache.get("levels"):
            l1 = cache["levels"][0]
            text += (f" {l1['name']}_hit={l1['hit_rate']:.1%}"
                     f" {l1['name']}_mpki={l1['mpki']:.1f}")
        return text


class MetricsRecorder:
    """Incremental per-cycle sampler used by the engines.

    ``ipc_trace``/``live_trace`` are :class:`RLETrace` buffers. The
    datapar engine samples through :meth:`sample` and
    :meth:`sample_idle`. The tagged, queued and window cycle loops
    hand off instead: they take the counters and the traces' run
    arrays into locals (:meth:`counters`), append to the run arrays
    inline, and write the counters back (:meth:`commit`) before a
    batched stall, before a deadlock diagnosis and when they exit.
    """

    def __init__(self, sample_traces: bool = True):
        self.sample_traces = sample_traces
        self.ipc_trace = RLETrace()
        self.live_trace = RLETrace()
        self.instructions = 0
        self.cycles = 0
        self._peak_live = 0
        self._live_sum = 0

    def sample(self, fired: int, live: int) -> None:
        self.cycles += 1
        self.instructions += fired
        if live > self._peak_live:
            self._peak_live = live
        self._live_sum += live
        if self.sample_traces:
            self.ipc_trace.append(fired)
            self.live_trace.append(live)

    def sample_idle(self, live: int, n_cycles: int) -> None:
        """Record ``n_cycles`` stalled cycles (nothing fired) at once.

        Exactly equivalent to ``n_cycles`` calls of ``sample(0, live)``
        -- the engines use it to fast-forward memory stalls without
        paying one Python iteration per idle cycle.  With RLE storage
        this is O(1) regardless of ``n_cycles``.
        """
        if n_cycles <= 0:
            return
        self.cycles += n_cycles
        if live > self._peak_live:
            self._peak_live = live
        self._live_sum += live * n_cycles
        if self.sample_traces:
            self.ipc_trace.append_run(0, n_cycles)
            self.live_trace.append_run(live, n_cycles)

    def counters(self) -> Tuple[int, int, int, int,
                                array, array, array, array]:
        """A cycle loop's locals: ``(cycles, instructions, peak_live,
        live_sum, ipc_values, ipc_counts, live_values, live_counts)``.
        The four arrays are the traces' own runs: the loop appends
        to them in place, without touching the traces' lengths."""
        ipc, live = self.ipc_trace, self.live_trace
        return (self.cycles, self.instructions, self._peak_live,
                self._live_sum, ipc._values, ipc._counts,
                live._values, live._counts)

    def commit(self, cycles: int, instructions: int, peak_live: int,
               live_sum: int) -> None:
        """Write a cycle loop's counters back. A sampled cycle adds
        one sample to each trace, so both traces are ``cycles``
        long."""
        self.cycles = cycles
        self.instructions = instructions
        self._peak_live = peak_live
        self._live_sum = live_sum
        if self.sample_traces:
            self.ipc_trace._length = cycles
            self.live_trace._length = cycles

    def result(self, machine: str, completed: bool,
               results: Tuple[object, ...],
               extra: Optional[Dict[str, object]] = None
               ) -> ExecutionResult:
        res = ExecutionResult(
            machine=machine,
            completed=completed,
            cycles=self.cycles,
            instructions=self.instructions,
            results=results,
            ipc_trace=self.ipc_trace,
            live_trace=self.live_trace,
            extra=dict(extra or {}),
        )
        if not self.sample_traces:
            # peak/mean still available through extra fields
            res.extra.setdefault("peak_live", self._peak_live)
            res.extra.setdefault(
                "mean_live",
                self._live_sum / self.cycles if self.cycles else 0.0,
            )
        return res

    @property
    def peak_live(self) -> int:
        return self._peak_live

    @property
    def mean_live(self) -> float:
        return self._live_sum / self.cycles if self.cycles else 0.0
