"""Structured observability for sweep executions.

Two small, dependency-free surfaces that
:func:`repro.harness.pool.run_specs` layers over a sweep:

* :class:`RunLog` -- a JSON-lines log with one event per spec
  transition.  Every record is one JSON object per line with at least
  ``{"event": <name>, "t": <unix seconds>}``; the events and their
  extra fields are:

  ==============  ====================================================
  ``queued``      ``index``, ``spec`` -- a cache miss was queued for
                  dispatch
  ``cache-hit``   ``index``, ``spec``, ``key`` -- resolved from the
                  result cache without running
  ``started``     ``index``, ``spec``, ``worker`` (pid), ``attempt``
  ``finished``    ``index``, ``spec``, ``worker``, ``ok``,
                  ``wall_s``; failed runs add ``error`` (exception
                  class name) and ``tolerated``
  ``profile``     ``index``, ``spec``, ``cycles``, ``instructions``,
                  ``stall_cycles``, ``top_nodes`` -- the run carried a
                  stall-attribution profile (``profile=True`` specs);
                  follows that spec's ``finished`` event
  ``cache``       ``index``, ``spec``, ``cache_spec``, ``levels``
                  (per level ``[name, loads, load_hits, stores,
                  store_hits, hit_rate, mpki]``) -- the run simulated
                  the cache-hierarchy memory model (``cache=`` specs);
                  follows that spec's ``finished`` event
  ``deadlock``    ``index``, ``spec``, ``cycle``, ``live_tokens``,
                  ``violated_rule``, ``culprits``, ``wait_cycle``,
                  ``pending``, ``pool_occupancy`` -- a tolerated
                  :class:`~repro.errors.DeadlockError` carried a
                  wait-for-graph diagnosis (the analyzer's verdict);
                  follows that spec's ``finished`` event
  ``retried``     ``index``, ``spec``, ``worker``, ``exitcode``,
                  ``attempt`` -- the worker died and the spec was
                  redispatched to a fresh worker
  ``timed-out``   ``index``, ``spec``, ``worker``, ``wall_s``,
                  ``timeout_s`` -- the run exceeded its wall-clock
                  budget and its worker was terminated
  ``interrupted``  ``finished``, ``total`` -- the sweep was cut short
                  (Ctrl-C or a fatal failure); already-finished
                  results were cached incrementally
  ==============  ====================================================

  The file is opened in append mode and flushed per event, so an
  interrupted sweep leaves a complete prefix and a resumed sweep
  appends to the same history.

* :class:`ProgressLine` -- a live ``done/total`` line on stderr with
  the cache-hit rate and an ETA extrapolated from the observed
  per-run wall time.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List, Optional, TextIO


class RunLog:
    """Append-mode JSON-lines event log (one object per line).

    Accepts a filesystem path (opened in append mode and closed by
    :meth:`close`) or any open text stream (left open). Values that
    are not JSON-serializable are stringified rather than dropped.
    """

    def __init__(self, path_or_stream):
        if hasattr(path_or_stream, "write"):
            self._fh: TextIO = path_or_stream
            self._owns = False
        else:
            self._fh = open(path_or_stream, "a")
            self._owns = True

    def event(self, event: str, **fields) -> None:
        record = {"event": event, "t": round(time.time(), 6)}
        record.update(fields)
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")
        self._fh.flush()

    def close(self) -> None:
        if self._owns:
            self._fh.close()


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


class ProgressLine:
    """Live one-line sweep progress (``\\r``-rewritten on stderr).

    Shows ``done/total``, the cache-hit rate so far, and an ETA based
    on elapsed wall time per *simulated* (non-cache-hit) run -- cache
    hits are effectively free, so they are excluded from the rate the
    ETA extrapolates.
    """

    def __init__(self, total: int, enabled: bool = True,
                 stream: Optional[TextIO] = None):
        self.total = total
        self.done = 0
        self.hits = 0
        self._stream = stream if stream is not None else sys.stderr
        self._enabled = enabled and total > 0
        self._t0 = time.monotonic()
        self._width = 0

    def cache_hit(self) -> None:
        self.done += 1
        self.hits += 1
        self._render()

    def finished(self) -> None:
        self.done += 1
        self._render()

    def _render(self) -> None:
        if not self._enabled:
            return
        parts: List[str] = [f"{self.done}/{self.total} specs"]
        if self.done:
            parts.append(f"{100.0 * self.hits / self.done:.0f}% cached")
        ran = self.done - self.hits
        remaining = self.total - self.done
        if ran and remaining:
            rate = (time.monotonic() - self._t0) / ran
            parts.append(f"eta {_fmt_eta(rate * remaining)}")
        line = " | ".join(parts)
        self._width = max(self._width, len(line))
        self._stream.write("\r" + line.ljust(self._width))
        self._stream.flush()

    def close(self) -> None:
        if self._enabled and self.done:
            self._stream.write("\n")
            self._stream.flush()
        self._enabled = False
