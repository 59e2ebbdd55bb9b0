"""Content-addressed on-disk cache for simulation results.

A cache entry is one :class:`~repro.sim.metrics.ExecutionResult`,
keyed by everything that determines it:

* the *content* of the compiled program (a SHA-256 of its printed IR,
  :func:`repro.ir.printer.format_program`) -- not the workload name,
  so an unrelated edit that leaves the lowered program unchanged still
  hits;
* the initial memory image and padded entry arguments;
* the machine name and the canonicalized run configuration (tags,
  issue width, load latency, ... -- see
  :func:`repro.harness.pool.canonical_config`), including whether the
  run was oracle-checked;
* a ``CACHE_VERSION`` that must be bumped whenever engines change
  simulated behavior (golden-metrics changes) or the result format.

Entries are pickled to ``<root>/<key[:2]>/<key>.pkl`` and written
atomically (temp file + :func:`os.replace`), so concurrent pool
workers and parallel test runs can share one cache directory without
locking: the worst case is two processes computing the same entry and
one overwrite winning.

The default root is ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in the
working directory. A corrupt or unreadable entry is treated as a miss.
Lowered programs are never stored: building them costs a few
milliseconds per process, about what reading them back would.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.metrics import ExecutionResult

#: Bump when a change legitimately alters simulated metrics (i.e. the
#: golden-metrics file is regenerated) or the pickled entry format.
#: v2: traces are run-length encoded (PR 3).
#: v3: results may carry stall-attribution profiles in ``extra``.
#: v4: results may carry cache-hierarchy statistics in ``extra`` and
#: profiles a memory_stall hit/miss split.
#: v5: gated allocation leaves two free tags on speculative pops
#: (multi-sibling starvation fix), shifting tyr schedules/metrics.
CACHE_VERSION = 5

DEFAULT_ROOT = ".repro-cache"


def result_key(fingerprint: str,
               initial_memory: Dict[str, Sequence],
               entry_args: Sequence[object],
               machine: str,
               config: Tuple[Tuple[str, object], ...],
               check: bool) -> str:
    """SHA-256 cache key over everything that determines a result."""
    text = repr((
        CACHE_VERSION,
        fingerprint,
        sorted((name, tuple(values))
               for name, values in initial_memory.items()),
        tuple(entry_args),
        machine,
        config,
        check,
    ))
    return hashlib.sha256(text.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of pickled :class:`ExecutionResult`,
    sharded by key prefix and written atomically."""

    def __init__(self, root: Optional[str] = None):
        self.root = (root or os.environ.get("REPRO_CACHE_DIR")
                     or DEFAULT_ROOT)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key: str) -> Optional[ExecutionResult]:
        """The cached result for ``key``, or None (counted as a miss)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError, ValueError,
                AttributeError, ImportError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Touch on hit: entry mtime approximates last *use*, so
            # ``gc``'s LRU eviction spares what sweeps actually read.
            os.utime(path)
        except OSError:
            pass
        return obj

    def put(self, key: str, obj: ExecutionResult) -> None:
        """Store ``obj`` atomically (temp file + rename)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(obj, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def gc(self, max_size: Optional[int] = None,
           max_age: Optional[float] = None) -> Dict[str, int]:
        """Prune entries, LRU by mtime (:meth:`get` touches on hit).

        ``max_age`` (seconds) first removes every entry older than
        that; ``max_size`` (bytes) then deletes oldest-first until the
        surviving entries fit the budget. Walks every ``*.pkl`` under
        the root recursively, so the ``plans/`` tree that earlier
        versions stored lowered programs in (nothing reads it now)
        ages out by the same command. Entries that vanish mid-walk (a
        concurrent sweep or gc) are skipped, never an error. Returns
        ``{"kept", "removed", "kept_bytes", "removed_bytes"}``.
        """
        entries = []  # (mtime, size, path)
        for dirpath, _, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                entries.append((st.st_mtime, st.st_size, path))

        doomed = []
        if max_age is not None:
            cutoff = time.time() - max_age
            doomed.extend(e for e in entries if e[0] < cutoff)
            entries = [e for e in entries if e[0] >= cutoff]
        if max_size is not None:
            entries.sort(reverse=True)  # newest first
            budget = int(max_size)
            kept = []
            for entry in entries:
                if budget - entry[1] >= 0:
                    budget -= entry[1]
                    kept.append(entry)
                else:
                    doomed.append(entry)
            entries = kept

        removed = removed_bytes = 0
        for _, size, path in doomed:
            try:
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            removed_bytes += size
        return {
            "kept": len(entries),
            "removed": removed,
            "kept_bytes": sum(size for _, size, _ in entries),
            "removed_bytes": removed_bytes,
        }

    def stats(self) -> str:
        return (f"cache: {self.hits} hit(s), {self.misses} miss(es) "
                f"at {self.root}")
