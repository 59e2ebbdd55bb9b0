"""On-disk cache for simulation results.

A cache entry is one :class:`~repro.sim.metrics.ExecutionResult`
under the key :func:`repro.harness.pool.cache_key` gives its run, a
SHA-256 over:

* the ``repro`` package's source (every ``.py`` file's relative path
  and bytes, :func:`repro.harness.pool.source_digest`);
* the workload's name, scale, seed and builder parameters -- not its
  printed program or memory image: a builder is a deterministic
  function of those and of the hashed source;
* the machine name and whether the run was oracle-checked;
* the effective run kwargs: ``CompiledWorkload.run``'s defaults
  overlaid by the given ones, in
  :func:`~repro.harness.pool.canonical_config` form, with the
  ``cache`` spec canonical and ``codegen`` dropped (both fire tables
  give bit-identical results).

Nothing is bumped by hand: a source edit addresses fresh keys, so no
result outlives the code that produced it, and the older entries are
never read again (``tyr-repro cache gc --max-age`` prunes them).

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

import os
import pickle
import tempfile
import time
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Optional

from repro.sim.metrics import ExecutionResult

DEFAULT_ROOT = ".repro-cache"


class ResultCache:
    """Store of pickled :class:`ExecutionResult` by key, sharded by
    key prefix and written atomically."""

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
        that; ``max_size`` (bytes) then keeps the newest entries that
        fit the budget together and deletes the first that does not
        and every older one, so no entry outlives a newer one. Walks
        every ``*.pkl`` under the root recursively, so the ``plans/``
        tree that earlier versions stored lowered programs in
        (nothing reads it now) ages out by the same command. Entries
        that vanish mid-walk (a concurrent sweep or gc) are skipped,
        never an error. Returns ``{"kept", "removed", "kept_bytes",
        "removed_bytes"}``.
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
            fits = bisect_right(list(accumulate(e[1] for e in entries)),
                                int(max_size))
            doomed.extend(entries[fits:])
            entries = entries[:fits]

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
