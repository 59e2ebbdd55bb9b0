"""Unpredictable memory-latency modeling.

The paper's evaluation uses single-cycle instructions, but its
*argument* for unordered dataflow rests on irregular workloads having
"unpredictable latency" that stalls ordered pipelines (Sec. II-C).
The engines accept a ``load_latency`` knob: 1 keeps the paper's
idealized timing; L > 1 gives every load a deterministic
pseudo-random latency in [1, L] (a cache-hit/miss mix keyed by the
accessed address), letting the harness measure how each token-
synchronization scheme tolerates memory variance.

:class:`LoadLatency` puts the hash behind the interface of the cache
model (:class:`~repro.sim.cache.CacheModel`), so every engine and its
timed kernels time a load one way, whichever model the run uses.
"""

from __future__ import annotations

import sys
import zlib
from functools import partial

#: Array name -> stable 32-bit hash. Python's ``hash(str)`` is
#: randomized per process (PYTHONHASHSEED), which made latency>1 runs
#: unreproducible across processes; crc32 keeps the same hit/miss mix
#: everywhere and lets golden metrics pin variable-latency runs.
_ARRAY_HASH: dict = {}

#: The memo is keyed by arbitrary program array names, so a
#: long-lived sweep process over many generated programs could grow
#: it without bound; real programs use a handful of arrays, so the
#: bound only trips on pathological name churn (then crc32 is simply
#: recomputed).
_ARRAY_HASH_LIMIT = 4096


def _array_hash(array: str) -> int:
    h = _ARRAY_HASH.get(array)
    if h is None:
        if len(_ARRAY_HASH) >= _ARRAY_HASH_LIMIT:
            # Evict a single entry, not the whole memo: wiping all
            # 4096 thrashed the hot arrays every time generated-name
            # churn tripped the bound.
            _ARRAY_HASH.popitem()
        h = _ARRAY_HASH[array] = zlib.crc32(array.encode("utf-8"))
    return h


def load_delay(load_latency: int, array: str, index: int) -> int:
    """Latency of one load, deterministic in (array, index).

    Returns 1 when ``load_latency <= 1`` (the paper's idealized
    model); otherwise a pseudo-random value in [1, load_latency],
    skewed so roughly half the accesses are fast (cache-hit-like).
    The value is stable across host processes (no builtin ``hash``).
    """
    if load_latency <= 1:
        return 1
    h = (_array_hash(array) * 1000003 + index * 2654435761) & 0xFFFFFFFF
    h ^= h >> 15
    if h & 1:
        return 1  # hit
    return 2 + (h >> 8) % (load_latency - 1)


class LoadLatency:
    """:func:`load_delay` at one ``load_latency``, with the cache
    model's interface: ``access_load`` is the hash, ``access_store``
    probes nothing (stores stay single-cycle), and no load is a miss,
    so ``miss_latency`` is above every delay and no load moves the
    miss box."""

    __slots__ = ("access_load",)

    miss_latency = sys.maxsize

    def __init__(self, load_latency: int) -> None:
        self.access_load = partial(load_delay, load_latency)

    def access_store(self, array: str, index: int) -> None:
        pass
