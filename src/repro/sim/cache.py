"""Stateful set-associative cache hierarchy for the memory model.

The paper's titular claim -- TYR *improves locality* by bounding live
state -- is unmeasurable under :func:`repro.sim.latency.load_delay`,
which hashes ``(array, index)`` statelessly: latency is independent of
access history, so no machine can ever exhibit reuse. This module
models memory behaviour as first-class simulator state instead:

* :class:`CacheConfig` -- an immutable description of the hierarchy
  (line size in words, per-level sets/ways/hit-latency, miss latency),
  parsed from a compact spec string like ``"line=8,miss=100,l1=64x4x1"``
  whose canonical form doubles as the sweep-cache key component;
* :class:`CacheModel` -- the per-run mutable state: one LRU
  set-associative directory per level over the flat address space laid
  out by :meth:`repro.sim.memory.Memory.base_of`, probed by every
  engine's load (and store) path when ``cache=`` is configured.

``access_load`` returns the access latency in cycles, which feeds the
exact same delayed-delivery machinery the engines use for
``load_latency`` (delay <= 1 takes the immediate path, larger delays
the in-flight buckets/queues): the model is the engine's timing
object, in the place :class:`~repro.sim.latency.LoadLatency` (the
same interface) takes without it, so the cache mode adds no new stall
semantics -- only state. Stores probe and update the directories (write
allocate) for hit/miss accounting but stay single-cycle, modelling an
ideal store buffer.

The model is a pure deterministic function of the access sequence:
interpreters and generated plan kernels replay the same sequence, so
their hit/miss counters are bit-identical (pinned by the differential
suite). ``cache=`` is mutually exclusive with ``load_latency > 1``,
and with ``cache=None`` (the default) nothing here is ever imported
into an engine's hot path -- the 142 golden records stay untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError


@dataclass(frozen=True)
class CacheLevel:
    """Geometry of one cache level."""

    name: str
    sets: int
    ways: int
    hit_latency: int

    @property
    def lines(self) -> int:
        return self.sets * self.ways

    def spec(self) -> str:
        return f"{self.name}={self.sets}x{self.ways}x{self.hit_latency}"


def _power_of_two(n: object) -> bool:
    return isinstance(n, int) and n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Immutable cache-hierarchy description.

    ``line`` is the line size in *words* (the address space is word
    addressed) and must be a power of two; ``miss_latency`` is the
    cost of missing every level and must exceed every level's
    ``hit_latency`` -- that strict gap is what lets the profiler
    classify a delay equal to ``miss_latency`` as a genuine miss.
    Levels are probed in declaration order (closest first).
    """

    line: int
    miss_latency: int
    levels: Tuple[CacheLevel, ...]

    def __post_init__(self):
        if not _power_of_two(self.line):
            raise SimulationError(
                f"cache line must be a power-of-two word count, "
                f"got {self.line!r}")
        if not self.levels:
            raise SimulationError(
                "cache config needs at least one level "
                "(e.g. 'l1=64x4x1')")
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise SimulationError(
                f"duplicate cache level names: {names}")
        prev = 0
        for lvl in self.levels:
            if lvl.sets < 1 or lvl.ways < 1:
                raise SimulationError(
                    f"cache level {lvl.name!r} needs sets >= 1 and "
                    f"ways >= 1, got {lvl.sets}x{lvl.ways}")
            if lvl.hit_latency < 1:
                raise SimulationError(
                    f"cache level {lvl.name!r} hit latency must be "
                    f">= 1, got {lvl.hit_latency}")
            if lvl.hit_latency < prev:
                raise SimulationError(
                    f"cache level {lvl.name!r} hit latency "
                    f"{lvl.hit_latency} below the previous level's "
                    f"{prev}; levels are declared closest-first")
            prev = lvl.hit_latency
        if not isinstance(self.miss_latency, int) \
                or self.miss_latency <= prev:
            raise SimulationError(
                f"miss latency must be an int above every level's hit "
                f"latency ({prev}), got {self.miss_latency!r}")

    @property
    def line_shift(self) -> int:
        return self.line.bit_length() - 1

    def spec(self) -> str:
        """Canonical spec string (parses back to an equal config)."""
        parts = [f"line={self.line}", f"miss={self.miss_latency}"]
        parts += [lvl.spec() for lvl in self.levels]
        return ",".join(parts)

    @staticmethod
    def parse(spec: str) -> "CacheConfig":
        """Parse ``"line=8,miss=100,l1=64x4x1[,l2=...]"``.

        ``line`` defaults to 8 words and ``miss`` to 100 cycles when
        omitted; every other ``key=SETSxWAYSxHIT`` entry declares one
        level, closest first.
        """
        line, miss = 8, 100
        levels: List[CacheLevel] = []
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SimulationError(
                    f"bad cache spec entry {part!r} in {spec!r} "
                    f"(want key=value)")
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "line":
                    line = int(value)
                elif key == "miss":
                    miss = int(value)
                else:
                    geom = [int(v) for v in value.split("x")]
                    if len(geom) != 3:
                        raise ValueError(value)
                    levels.append(CacheLevel(key, *geom))
            except ValueError:
                raise SimulationError(
                    f"bad cache spec entry {part!r} in {spec!r} "
                    f"(levels are key=SETSxWAYSxHIT)") from None
        return CacheConfig(line, miss, tuple(levels))

    @staticmethod
    def coerce(value: object) -> Optional["CacheConfig"]:
        """Normalize a run kwarg into a config (or None).

        Accepts ``None``, an existing :class:`CacheConfig`, a spec
        string, or the dict form ``{"line": 8, "miss": 100,
        "l1": "64x4x1", ...}`` (levels nearest first, as in a spec
        string).
        """
        if value is None:
            return None
        if isinstance(value, CacheConfig):
            return value
        if isinstance(value, str):
            return CacheConfig.parse(value)
        if isinstance(value, dict):
            return CacheConfig.parse(
                ",".join(f"{k}={v}" for k, v in value.items()))
        raise SimulationError(
            f"cannot interpret cache configuration {value!r}; want a "
            f"spec string like 'line=8,miss=100,l1=64x4x1'")


class CacheModel:
    """Per-run mutable cache state over one :class:`Memory` image.

    Each level keeps one insertion-ordered dict per set as its LRU
    directory (oldest first; a hit re-inserts at the end, a fill past
    capacity evicts the front). A hit at level *i* fills the line into
    every closer level; a full miss fills every level and costs
    ``miss_latency``. Counters are split by loads vs stores per level.
    """

    __slots__ = ("config", "memory", "_shift", "_sets", "_masks",
                 "_ways", "_latencies", "miss_latency",
                 "load_hits", "load_misses", "store_hits",
                 "store_misses")

    def __init__(self, config: CacheConfig, memory) -> None:
        self.config = config
        self.memory = memory
        self._shift = config.line_shift
        self.miss_latency = config.miss_latency
        self._sets: List[List[Dict[int, None]]] = [
            [dict() for _ in range(lvl.sets)] for lvl in config.levels]
        self._masks = [lvl.sets - 1 if _power_of_two(lvl.sets) else 0
                       for lvl in config.levels]
        self._ways = [lvl.ways for lvl in config.levels]
        self._latencies = [lvl.hit_latency for lvl in config.levels]
        self.load_hits = [0] * len(config.levels)
        self.load_misses = [0] * len(config.levels)
        self.store_hits = [0] * len(config.levels)
        self.store_misses = [0] * len(config.levels)

    def _probe(self, array: str, index: int, hits: List[int],
               misses: List[int]) -> int:
        """Probe the hierarchy for one access; returns its latency."""
        line = (self.memory.base_of(array) + index) >> self._shift
        sets = self._sets
        for i in range(len(sets)):
            mask = self._masks[i]
            way = sets[i][line & mask if mask else line % len(sets[i])]
            if line in way:
                hits[i] += 1
                # LRU touch: re-insert at the MRU end.
                del way[line]
                way[line] = None
                self._fill(line, i)
                return self._latencies[i]
            misses[i] += 1
        self._fill(line, len(sets))
        return self.miss_latency

    def _fill(self, line: int, upto: int) -> None:
        """Install ``line`` into every level closer than ``upto``."""
        for j in range(upto):
            mask = self._masks[j]
            way = self._sets[j][line & mask if mask
                                else line % len(self._sets[j])]
            if line in way:
                del way[line]
            elif len(way) >= self._ways[j]:
                way.pop(next(iter(way)))
            way[line] = None

    def access_load(self, array: str, index: int) -> int:
        """Latency of one load (feeds the engines' delay machinery)."""
        return self._probe(array, index, self.load_hits,
                           self.load_misses)

    def access_store(self, array: str, index: int) -> None:
        """Probe/update for one store (write allocate, single-cycle)."""
        self._probe(array, index, self.store_hits, self.store_misses)

    def stats(self, instructions: int = 0) -> Dict[str, object]:
        """The ``ExecutionResult.extra["cache"]`` payload.

        Per level: load/store access and hit counts, ``hit_rate`` over
        all accesses that reached the level, and ``mpki`` (load misses
        per thousand executed instructions, the usual figure of
        merit). Fully JSON-serializable.
        """
        levels = []
        for i, lvl in enumerate(self.config.levels):
            loads = self.load_hits[i] + self.load_misses[i]
            stores = self.store_hits[i] + self.store_misses[i]
            accesses = loads + stores
            hits = self.load_hits[i] + self.store_hits[i]
            levels.append({
                "name": lvl.name,
                "geometry": f"{lvl.sets}x{lvl.ways}x{lvl.hit_latency}",
                "loads": loads,
                "load_hits": self.load_hits[i],
                "stores": stores,
                "store_hits": self.store_hits[i],
                "hit_rate": (hits / accesses) if accesses else 0.0,
                "mpki": (1000.0 * self.load_misses[i] / instructions)
                        if instructions else 0.0,
            })
        return {
            "spec": self.config.spec(),
            "line_words": self.config.line,
            "miss_latency": self.miss_latency,
            "levels": levels,
        }
