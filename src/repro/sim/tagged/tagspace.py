"""Tag pools and allocation policies (the paper's central knob).

A :class:`TagPool` hands out tags for one or more tag spaces. The
*allocation rule* is what differentiates architectures:

* **Greedy** pools pop whenever a tag is free. This is what prior
  architectures do; with an unbounded pool it is naive unordered
  dataflow, with a bounded pool it deadlocks (paper Fig. 11, Sec. V).
* **Gated** pools implement TYR's ``allocate`` semantics (paper
  Sec. IV-A): a *ready* context pops whenever more than ``reserve``
  tags are free (never dipping into the reserve); a context that is
  not yet ready pops only *speculatively*, and a speculative pop must
  leave at least **two** tags free. ``reserve`` is 0 for ordinary
  allocates and 1 for *external* allocates into tail-recursive blocks
  (the spare-tag rule of Lemma 2).

Why speculation must leave two tags, not one: several sibling regions
can compete for one parent's pool. A chain of speculative pops (loop
control racing ahead of serially carried data) that leaves only one
tag free starves every *external* allocate into that loop block --
even a ready one needs ``reserve + 1 = 2`` free tags (take one, keep
the spare) -- while the speculative holders wait on data that
transitively depends on those starved externals: deadlock. Leaving
two tags keeps the strongest gated claim (a ready spare external)
satisfiable at all times, which restores Theorem 2. See
docs/ARCHITECTURE.md section 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError


class TagPool:
    """A free list of tags for one tag space (or a shared global one).

    ``honor_ready`` / ``honor_spare`` exist for ablation studies: they
    disable TYR's ready-gating (Lemma 1) or spare-tag (Lemma 2) rule
    individually, which reintroduces deadlocks -- evidence that both
    rules are load-bearing.
    """

    def __init__(self, name: str, capacity: Optional[int],
                 gated: bool, honor_ready: bool = True,
                 honor_spare: bool = True):
        if capacity is not None and capacity < 1:
            raise SimulationError(
                f"tag pool {name!r} needs at least one tag"
            )
        self.name = name
        self.capacity = capacity  # None = unbounded
        self.gated = gated
        self.honor_ready = honor_ready
        self.honor_spare = honor_spare
        self._free: List[int] = (
            list(range(capacity - 1, -1, -1)) if capacity is not None
            else []
        )
        self._free_set = set(self._free)
        self._next = 0  # for unbounded pools
        self.in_use = 0
        self.peak_in_use = 0
        self.total_allocations = 0
        #: tag -> (allocating node id, parent tag) for tags currently
        #: in use (bounded pools only; maintained by the engine at pop
        #: time and cleared by :meth:`push`). The deadlock analyzer
        #: reads this to reconstruct the wait-for graph.
        self.holders: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    @property
    def free_count(self) -> int:
        if self.capacity is None:
            return 1 << 60
        return len(self._free)

    def tags_needed(self, ready: bool, spare: bool) -> int:
        """Free tags the allocation rule demands before a pop.

        A ready pop needs ``reserve + 1`` free tags (take one, never
        dip into the reserve). A speculative (not-ready) pop needs 3:
        it must leave two tags free so the strongest gated claim --
        a *ready external* allocate into a loop block, which needs
        ``reserve + 1 = 2`` -- stays satisfiable no matter how far
        speculation runs ahead. Leaving only one (the old rule)
        let sibling regions mutually starve under one parent's pool.

        The deadlock analyzer calls this too, so the gate arithmetic
        reported in a diagnosis is the arithmetic actually enforced.
        """
        if self.capacity is None:
            return 0
        if not self.gated:
            return 1
        reserve = 1 if (spare and self.honor_spare) else 0
        if not self.honor_ready:
            ready = True
        return (reserve + 1) if ready else 3

    def can_pop(self, ready: bool, spare: bool) -> bool:
        """May an allocate pop right now?

        ``ready``: the context's ready join has fired. ``spare``: this
        is an external allocate into a tail-recursive block (one tag
        must remain in reserve for the backedge). See
        :meth:`tags_needed` for the gate arithmetic.
        """
        if self.capacity is None:
            return True
        return len(self._free) >= self.tags_needed(ready, spare)

    def pop(self) -> int:
        self.total_allocations += 1
        self.in_use += 1
        if self.in_use > self.peak_in_use:
            self.peak_in_use = self.in_use
        if self.capacity is None:
            tag = self._next
            self._next += 1
            return tag
        if not self._free:
            raise SimulationError(f"tag pool {self.name!r} exhausted")
        tag = self._free.pop()
        self._free_set.discard(tag)
        return tag

    def push(self, tag: int) -> None:
        self.holders.pop(tag, None)
        self.in_use -= 1
        if self.in_use < 0:
            raise SimulationError(
                f"tag pool {self.name!r}: double free of tag {tag}"
            )
        if self.capacity is not None:
            if tag in self._free_set or not 0 <= tag < self.capacity:
                raise SimulationError(
                    f"tag pool {self.name!r}: bad free of tag {tag}"
                )
            self._free.append(tag)
            self._free_set.add(tag)


@dataclass
class PoolStats:
    name: str
    capacity: Optional[int]
    peak_in_use: int
    total_allocations: int


class TagPolicy:
    """Base class: maps tag spaces (block names) to pools."""

    name = "abstract"

    def build_pools(self, blocks: List[str],
                    overrides: Dict[str, Optional[int]]
                    ) -> Dict[str, TagPool]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class _PerBlockPolicy(TagPolicy):
    """One pool per block, with the flags a subclass names.

    Its one :meth:`build_pools` sizes every per-block policy's pools,
    so their precedence and validation cannot drift apart.
    """

    #: Every pool's gate flags: :class:`TagPool`'s keyword arguments.
    _pool_flags: Dict[str, bool]

    def __init__(self, tags_per_block: int,
                 overrides: Optional[Dict[str, int]]):
        self.tags_per_block = tags_per_block
        self.user_overrides = dict(overrides or {})

    def build_pools(self, blocks, overrides):
        """Size each block's pool: user > program > policy default.

        The checks are explicit ``None`` comparisons -- a falsy
        override (0) is an error to report, not a request for the
        default.
        """
        pools = {}
        for b in blocks:
            size = self.user_overrides.get(b)
            if size is None:
                size = overrides.get(b)
            if size is None:
                size = self.tags_per_block
            if size < 2:
                raise SimulationError(
                    f"{self.name} needs >= 2 tags per block; "
                    f"{b!r} has {size}"
                )
            pools[b] = TagPool(b, size, **self._pool_flags)
        return pools


class UnboundedGlobalPolicy(TagPolicy):
    """Naive unordered dataflow: one unbounded global tag space."""

    name = "unordered"

    def build_pools(self, blocks, overrides):
        pool = TagPool("<global>", None, gated=False)
        return {b: pool for b in blocks}


class BoundedGlobalPolicy(TagPolicy):
    """A bounded global tag space with greedy allocation.

    This is the "obvious" way to throttle a tagged dataflow machine and
    it deadlocks (paper Fig. 11): nothing stops dependent work from
    claiming the last tag.
    """

    name = "unordered-bounded"

    def __init__(self, total_tags: int):
        self.total_tags = total_tags

    def build_pools(self, blocks, overrides):
        pool = TagPool("<global>", self.total_tags, gated=False)
        return {b: pool for b in blocks}

    def describe(self) -> str:
        return f"{self.name}(T={self.total_tags})"


class TyrPolicy(_PerBlockPolicy):
    """TYR: one gated local tag space per concurrent block.

    ``tags_per_block`` is the default size; per-block overrides come
    from the program (loop ``tags=`` annotations, paper Fig. 18) or the
    ``overrides`` argument (block name -> size).
    """

    name = "tyr"
    _pool_flags = {"gated": True}

    def __init__(self, tags_per_block: int = 64,
                 overrides: Optional[Dict[str, int]] = None):
        if tags_per_block < 2:
            raise SimulationError(
                "TYR needs at least two tags per concurrent block "
                "(paper Sec. III)"
            )
        super().__init__(tags_per_block, overrides)

    def describe(self) -> str:
        return f"{self.name}(t={self.tags_per_block})"


class AblatedTyrPolicy(TyrPolicy):
    """TYR with one of its allocation rules disabled (ablation only).

    ``drop="ready"`` removes the "pop the last tag only for a ready
    context" rule (Lemma 1); ``drop="spare"`` removes the tail-
    recursion reserve (Lemma 2). Either ablation can deadlock, which
    is the point: the test suite uses this policy to show both rules
    are necessary, not incidental.
    """

    def __init__(self, tags_per_block: int = 2, drop: str = "spare",
                 overrides: Optional[Dict[str, int]] = None):
        super().__init__(tags_per_block, overrides)
        if drop not in ("ready", "spare"):
            raise SimulationError("drop must be 'ready' or 'spare'")
        self.drop = drop
        self.name = f"tyr-no{drop}"
        self._pool_flags = {"gated": True,
                            "honor_ready": drop != "ready",
                            "honor_spare": drop != "spare"}


class KBoundedPolicy(_PerBlockPolicy):
    """TTDA-style k-bounding: per-block pools, *greedy* allocation.

    Effective for simple (affine innermost) loops but deadlock-prone on
    general structures -- the paper's Sec. VIII-A discussion baseline.
    """

    name = "kbounded"
    _pool_flags = {"gated": False}

    def __init__(self, tags_per_block: int = 64,
                 overrides: Optional[Dict[str, int]] = None):
        if tags_per_block < 2:
            raise SimulationError(
                "k-bounding needs at least two tags per block"
            )
        super().__init__(tags_per_block, overrides)

    def describe(self) -> str:
        return f"{self.name}(k={self.tags_per_block})"
