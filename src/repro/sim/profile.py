"""Stall-attribution profiling shared by all engine families.

The paper's argument is about *where cycles go*: TYR trades peak
parallelism (tag-starved allocates, bounded live state) for locality,
and Figs. 14/16 only make sense when stalled cycles can be attributed
to a cause. With ``profile=True`` every engine drives one
:class:`EngineProfiler` from its cycle loop and attaches the finished
:class:`RunProfile` to ``ExecutionResult.extra["profile"]``.

Two attributions are recorded:

* **per-static-node hotspots** -- how many times each static node
  fired (summing exactly to ``instructions``) and how many cycles are
  attributed to it (each busy cycle is split evenly across the nodes
  that fired in it, so attributed cycles sum to the busy-cycle count);
* **a per-cycle stall taxonomy** -- every simulated cycle is assigned
  exactly one reason from :data:`STALL_REASONS`, so the per-reason
  counts sum exactly to ``cycles`` (the conservation invariant
  :meth:`RunProfile.validate` enforces).

The taxonomy, in attribution priority order for zero-fired cycles:

``fired``
    At least one instruction issued and the issue width was not the
    limiter.
``width_limited``
    Instructions issued, but ready work was left over after the issue
    budget ran out. (On the queued machine this is an approximation: a
    budget-skipped candidate is re-checked next cycle and may turn out
    not to be fireable.)
``tag_starved``
    Nothing fired because every schedulable event was an ``allocate``
    blocked on an exhausted tag pool (the paper's taming mechanism).
``memory_stall``
    Nothing fired and loads were in flight (``load_latency > 1``).
``waiting_operands``
    Nothing fired but tokens were live -- operands still in flight
    toward their consumers (includes pure fetch/retire-progress cycles
    on window machines).
``idle``
    Nothing fired and no tokens were live (drain/control-only cycles).

Profiling is strictly opt-in. The tagged, queued and window engines
each have one cycle loop, shared by kernel and interpreted runs, that
checks for a profiler at run time: it notes each firing's node in
:attr:`EngineProfiler.noted` and closes each cycle through one of the
profiler's booking rules. The vector family has no cycle loop: a
profiled datapar run interprets, and its item walk and lane batches
close each ticked cycle right after the tick. Batched memory stalls,
whichever family takes them, book through
:meth:`EngineProfiler.memory_stall`. An unprofiled run pays a
``None`` test per firing and per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclasses_field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Every cycle is attributed to exactly one of these reasons.
STALL_REASONS = (
    "fired",
    "waiting_operands",
    "tag_starved",
    "memory_stall",
    "width_limited",
    "idle",
)


@dataclass
class RunProfile:
    """Compact, picklable stall/hotspot attribution of one run.

    ``stall_cycles`` maps each reason in :data:`STALL_REASONS` to its
    cycle count; ``node_fired``/``node_cycles`` map static-node labels
    to fired counts and (fractional) attributed busy cycles.
    """

    machine: str
    cycles: int
    instructions: int
    stall_cycles: Dict[str, int]
    node_fired: Dict[str, int]
    node_cycles: Dict[str, float]
    #: Cache-mode refinement of ``memory_stall``: stalled cycles
    #: attributed to last-level misses (``"miss"``) vs. slower-level
    #: hits (``"hit"``). Empty unless the run configured ``cache=``
    #: and its components then sum exactly to
    #: ``stall_cycles["memory_stall"]``.
    memory_stall_split: Dict[str, int] = dataclasses_field(
        default_factory=dict)

    def validate(self) -> None:
        """Enforce the conservation invariants.

        Raises :class:`~repro.errors.SimulationError` unless stall
        reasons sum exactly to ``cycles``, per-node fired counts sum
        exactly to ``instructions``, and every reason is known.
        """
        unknown = set(self.stall_cycles) - set(STALL_REASONS)
        if unknown:
            raise SimulationError(
                f"profile for {self.machine} has unknown stall "
                f"reasons {sorted(unknown)}"
            )
        total = sum(self.stall_cycles.values())
        if total != self.cycles:
            raise SimulationError(
                f"profile for {self.machine} lost cycles: stall "
                f"reasons sum to {total}, run took {self.cycles}"
            )
        fired = sum(self.node_fired.values())
        if fired != self.instructions:
            raise SimulationError(
                f"profile for {self.machine} lost instructions: "
                f"node fired counts sum to {fired}, run executed "
                f"{self.instructions}"
            )
        if self.memory_stall_split:
            bad = set(self.memory_stall_split) - {"hit", "miss"}
            if bad:
                raise SimulationError(
                    f"profile for {self.machine} has unknown memory "
                    f"stall components {sorted(bad)}"
                )
            split = sum(self.memory_stall_split.values())
            mem = self.stall_cycles.get("memory_stall", 0)
            if split != mem:
                raise SimulationError(
                    f"profile for {self.machine} lost memory stalls: "
                    f"hit/miss split sums to {split}, memory_stall "
                    f"is {mem}"
                )

    @property
    def busy_cycles(self) -> int:
        """Cycles in which at least one instruction issued."""
        return (self.stall_cycles.get("fired", 0)
                + self.stall_cycles.get("width_limited", 0))

    def stall_breakdown(self) -> List[Tuple[str, int]]:
        """(reason, cycles) rows in taxonomy order."""
        return [(reason, self.stall_cycles.get(reason, 0))
                for reason in STALL_REASONS]

    def top_nodes(self, n: int = 10) -> List[Tuple[str, int, float]]:
        """The ``n`` hottest nodes as (label, fired, attributed
        cycles), by attributed cycles then fired count."""
        rows = [(label, self.node_fired.get(label, 0), cycles)
                for label, cycles in self.node_cycles.items()]
        rows.sort(key=lambda row: (-row[2], -row[1], row[0]))
        return rows[:n]

    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-serializable form (the CLI's ``--json`` schema)."""
        doc = {
            "machine": self.machine,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_cycles": dict(self.stall_cycles),
            "node_fired": dict(self.node_fired),
            "node_cycles": {label: round(cycles, 6)
                            for label, cycles in self.node_cycles.items()},
        }
        if self.memory_stall_split:
            doc["memory_stall_split"] = dict(self.memory_stall_split)
        return doc

    def summary_fields(self, top: int = 3) -> Dict[str, object]:
        """The compact form sweep run logs record per spec."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stall_cycles": dict(self.stall_cycles),
            "top_nodes": [[label, fired, round(cycles, 2)]
                          for label, fired, cycles in self.top_nodes(top)],
        }


class EngineProfiler:
    """Per-run recorder the engines drive, through one booking rule
    per kind of cycle:

    * :meth:`end_cycle` closes one cycle with the keys in
      :attr:`noted`, the firings an engine appended there during it;
    * :meth:`memory_cycle` books one zero-fire cycle with loads in
      flight (the queued and window loops);
    * :meth:`memory_stall` books a batched memory stall (tagged,
      queued and datapar).

    Keys may be any hashable engine-native node identity (int node
    ids, ``(block, op_id)`` tuples, prebuilt label strings);
    :meth:`finish` maps them to display labels.
    """

    __slots__ = ("stall_cycles", "node_fired", "node_cycles", "noted",
                 "memory_stall_split")

    def __init__(self):
        self.stall_cycles: Dict[str, int] = {
            reason: 0 for reason in STALL_REASONS
        }
        self.node_fired: Dict[object, int] = {}
        self.node_cycles: Dict[object, float] = {}
        #: The keys fired in the open cycle, in firing order; engines
        #: append to it and :meth:`end_cycle` empties it.
        self.noted: List[object] = []
        #: Populated only by cache-mode runs.
        self.memory_stall_split: Dict[str, int] = {}

    def end_cycle(self, reason: str, weight: int = 1) -> None:
        """Close one cycle, attributing it to ``reason``. Each noted
        key counts ``weight`` firings (a vector batch: its active
        lanes), and the cycle is split evenly over the noted keys, in
        order."""
        self.stall_cycles[reason] += 1
        noted = self.noted
        if noted:
            share = 1.0 / len(noted)
            fired = self.node_fired
            cycles = self.node_cycles
            for key in noted:
                fired[key] = fired.get(key, 0) + weight
                cycles[key] = cycles.get(key, 0.0) + share
            del noted[:]

    def memory_cycle(self, cycle: int,
                     miss_until: Optional[List[int]]) -> None:
        """One zero-fire cycle with loads in flight, the one that
        brings the run to ``cycle`` cycles. In cache mode
        (``miss_until`` set) it is a miss while ``cycle`` is at most
        ``miss_until[0]``, else a hit; only that key is booked."""
        self.stall_cycles["memory_stall"] += 1
        if miss_until is not None:
            key = "miss" if cycle <= miss_until[0] else "hit"
            split = self.memory_stall_split
            split[key] = split.get(key, 0) + 1

    def memory_stall(self, start: int, stop: int,
                     miss_until: Optional[List[int]]) -> None:
        """A batched memory stall over cycles ``[start, stop)``. In
        cache mode (``miss_until`` set) its cycles before
        ``miss_until[0]`` are misses and the rest hits; both keys are
        booked, zeros included."""
        n_cycles = stop - start
        if n_cycles <= 0:
            return
        self.stall_cycles["memory_stall"] += n_cycles
        if miss_until is not None:
            miss = max(0, min(stop, miss_until[0]) - start)
            split = self.memory_stall_split
            split["miss"] = split.get("miss", 0) + miss
            split["hit"] = split.get("hit", 0) + (n_cycles - miss)

    def finish(self, machine: str, cycles: int, instructions: int,
               label_of: Optional[Callable[[object], str]] = None
               ) -> RunProfile:
        """Build and validate the final :class:`RunProfile`,
        translating node keys through ``label_of`` (default
        ``str``)."""
        label = label_of if label_of is not None else str

        def relabel(table, zero):
            out: Dict[str, object] = {}
            for key, value in table.items():
                name = label(key)
                out[name] = out.get(name, zero) + value
            return out

        profile = RunProfile(
            machine=machine,
            cycles=cycles,
            instructions=instructions,
            stall_cycles=dict(self.stall_cycles),
            node_fired=relabel(self.node_fired, 0),
            node_cycles=relabel(self.node_cycles, 0.0),
            memory_stall_split=dict(self.memory_stall_split),
        )
        profile.validate()
        return profile
