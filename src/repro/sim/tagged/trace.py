"""Dynamic execution-graph recording (paper Figs. 4/5).

The paper visualizes executions as *dynamic execution graphs*: one
node per dynamic instruction, placed at the cycle it fired (width =
time), with black edges for token communication; the number of edges
crossing a vertical cut is the live state at that instant. With
``record_trace=True`` the tagged engine records exactly this graph,
and :func:`to_dot` / :func:`parallelism_profile` render it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def _dot_escape(text: str) -> str:
    """Escape a value for a double-quoted Graphviz string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass
class TraceEvent:
    """One dynamic instruction firing."""

    event_id: int
    cycle: int
    node_id: int
    block: str
    op: str
    tag: object


@dataclass
class ExecutionTrace:
    """The dynamic execution graph of one run."""

    events: List[TraceEvent] = field(default_factory=list)
    #: (producer event, consumer event) token-flow edges.
    edges: List[Tuple[int, int]] = field(default_factory=list)
    #: Lazy (n_edges, sorted producer cycles, sorted consumer cycles)
    #: for :meth:`live_cut`; rebuilt when edges have been appended.
    _cut_index: Optional[Tuple[int, List[int], List[int]]] = field(
        default=None, repr=False, compare=False)

    def record(self, cycle: int, node_id: int, block: str, op: str,
               tag: object, input_sources: Dict[int, int]) -> int:
        event_id = len(self.events)
        self.events.append(
            TraceEvent(event_id, cycle, node_id, block, op, tag)
        )
        for src in input_sources.values():
            self.edges.append((src, event_id))
        return event_id

    # ------------------------------------------------------------------
    @property
    def duration(self) -> int:
        """Trace width: the number of cycles spanned (paper: time)."""
        if not self.events:
            return 0
        return max(e.cycle for e in self.events) + 1

    def parallelism_profile(self) -> List[int]:
        """Events per cycle (paper: trace height over time)."""
        profile = [0] * self.duration
        for e in self.events:
            profile[e.cycle] += 1
        return profile

    def live_cut(self, cycle: int) -> int:
        """Token edges crossing the vertical cut at ``cycle`` (the
        paper's definition of live state at an instant).

        An edge crosses the cut at ``cycle`` iff it was produced at or
        before ``cycle`` and consumed at or after it -- a token
        consumed at cycle *c* still crosses the cut at *c* (it is live
        until its consumer fires).

        The tests' independent reference for the tagged engine's
        live-token count: they query it at every cycle, so the edge
        endpoints are pre-sorted once per trace and each query is two
        bisections, O(log E), instead of a full edge rescan.
        """
        index = self._cut_index
        if index is None or index[0] != len(self.edges):
            by_id = self.events
            starts = sorted(by_id[src].cycle for src, _ in self.edges)
            ends = sorted(by_id[dst].cycle for _, dst in self.edges)
            index = (len(self.edges), starts, ends)
            self._cut_index = index
        _, starts, ends = index
        # produced at or before `cycle`, minus consumed strictly
        # before it (consumed-before implies produced-before, so the
        # difference is exactly the crossing count).
        return bisect_right(starts, cycle) - bisect_left(ends, cycle)

    def to_dot(self, max_events: int = 2000) -> str:
        """Graphviz rendering: columns are cycles, colors are
        concurrent blocks (like the paper's purple/yellow nodes)."""
        if len(self.events) > max_events:
            raise ValueError(
                f"trace too large to render ({len(self.events)} events;"
                f" limit {max_events}) -- use a smaller input"
            )
        palette = ["lightgoldenrod", "plum", "lightblue", "palegreen",
                   "lightsalmon", "khaki", "lightpink", "gainsboro"]
        blocks = sorted({e.block for e in self.events})
        color = {b: palette[i % len(palette)]
                 for i, b in enumerate(blocks)}
        lines = ["digraph trace {", "  rankdir=LR;",
                 '  node [style=filled, shape=box, fontsize=8];']
        by_cycle: Dict[int, List[TraceEvent]] = {}
        for e in self.events:
            by_cycle.setdefault(e.cycle, []).append(e)
        for cycle in sorted(by_cycle):
            lines.append("  { rank=same; "
                         f'"c{cycle}" [shape=plaintext, label="t={cycle}"];')
            for e in by_cycle[cycle]:
                # Escape op/block/tag: a `"` or `\` in any of them
                # would otherwise break out of the quoted label.
                label = (f"{_dot_escape(e.op)}\\n"
                         f"{_dot_escape(e.block)}"
                         f"#{_dot_escape(str(e.tag))}")
                lines.append(
                    f'    e{e.event_id} [label="{label}", '
                    f'fillcolor={color[e.block]}];'
                )
            lines.append("  }")
        cycles = sorted(by_cycle)
        for a, b in zip(cycles, cycles[1:]):
            lines.append(f'  "c{a}" -> "c{b}" [style=invis];')
        for src, dst in self.edges:
            lines.append(f"  e{src} -> e{dst};")
        lines.append("}")
        return "\n".join(lines)
