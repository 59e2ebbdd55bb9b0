"""Elaborated tagged dataflow graph.

The elaborated graph is what a tagged dataflow machine executes: every
instruction is a node, every producer-consumer relationship an edge,
and all transfer points are explicit ``allocate`` / ``changeTag`` /
``join`` / ``free`` instruction chains (paper Fig. 10). Immediates are
attached to input ports, mirroring how dataflow ISAs encode constants
(a constant never occupies a token).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.ir.ops import Op

#: An edge destination: (node id, input port).
Dest = Tuple[int, int]


class TaggedNode:
    """One static instruction of the elaborated graph.

    ``imms`` holds the immediate operands by input port; these ports
    never hold tokens. ``out_edges`` lists the consumers of each output
    port; an empty list means the token is discarded on emission.
    """

    __slots__ = ("node_id", "op", "block", "n_inputs", "n_outputs",
                 "imms", "out_edges", "attrs")

    def __init__(self, node_id: int, op: Op, block: str, n_inputs: int,
                 n_outputs: int, attrs: Dict[str, object]) -> None:
        self.node_id = node_id
        self.op = op
        self.block = block  # owning concurrent block (its tag space)
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.imms: Dict[int, object] = {}
        self.out_edges: List[List[Dest]] = new_ports(n_outputs)
        self.attrs = attrs

    @property
    def token_ports(self) -> List[int]:
        """Input ports that receive tokens (non-immediate)."""
        return [p for p in range(self.n_inputs) if p not in self.imms]

    def __repr__(self) -> str:
        return (f"<n{self.node_id} {self.op.value} @{self.block} "
                f"in={self.n_inputs} out={self.n_outputs}>")


def new_ports(n_outputs: int) -> List[List[Dest]]:
    """Empty consumer lists for ``n_outputs`` output ports (literals for
    the one- and two-port nodes that make up nearly every graph)."""
    if n_outputs == 1:
        return [[]]
    if n_outputs == 2:
        return [[], []]
    return [[] for _ in range(n_outputs)]


@dataclass
class TaggedGraph:
    """A complete elaborated program."""

    nodes: List[TaggedNode] = field(default_factory=list)
    entry_block: str = "main"
    #: Destinations of each entry argument (token seeded by the engine
    #: with the root tag).
    entry_sources: List[List[Dest]] = field(default_factory=list)
    #: Node ids whose firing records a program result
    #: (``attrs["result_index"]`` gives the slot).
    result_nodes: List[int] = field(default_factory=list)
    #: Tag-space sizes: block name -> override (None = policy default).
    tag_overrides: Dict[str, Optional[int]] = field(default_factory=dict)
    #: All concurrent-block names (= tag spaces).
    blocks: List[str] = field(default_factory=list)

    def new_node(self, op: Op, block: str, n_inputs: int, n_outputs: int,
                 **attrs) -> TaggedNode:
        node = TaggedNode(len(self.nodes), op, block, n_inputs, n_outputs,
                          attrs)
        self.nodes.append(node)
        return node

    def connect(self, src: TaggedNode, port: int, dest: TaggedNode,
                dest_port: int) -> None:
        if port >= src.n_outputs:
            raise CompileError(f"{src}: no output port {port}")
        if dest_port >= dest.n_inputs:
            raise CompileError(f"{dest}: no input port {dest_port}")
        src.out_edges[port].append((dest.node_id, dest_port))

    # -- Theorem 2 quantities ------------------------------------------
    @property
    def static_instructions(self) -> int:
        """N in the paper's Theorem 2."""
        return len(self.nodes)

    @property
    def max_inputs(self) -> int:
        """M in the paper's Theorem 2."""
        return max((len(n.token_ports) for n in self.nodes), default=1)

    def token_bound(self, tags_per_space: int) -> int:
        """The Theorem 2 live-token bound ``T * N * M``."""
        return tags_per_space * self.static_instructions * self.max_inputs

    def stats(self) -> Dict[str, int]:
        """Node counts per opcode (for reporting and tests)."""
        out: Dict[str, int] = {}
        for n in self.nodes:
            out[n.op.value] = out.get(n.op.value, 0) + 1
        return out

    def check(self) -> None:
        """Internal-consistency checks on the finished graph: every
        node has one consumer list per output port, every edge ends on
        a token input port of an existing node, and every node but a
        free has a token input."""
        nodes = self.nodes
        n_nodes = len(nodes)
        free = Op.FREE
        for n in nodes:
            if len(n.out_edges) != n.n_outputs:
                raise CompileError(f"{n}: malformed out_edges")
            for port_edges in n.out_edges:
                for dest_id, dest_port in port_edges:
                    if not 0 <= dest_id < n_nodes:
                        raise CompileError(f"{n}: edge to bad node")
                    dest = nodes[dest_id]
                    if dest_port in dest.imms:
                        raise CompileError(
                            f"{n}: edge into immediate port of {dest}"
                        )
                    if not 0 <= dest_port < dest.n_inputs:
                        raise CompileError(f"{n}: edge to bad port")
            # No token port: every input port holds an immediate.
            imms = n.imms
            if (len(imms) >= n.n_inputs and n.op is not free
                    and all(p in imms for p in range(n.n_inputs))):
                raise CompileError(f"{n}: no token inputs; can never fire")
