"""Instruction set of the dataflow IR (paper Table I).

The IR has four instruction categories:

* **arithmetic** -- pure value computation (``ADD``, ``MUL``, ``LT``, ...).
* **memory** -- ``LOAD`` / ``STORE`` against named arrays. Memory ordering
  is expressed as explicit data dependencies through *order tokens*
  (paper Sec. IV-A), so both ops take and produce an optional order
  token.
* **control flow** -- ``STEER`` routes a token conditionally; ``MERGE``
  joins the two sides of a forward branch (decider-driven, so it is
  deterministic in every machine model); ``JOIN`` is the n-input barrier
  used by TYR's free construction.
* **token synchronization** -- ``ALLOCATE`` / ``FREE`` / ``CHANGE_TAG`` /
  ``EXTRACT_TAG`` (TYR's contribution, paper Fig. 8). These appear only
  in *elaborated* graphs produced by :mod:`repro.compiler.elaborate`.

``SPAWN`` is the abstract transfer point of the context IR (UDIR's
``enter``/``exit``); lowerings replace it with linkage (tagged machines)
or inline it (flat graphs). ``MU`` and ``INVARIANT`` are loop-head
gates that exist only in flat (ordered-dataflow) graphs.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import SimulationError


class Op(enum.Enum):
    """Opcodes of the dataflow IR."""

    # Arithmetic / logic (pure).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    SHL = "shl"
    SHR = "shr"
    BAND = "band"
    BOR = "bor"
    BXOR = "bxor"
    NOT = "not"
    NEG = "neg"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    MIN = "min"
    MAX = "max"
    SELECT = "select"
    COPY = "copy"

    # Memory.
    LOAD = "load"
    STORE = "store"

    # Control flow.
    STEER = "steer"
    MERGE = "merge"
    JOIN = "join"

    # Abstract transfer point (context IR only).
    SPAWN = "spawn"

    # Token synchronization (elaborated graphs only; paper Fig. 8).
    ALLOCATE = "allocate"
    FREE = "free"
    CHANGE_TAG = "changeTag"
    EXTRACT_TAG = "extractTag"

    # Loop-head gates (flat graphs only; ordered dataflow a la RipTide).
    MU = "mu"
    INVARIANT = "invariant"

    # Members compare by identity, so the identity hash agrees with
    # equality; it is a C slot, where ``Enum.__hash__`` is a Python call
    # on every ``OP_INFO[op]`` and ``op in CONTEXT_IR_OPS``.
    __hash__ = object.__hash__


class Category(enum.Enum):
    ARITHMETIC = "arithmetic"
    MEMORY = "memory"
    CONTROL = "control"
    SYNC = "token synchronization"
    STRUCTURAL = "structural"


@dataclass(frozen=True)
class OpInfo:
    """Static description of an opcode.

    ``n_inputs``/``n_outputs`` are ``None`` for variadic ops (``JOIN``,
    ``SPAWN``, ``CHANGE_TAG`` fan-out is fixed but ``SPAWN`` arity
    depends on the callee). ``pure`` ops may be constant-folded.
    """

    op: Op
    category: Category
    n_inputs: Optional[int]
    n_outputs: Optional[int]
    pure: bool
    evaluate: Optional[Callable[..., object]] = None


def _div(a, b):
    if b == 0:
        raise SimulationError("division by zero in dataflow program")
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    # C-style truncating integer division.
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _mod(a, b):
    if b == 0:
        raise SimulationError("modulo by zero in dataflow program")
    return a - _div(a, b) * b


def _bool(x) -> int:
    return 1 if x else 0


_PURE = [
    (Op.ADD, 2, operator.add),
    (Op.SUB, 2, operator.sub),
    (Op.MUL, 2, operator.mul),
    (Op.DIV, 2, _div),
    (Op.MOD, 2, _mod),
    (Op.SHL, 2, operator.lshift),
    (Op.SHR, 2, operator.rshift),
    (Op.BAND, 2, operator.and_),
    (Op.BOR, 2, operator.or_),
    (Op.BXOR, 2, operator.xor),
    (Op.NOT, 1, lambda a: _bool(not a)),
    (Op.NEG, 1, operator.neg),
    (Op.LT, 2, lambda a, b: _bool(a < b)),
    (Op.LE, 2, lambda a, b: _bool(a <= b)),
    (Op.GT, 2, lambda a, b: _bool(a > b)),
    (Op.GE, 2, lambda a, b: _bool(a >= b)),
    (Op.EQ, 2, lambda a, b: _bool(a == b)),
    (Op.NE, 2, lambda a, b: _bool(a != b)),
    (Op.MIN, 2, min),
    (Op.MAX, 2, max),
    (Op.SELECT, 3, lambda c, a, b: a if c else b),
    (Op.COPY, 1, lambda a: a),
]

OP_INFO: Dict[Op, OpInfo] = {}

for _op, _arity, _fn in _PURE:
    OP_INFO[_op] = OpInfo(_op, Category.ARITHMETIC, _arity, 1, True, _fn)

OP_INFO[Op.LOAD] = OpInfo(Op.LOAD, Category.MEMORY, None, None, False)
OP_INFO[Op.STORE] = OpInfo(Op.STORE, Category.MEMORY, None, 1, False)
OP_INFO[Op.STEER] = OpInfo(Op.STEER, Category.CONTROL, 2, 2, False)
OP_INFO[Op.MERGE] = OpInfo(Op.MERGE, Category.CONTROL, 3, 1, False)
OP_INFO[Op.JOIN] = OpInfo(Op.JOIN, Category.CONTROL, None, 1, False)
OP_INFO[Op.SPAWN] = OpInfo(Op.SPAWN, Category.STRUCTURAL, None, None, False)
OP_INFO[Op.ALLOCATE] = OpInfo(Op.ALLOCATE, Category.SYNC, 2, 2, False)
OP_INFO[Op.FREE] = OpInfo(Op.FREE, Category.SYNC, 1, 0, False)
OP_INFO[Op.CHANGE_TAG] = OpInfo(Op.CHANGE_TAG, Category.SYNC, 2, 2, False)
OP_INFO[Op.EXTRACT_TAG] = OpInfo(Op.EXTRACT_TAG, Category.SYNC, 1, 1, False)
OP_INFO[Op.MU] = OpInfo(Op.MU, Category.STRUCTURAL, 3, 1, False)
OP_INFO[Op.INVARIANT] = OpInfo(Op.INVARIANT, Category.STRUCTURAL, 2, 1, False)


def op_info(op: Op) -> OpInfo:
    """Return the :class:`OpInfo` for ``op``."""
    return OP_INFO[op]


def evaluate_pure(op: Op, *args):
    """Evaluate a pure opcode on concrete operands."""
    info = OP_INFO[op]
    if not info.pure or info.evaluate is None:
        raise ValueError(f"{op} is not a pure opcode")
    return info.evaluate(*args)


#: Opcodes legal in the context IR (pre-lowering).
CONTEXT_IR_OPS = frozenset(
    {o for o in Op if OP_INFO[o].pure}
    | {Op.LOAD, Op.STORE, Op.STEER, Op.MERGE, Op.SPAWN}
)

#: Opcodes legal in elaborated tagged graphs.
TAGGED_GRAPH_OPS = frozenset(
    {o for o in Op if OP_INFO[o].pure}
    | {
        Op.LOAD,
        Op.STORE,
        Op.STEER,
        Op.MERGE,
        Op.JOIN,
        Op.ALLOCATE,
        Op.FREE,
        Op.CHANGE_TAG,
        Op.EXTRACT_TAG,
    }
)

#: Opcodes legal in flat (ordered-dataflow) graphs.
FLAT_GRAPH_OPS = frozenset(
    {o for o in Op if OP_INFO[o].pure}
    | {Op.LOAD, Op.STORE, Op.STEER, Op.MERGE, Op.MU, Op.INVARIANT}
)
