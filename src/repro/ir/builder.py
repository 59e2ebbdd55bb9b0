"""Builders for constructing context programs.

:class:`BlockBuilder` appends ops in program order, tracks the region
tree for forward branches, and constant-folds pure ops whose operands
are all literals (an op with no token inputs could never fire in a
tagged machine, so folding is required for correctness, not just an
optimization).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.ops import OP_INFO, Op
from repro.ir.program import (
    ArrayDecl,
    BlockDef,
    BlockKind,
    ContextProgram,
    IfRegion,
    Lit,
    LoopTerm,
    OpDef,
    Param,
    Region,
    Res,
    ReturnTerm,
    ValueRef,
)


class BlockBuilder:
    """Incrementally constructs one :class:`BlockDef`."""

    def __init__(self, program: "ProgramBuilder", name: str, kind: BlockKind,
                 param_names: Sequence[str]):
        self._program = program
        self.block = BlockDef(name=name, kind=kind,
                              param_names=tuple(param_names))
        self._region_stack: List[Region] = [self.block.region]

    # ------------------------------------------------------------------
    # Op emission
    # ------------------------------------------------------------------
    def param(self, index: int) -> Param:
        if not 0 <= index < self.block.n_params:
            raise IRError(
                f"block {self.block.name!r} has {self.block.n_params} "
                f"params; index {index} requested"
            )
        return Param(index)

    def emit(self, op: Op, inputs: Sequence[ValueRef], n_outputs: int = 1,
             **attrs) -> OpDef:
        """Append an op to the current region and return its OpDef.
        ``attrs`` (a fresh dict per call) becomes the op's attrs."""
        info = OP_INFO[op]
        inputs = tuple(inputs)
        if info.n_inputs is not None and len(inputs) != info.n_inputs:
            raise IRError(
                f"{op.value} expects {info.n_inputs} inputs, got {len(inputs)}"
            )
        if info.n_outputs is not None and n_outputs != info.n_outputs:
            raise IRError(
                f"{op.value} produces {info.n_outputs} outputs, "
                f"got n_outputs={n_outputs}"
            )
        ops = self.block.ops
        op_def = OpDef(len(ops), op, inputs, n_outputs, attrs)
        ops.append(op_def)
        self._region_stack[-1].items.append(op_def.op_id)
        return op_def

    def pure(self, op: Op, *inputs: ValueRef) -> ValueRef:
        """Emit a pure op, constant-folding all-literal operands."""
        info = OP_INFO[op]
        if not info.pure:
            raise IRError(f"{op.value} is not pure")
        for ref in inputs:
            if ref.__class__ is not Lit:
                break
        else:
            return Lit(info.evaluate(*[ref.value for ref in inputs]))
        if len(inputs) != info.n_inputs:
            raise IRError(
                f"{op.value} expects {info.n_inputs} inputs, got {len(inputs)}"
            )
        ops = self.block.ops
        op_id = len(ops)
        ops.append(OpDef(op_id, op, inputs, 1, {}))
        self._region_stack[-1].items.append(op_id)
        return Res(op_id, 0)

    def load(self, array: str, index: ValueRef,
             order: Optional[ValueRef] = None) -> Tuple[ValueRef, ValueRef]:
        """Emit a LOAD; returns (value, order-token) refs."""
        self._program.require_array(array)
        inputs = (index,) if order is None else (index, order)
        op_id = self.emit(Op.LOAD, inputs, n_outputs=2, array=array,
                          has_order_in=order is not None).op_id
        return Res(op_id, 0), Res(op_id, 1)

    def store(self, array: str, index: ValueRef, value: ValueRef,
              order: Optional[ValueRef] = None) -> ValueRef:
        """Emit a STORE; returns its order-token ref."""
        self._program.require_array(array)
        inputs = (index, value) if order is None else (index, value, order)
        op_id = self.emit(Op.STORE, inputs, n_outputs=1, array=array,
                          has_order_in=order is not None).op_id
        return Res(op_id, 0)

    def steer(self, decider: ValueRef, value: ValueRef,
              sense: bool) -> Tuple[ValueRef, ValueRef]:
        """Emit a STEER; returns (steered value, unconditional ctl)."""
        op_id = self.emit(Op.STEER, (decider, value), n_outputs=2,
                          sense=sense).op_id
        return Res(op_id, 0), Res(op_id, 1)

    def merge(self, decider: ValueRef, tval: ValueRef,
              fval: ValueRef) -> ValueRef:
        """Emit a decider-driven MERGE of a forward branch."""
        return Res(self.emit(Op.MERGE, (decider, tval, fval)).op_id, 0)

    def spawn(self, callee: str, args: Sequence[ValueRef],
              n_results: int) -> OpDef:
        """Emit an abstract transfer point into ``callee``."""
        return self.emit(Op.SPAWN, tuple(args), n_outputs=n_results,
                         callee=callee)

    def emit_hoisted(self, region: Region, index: int, op: Op,
                     inputs: Sequence[ValueRef], n_outputs: int = 1,
                     **attrs) -> OpDef:
        """Emit an op placed at ``region.items[index]`` rather than the
        current region (used to hoist trigger steers created lazily
        while lowering a branch body)."""
        info = OP_INFO[op]
        inputs = tuple(inputs)
        if info.n_inputs is not None and len(inputs) != info.n_inputs:
            raise IRError(
                f"{op.value} expects {info.n_inputs} inputs, got {len(inputs)}"
            )
        op_def = OpDef(len(self.block.ops), op, inputs, n_outputs, attrs)
        self.block.ops.append(op_def)
        region.items.insert(index, op_def.op_id)
        return op_def

    # ------------------------------------------------------------------
    # Regions
    # ------------------------------------------------------------------
    @property
    def current_region(self) -> Region:
        return self._region_stack[-1]

    def begin_if(self, decider: ValueRef) -> IfRegion:
        region = IfRegion(decider=decider, then_region=Region("then"),
                          else_region=Region("else"))
        self._region_stack[-1].items.append(region)
        self._region_stack.append(region.then_region)
        return region

    def begin_else(self) -> None:
        top = self._region_stack.pop()
        if top.kind != "then":
            raise IRError("begin_else called outside a then-region")
        # Find the IfRegion that owns `top` in the (new) current region.
        owner = self._region_stack[-1].items[-1]
        if not isinstance(owner, IfRegion) or owner.then_region is not top:
            raise IRError("region stack corrupted")
        self._region_stack.append(owner.else_region)

    def end_if(self) -> None:
        top = self._region_stack.pop()
        if top.kind != "else":
            raise IRError("end_if called outside an else-region")

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------
    def set_return(self, results: Sequence[ValueRef]) -> None:
        self._check_terminator_allowed()
        if self.block.kind is not BlockKind.DAG:
            raise IRError("set_return is only valid on DAG blocks")
        self.block.terminator = ReturnTerm(tuple(results))

    def set_loop(self, decider: ValueRef, next_args: Sequence[ValueRef],
                 results: Sequence[ValueRef]) -> None:
        self._check_terminator_allowed()
        if self.block.kind is not BlockKind.LOOP:
            raise IRError("set_loop is only valid on LOOP blocks")
        next_args = tuple(next_args)
        if len(next_args) != self.block.n_params:
            raise IRError(
                f"loop {self.block.name!r} has {self.block.n_params} params "
                f"but {len(next_args)} next_args"
            )
        self.block.terminator = LoopTerm(decider, next_args, tuple(results))

    def _check_terminator_allowed(self) -> None:
        if self.block.terminator is not None:
            raise IRError(f"block {self.block.name!r} already terminated")
        if len(self._region_stack) != 1:
            raise IRError("cannot terminate a block inside an open region")


class ProgramBuilder:
    """Constructs a :class:`ContextProgram`."""

    def __init__(self, entry: str = "main"):
        self.program = ContextProgram(entry=entry)
        self._open: Dict[str, BlockBuilder] = {}

    def declare_array(self, name: str, length: Optional[int] = None,
                      read_only: bool = False) -> None:
        if name in self.program.arrays:
            raise IRError(f"array {name!r} already declared")
        self.program.arrays[name] = ArrayDecl(name, length, read_only)

    def require_array(self, name: str) -> None:
        if name not in self.program.arrays:
            raise IRError(f"array {name!r} is not declared")

    def new_block(self, name: str, kind: BlockKind,
                  param_names: Sequence[str]) -> BlockBuilder:
        if name in self.program.blocks or name in self._open:
            raise IRError(f"block {name!r} already exists")
        bb = BlockBuilder(self, name, kind, param_names)
        self._open[name] = bb
        return bb

    def finish_block(self, bb: BlockBuilder) -> BlockDef:
        name = bb.block.name
        if self._open.pop(name, None) is None:
            raise IRError(f"block {name!r} is not open")
        if bb.block.terminator is None:
            raise IRError(f"block {name!r} has no terminator")
        self.program.blocks[name] = bb.block
        return bb.block

    def build(self) -> ContextProgram:
        if self._open:
            names = ", ".join(sorted(self._open))
            raise IRError(f"unfinished blocks: {names}")
        if self.program.entry not in self.program.blocks:
            raise IRError(f"entry block {self.program.entry!r} missing")
        return self.program
