"""Desugaring: ``Break`` / ``Continue`` elimination.

The dataflow lowering wants structured loops with a single exit
decision, so early exits are rewritten into flag variables before
analysis, the standard structured-programming transformation::

    for i in range(n):          $brk = 0
        a()                     i = 0
        if c: break             while ($brk == 0) & (i < n):
        b()                         $cnt = 0
        if d: continue              a()
        e()                         if c: $brk = 1
                                    if ($brk|$cnt) == 0:
                                        b()
                                        if d: $cnt = 1
                                        if ($brk|$cnt) == 0:
                                            e()
                                    if $brk == 0: i = i + 1

Statements following a possible break/continue are wrapped in a guard;
code directly after a ``Break``/``Continue`` in the same list is
unreachable and dropped. ``break`` binds to the innermost loop. The
flags are ordinary carried variables, so every machine model supports
early exits for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.frontend.ast import (
    Assign,
    BinOp,
    Const,
    For,
    Function,
    If,
    Module,
    Name,
    Stmt,
    While,
)


@dataclass
class Break:
    """Exit the innermost loop."""


@dataclass
class Continue:
    """Skip to the next iteration of the innermost loop."""


def _contains_escape(stmts: Sequence, kind=(Break, Continue)) -> bool:
    for s in stmts:
        if isinstance(s, kind):
            return True
        if isinstance(s, If):
            if _contains_escape(s.then, kind) or _contains_escape(
                    s.orelse, kind):
                return True
        # Escapes inside nested loops bind to those loops.
    return False


class _Desugarer:
    def __init__(self):
        self._counter = 0

    def fresh(self, hint: str) -> str:
        self._counter += 1
        return f"${hint}{self._counter}"

    # ------------------------------------------------------------------
    def rewrite_body(self, stmts: Sequence,
                     ctx: Optional[Tuple[str, Optional[str]]]
                     ) -> List[Stmt]:
        """Rewrite a statement list; ``ctx = (brk, cnt)`` names the
        innermost loop's flags (None outside loops)."""
        out: List[Stmt] = []
        stmts = list(stmts)
        for i, s in enumerate(stmts):
            if isinstance(s, Break):
                if ctx is None:
                    raise ProgramError("break outside a loop")
                out.append(Assign(ctx[0], Const(1)))
                return out  # the rest is unreachable
            if isinstance(s, Continue):
                if ctx is None or ctx[1] is None:
                    raise ProgramError("continue outside a loop")
                out.append(Assign(ctx[1], Const(1)))
                return out
            if isinstance(s, If):
                new_if, may_escape = self._rewrite_if(s, ctx)
                out.append(new_if)
                if may_escape:
                    rest = self.rewrite_body(stmts[i + 1:], ctx)
                    if rest:
                        out.append(If(self._alive(ctx), rest))
                    return out
                continue
            if isinstance(s, (For, While)):
                out.append(self.rewrite_loop(s))
                continue
            out.append(s)
        return out

    def _alive(self, ctx: Tuple[str, Optional[str]]):
        brk, cnt = ctx
        check = Name(brk)
        if cnt is not None:
            check = BinOp("|", check, Name(cnt))
        return BinOp("==", check, Const(0))

    def _rewrite_if(self, s: If, ctx) -> Tuple[If, bool]:
        may_escape = (_contains_escape(s.then)
                      or _contains_escape(s.orelse))
        new = If(s.cond,
                 self.rewrite_body(s.then, ctx),
                 self.rewrite_body(s.orelse, ctx))
        return new, may_escape

    # ------------------------------------------------------------------
    def rewrite_loop(self, loop) -> Stmt:
        has_break = _contains_escape(loop.body, (Break,))
        has_continue = _contains_escape(loop.body, (Continue,))
        if not has_break and not has_continue:
            body = self.rewrite_body(loop.body, None)
            if isinstance(loop, For):
                return For(loop.var, loop.start, loop.stop, body,
                           step=loop.step, parallel=loop.parallel,
                           tags=loop.tags, label=loop.label)
            return While(loop.cond, body, parallel=loop.parallel,
                         tags=loop.tags, label=loop.label)

        brk = self.fresh("brk")
        cnt = self.fresh("cnt") if has_continue else None
        body = self.rewrite_body(loop.body, (brk, cnt))
        if cnt is not None:
            body = [Assign(cnt, Const(0))] + body

        if isinstance(loop, While):
            cond = BinOp("&", BinOp("==", Name(brk), Const(0)),
                         loop.cond)
            return_stmts = [
                Assign(brk, Const(0)),
                While(cond, body, parallel=loop.parallel,
                      tags=loop.tags, label=loop.label),
            ]
            return _Seq(return_stmts)

        # For loop: expand to counter + while so break skips the
        # final increment (C semantics: the counter keeps its value).
        stop_name = self.fresh("stop")
        step_name = self.fresh("step")
        body = body + [If(BinOp("==", Name(brk), Const(0)),
                          [Assign(loop.var,
                                  BinOp("+", Name(loop.var),
                                        Name(step_name)))])]
        cond = BinOp("&", BinOp("==", Name(brk), Const(0)),
                     BinOp("<", Name(loop.var), Name(stop_name)))
        return _Seq([
            Assign(loop.var, loop.start),
            Assign(stop_name, loop.stop),
            Assign(step_name, loop.step),
            Assign(brk, Const(0)),
            While(cond, body, parallel=loop.parallel, tags=loop.tags,
                  label=loop.label or f"for_{loop.var}"),
        ])


@dataclass
class _Seq:
    """A statement bundle produced by loop expansion (flattened by
    the module rewriter)."""

    stmts: List[Stmt]


def _flatten(stmts: Sequence) -> List[Stmt]:
    out: List[Stmt] = []
    for s in stmts:
        if isinstance(s, _Seq):
            out.extend(_flatten(s.stmts))
        elif isinstance(s, If):
            out.append(If(s.cond, _flatten(s.then), _flatten(s.orelse)))
        elif isinstance(s, While):
            out.append(While(s.cond, _flatten(s.body),
                             parallel=s.parallel, tags=s.tags,
                             label=s.label))
        elif isinstance(s, For):
            out.append(For(s.var, s.start, s.stop, _flatten(s.body),
                           step=s.step, parallel=s.parallel,
                           tags=s.tags, label=s.label))
        else:
            out.append(s)
    return out


def expand_break_continue(module: Module) -> Module:
    """Return a module with all Break/Continue statements eliminated."""
    needs_rewrite = any(
        _has_escape(fn.body) for fn in module.functions
    )
    if not needs_rewrite:
        return module
    d = _Desugarer()
    functions = []
    for fn in module.functions:
        body = _flatten(d.rewrite_body(fn.body, None))
        functions.append(Function(fn.name, fn.params, body))
    return Module(functions, arrays=module.arrays, entry=module.entry)


def _has_escape(stmts) -> bool:
    # Module-level, not nested: a nested recursive function would be a
    # reference cycle keeping every scanned program alive until the
    # cyclic collector runs.
    for s in stmts:
        if isinstance(s, (Break, Continue)):
            return True
        if isinstance(s, If):
            if _has_escape(s.then) or _has_escape(s.orelse):
                return True
        if isinstance(s, (For, While)):
            if _has_escape(s.body):
                return True
    return False
