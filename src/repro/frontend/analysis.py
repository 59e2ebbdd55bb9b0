"""Use/def and memory-ordering analysis over the structured AST.

The lowering needs, for every statement list, which variables are
*free* (used before being must-defined) and which are assigned. Memory
ordering is modeled with hidden *order-token* variables named
``$ord:<array>`` -- a load or store of an array that is stored anywhere
in the module both uses and redefines that array's token, which is what
threads the order chain through the dataflow graph (paper Sec. IV-A:
"converting memory ordering into explicit data dependencies").

``must_defs`` vs ``may_defs``: an ``If`` only must-define what both
sides assign; a ``While`` must-defines nothing (it may run zero times).
Free-use analysis shadows with must-defs, so values merged around
conditional definitions are correctly demanded from the enclosing
scope.

Facts are computed once per statement per lowering: the
:class:`AnalysisContext` of one ``lower_module`` call memoizes each
statement's :class:`UseDef` by identity, so nested bodies are not
re-analysed at every enclosing level, and :func:`needed_after` derives
a list's liveness in one backward pass. Memoized facts are shared by
every reader for the rest of that lowering and are never mutated;
code that needs different facts builds a new :class:`UseDef`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.errors import ProgramError
from repro.frontend.ast import (
    Assign,
    BinOp,
    Call,
    Cond,
    Const,
    Expr,
    For,
    Function,
    If,
    LoadExpr,
    Module,
    Name,
    Return,
    Stmt,
    Store,
    UnOp,
    While,
)

#: Prefix of hidden memory-order-token variables.
ORD_PREFIX = "$ord:"


def ord_var(array: str) -> str:
    """The hidden order-token variable for ``array``."""
    return ORD_PREFIX + array


def is_ord_var(name: str) -> bool:
    return name.startswith(ORD_PREFIX)


def ord_array(name: str) -> str:
    return name[len(ORD_PREFIX):]


@dataclass
class FnSig:
    """Lowered signature of a function (declared + hidden order params)."""

    name: str
    params: Tuple[str, ...]
    n_returns: int
    chained_in: Tuple[str, ...]  # arrays whose token the caller passes
    chained_out: Tuple[str, ...]  # arrays whose token is returned
    poisons: Tuple[str, ...]  # arrays parallel-stored (transitively)


@dataclass
class AnalysisContext:
    """Module-level facts the per-statement analysis depends on, and the
    statement facts already computed under them (one lowering's memo)."""

    ordered_arrays: Set[str] = field(default_factory=set)
    signatures: Dict[str, FnSig] = field(default_factory=dict)
    #: ``id(stmt) -> (stmt, facts)``. Statements are mutable and
    #: unhashable, so they are keyed by identity; the entry keeps the
    #: statement alive so its id is not reused while the memo lives.
    facts: Dict[int, Tuple[Stmt, UseDef]] = field(default_factory=dict)

    def is_ordered(self, array: str) -> bool:
        return array in self.ordered_arrays


@dataclass
class UseDef:
    """Ordered, duplicate-free use/def facts for a statement (list).

    Each list has a set of the same names beside it for O(1) membership
    (``use_set``, ``must_set``, ``may_set``); read them, never mutate
    them.
    """

    uses: List[str] = field(default_factory=list)
    must_defs: List[str] = field(default_factory=list)
    may_defs: List[str] = field(default_factory=list)
    use_set: Set[str] = field(init=False, repr=False, compare=False)
    must_set: Set[str] = field(init=False, repr=False, compare=False)
    may_set: Set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.use_set = set(self.uses)
        self.must_set = set(self.must_defs)
        self.may_set = set(self.may_defs)

    @staticmethod
    def _add(bucket: List[str], seen: Set[str],
             names: Iterable[str]) -> None:
        for n in names:
            if n not in seen:
                bucket.append(n)
                seen.add(n)

    def add_uses(self, names: Iterable[str]) -> None:
        self._add(self.uses, self.use_set, names)

    def add_must(self, names: Iterable[str]) -> None:
        self._add(self.must_defs, self.must_set, names)
        self._add(self.may_defs, self.may_set, names)

    def add_may(self, names: Iterable[str]) -> None:
        self._add(self.may_defs, self.may_set, names)


def expr_use_def(expr: Expr, ctx: AnalysisContext) -> UseDef:
    """Uses and order-token defs of evaluating ``expr`` once."""
    ud = UseDef()
    _expr_walk(expr, ctx, ud, set())
    return ud


def _expr_walk(expr: Expr, ctx: AnalysisContext, ud: UseDef,
               defined: Set[str]) -> None:
    if isinstance(expr, Const):
        return
    if isinstance(expr, Name):
        if expr.id not in defined:
            ud.add_uses([expr.id])
        return
    if isinstance(expr, BinOp):
        _expr_walk(expr.lhs, ctx, ud, defined)
        _expr_walk(expr.rhs, ctx, ud, defined)
        return
    if isinstance(expr, UnOp):
        _expr_walk(expr.operand, ctx, ud, defined)
        return
    if isinstance(expr, Cond):
        _expr_walk(expr.cond, ctx, ud, defined)
        _expr_walk(expr.then, ctx, ud, defined)
        _expr_walk(expr.orelse, ctx, ud, defined)
        return
    if isinstance(expr, LoadExpr):
        _expr_walk(expr.index, ctx, ud, defined)
        if ctx.is_ordered(expr.array):
            tok = ord_var(expr.array)
            if tok not in defined:
                ud.add_uses([tok])
            defined.add(tok)
            ud.add_must([tok])
        return
    raise ProgramError(f"unknown expression node {expr!r}")


def stmt_use_def(stmt: Stmt, ctx: AnalysisContext) -> UseDef:
    """Use/def facts of a single statement, computed once per ``ctx``."""
    # The memo lookup lives here rather than in a wrapper: a wrapper
    # would add a frame per nesting level and lower the deepest
    # nesting that fits under the recursion limit.
    hit = ctx.facts.get(id(stmt))
    if hit is not None:
        return hit[1]
    ud = UseDef()
    if isinstance(stmt, Assign):
        e = expr_use_def(stmt.expr, ctx)
        ud.add_uses(e.uses)
        ud.add_must(e.must_defs)
        ud.add_must([stmt.name])
    elif isinstance(stmt, Store):
        e1 = expr_use_def(stmt.index, ctx)
        e2 = expr_use_def(stmt.value, ctx)
        ud.add_uses(e1.uses)
        ud.add_must(e1.must_defs)
        # Value uses shadowed by index-expr token defs.
        ud.add_uses([u for u in e2.uses if u not in e1.must_set])
        ud.add_must(e2.must_defs)
        if ctx.is_ordered(stmt.array):
            tok = ord_var(stmt.array)
            if tok not in ud.must_set:
                ud.add_uses([tok])
            ud.add_must([tok])
    elif isinstance(stmt, If):
        e = expr_use_def(stmt.cond, ctx)
        ud.add_uses(e.uses)
        ud.add_must(e.must_defs)
        then_ud = stmts_use_def(stmt.then, ctx)
        else_ud = stmts_use_def(stmt.orelse, ctx)
        ud.add_uses([u for u in then_ud.uses + else_ud.uses
                     if u not in e.must_set])
        ud.add_must([d for d in then_ud.must_defs
                     if d in else_ud.must_set])
        ud.add_may(then_ud.may_defs)
        ud.add_may(else_ud.may_defs)
    elif isinstance(stmt, (While, For)):
        body_ud, cond_ud, parallel = _loop_parts(stmt, ctx)
        excluded = {ord_var(a) for a in parallel}
        init_defs: Set[str] = set()
        if isinstance(stmt, For):
            # Counter init and bound evaluation always happen, before
            # the body; their defs shadow body uses.
            for bound in (stmt.start, stmt.stop, stmt.step):
                e = expr_use_def(bound, ctx)
                ud.add_uses([u for u in e.uses if u not in init_defs])
                ud.add_must(e.must_defs)
                init_defs |= e.must_set
            ud.add_must([stmt.var])
            init_defs.add(stmt.var)
        else:
            # The while pre-check evaluates the condition once, always.
            ud.add_uses([u for u in cond_ud.uses if u not in excluded])
            ud.add_must([d for d in cond_ud.must_defs
                         if d not in excluded])
            init_defs |= cond_ud.must_set - excluded
        ud.add_uses([u for u in cond_ud.uses + body_ud.uses
                     if u not in excluded and u not in init_defs])
        # The body may run zero times: its defs are only may-defs.
        ud.add_may([d for d in body_ud.may_defs if d not in excluded])
        ud.add_may([d for d in cond_ud.may_defs if d not in excluded])
    elif isinstance(stmt, Call):
        sig = _signature(stmt.fn, ctx)
        for arg in stmt.args:
            e = expr_use_def(arg, ctx)
            # Earlier arguments' token defs shadow later uses.
            ud.add_uses([u for u in e.uses if u not in ud.must_set])
            ud.add_must(e.must_defs)
        ud.add_uses([ord_var(a) for a in sig.chained_in
                     if ord_var(a) not in ud.must_set])
        ud.add_must(list(stmt.targets))
        ud.add_must([ord_var(a) for a in sig.chained_out])
    elif isinstance(stmt, Return):
        for e_ast in stmt.values:
            e = expr_use_def(e_ast, ctx)
            ud.add_uses([u for u in e.uses if u not in ud.must_set])
            ud.add_must(e.must_defs)
    else:
        raise ProgramError(f"unknown statement node {stmt!r}")
    ctx.facts[id(stmt)] = (stmt, ud)
    return ud


def _loop_parts(stmt, ctx) -> Tuple[UseDef, UseDef, Tuple[str, ...]]:
    """(body use/def incl. For counter update, cond use/def, parallel)."""
    body_ud = stmts_use_def(stmt.body, ctx)
    if isinstance(stmt, While):
        return body_ud, expr_use_def(stmt.cond, ctx), stmt.parallel
    assert isinstance(stmt, For)
    # The counter update uses/defs the counter after the body.
    counted = UseDef(list(body_ud.uses), list(body_ud.must_defs),
                     list(body_ud.may_defs))
    if stmt.var not in body_ud.must_set:
        counted.add_uses([stmt.var])
    counted.add_must([stmt.var])
    return counted, UseDef([stmt.var]), stmt.parallel


def stmts_use_def(stmts: Sequence[Stmt], ctx: AnalysisContext) -> UseDef:
    """Combined facts for a statement list in program order."""
    ud = UseDef()
    for stmt in stmts:
        s = stmt_use_def(stmt, ctx)
        # Uses of names an earlier statement must-defined are shadowed.
        ud.add_uses([u for u in s.uses if u not in ud.must_set])
        ud.add_must(s.must_defs)
        ud.add_may(s.may_defs)
    return ud


def needed_after(stmts: Sequence[Stmt], ctx: AnalysisContext,
                 after: Set[str]) -> List[Set[str]]:
    """For each statement of ``stmts``, the names needed once it has run.

    Those are the free uses of the rest of the list (what
    ``stmts_use_def(stmts[i + 1:]).uses`` holds, as a set) plus
    ``after``, derived in one backward pass instead of one suffix
    analysis per statement.
    """
    live: Set[str] = set()
    out: List[Set[str]] = []
    for stmt in reversed(stmts):
        out.append(live | after)
        s = stmt_use_def(stmt, ctx)
        live -= s.must_set
        live |= s.use_set
    out.reverse()
    return out


def _signature(fn: str, ctx: AnalysisContext) -> FnSig:
    sig = ctx.signatures.get(fn)
    if sig is None:
        raise ProgramError(
            f"call to {fn!r} before its definition (call graph must be "
            f"acyclic; convert general recursion to tail form)"
        )
    return sig


# ---------------------------------------------------------------------------
# Module-level scans
# ---------------------------------------------------------------------------


def stored_arrays(module: Module) -> Set[str]:
    """All arrays stored anywhere in the module."""
    out: Set[str] = set()

    def scan(stmts: Sequence[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, Store):
                out.add(s.array)
            elif isinstance(s, If):
                scan(s.then)
                scan(s.orelse)
            elif isinstance(s, (While, For)):
                scan(s.body)

    for fn in module.functions:
        scan(fn.body)
    return out


def called_functions(fn: Function) -> List[str]:
    """Functions called (transitively syntactically) by ``fn``'s body."""
    out: List[str] = []

    def scan(stmts: Sequence[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, Call):
                if s.fn not in out:
                    out.append(s.fn)
            elif isinstance(s, If):
                scan(s.then)
                scan(s.orelse)
            elif isinstance(s, (While, For)):
                scan(s.body)

    scan(fn.body)
    return out


def function_order(module: Module) -> List[Function]:
    """Functions in callee-first order; rejects call-graph cycles."""
    by_name = {f.name: f for f in module.functions}
    state: Dict[str, int] = {}
    order: List[Function] = []

    def visit(name: str, stack: Tuple[str, ...]) -> None:
        st = state.get(name, 0)
        if st == 2:
            return
        if st == 1:
            cycle = " -> ".join(stack + (name,))
            raise ProgramError(
                f"recursive call graph ({cycle}); convert general "
                f"recursion to tail form with an explicit stack "
                f"(paper Sec. V)"
            )
        if name not in by_name:
            raise ProgramError(f"call to undefined function {name!r}")
        state[name] = 1
        for callee in called_functions(by_name[name]):
            visit(callee, stack + (name,))
        state[name] = 2
        order.append(by_name[name])

    for f in module.functions:
        visit(f.name, ())
    return order


def parallel_stored_arrays(fn: Function,
                           signatures: Dict[str, FnSig]) -> Set[str]:
    """Arrays parallel-stored by ``fn`` (transitively through calls)."""
    out: Set[str] = set()

    def scan(stmts: Sequence[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, (While, For)):
                out.update(s.parallel)
                scan(s.body)
            elif isinstance(s, If):
                scan(s.then)
                scan(s.orelse)
            elif isinstance(s, Call):
                sig = signatures.get(s.fn)
                if sig is not None:
                    out.update(sig.poisons)

    scan(fn.body)
    return out
