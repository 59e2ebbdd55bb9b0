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
statement's :class:`UseDef`, and each statement list's, by identity,
so nested bodies are not re-analysed at every enclosing level nor when
they are lowered, and :func:`needed_after` derives
a list's liveness in one backward pass. Memoized facts are shared by
every reader for the rest of that lowering and are never mutated;
code that needs different facts builds a new :class:`UseDef`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, KeysView, List, Sequence, Set, Tuple

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
    #: ``id(stmt) -> (stmt, facts)``, and the same for statement
    #: lists. Statements and lists are mutable and unhashable, so they
    #: are keyed by identity; the entry keeps the statement (or list)
    #: alive so its id is not reused while the memo lives.
    facts: Dict[int, Tuple[object, UseDef]] = field(default_factory=dict)

    def is_ordered(self, array: str) -> bool:
        return array in self.ordered_arrays


class UseDef:
    """Ordered, duplicate-free use/def facts for a statement (list).

    Each kind of fact is kept in a dict used as an insertion-ordered
    set (name -> None; adding a name already present keeps its first
    position): ``used``, ``must`` and ``may``. ``uses``, ``must_defs``
    and ``may_defs`` list the names in order, and ``use_set``,
    ``must_set`` and ``may_set`` are set-like views of them. Read
    them, never mutate them.
    """

    __slots__ = ("used", "must", "may")

    def __init__(self) -> None:
        self.used: Dict[str, None] = {}
        self.must: Dict[str, None] = {}
        self.may: Dict[str, None] = {}

    @property
    def uses(self) -> List[str]:
        return list(self.used)

    @property
    def must_defs(self) -> List[str]:
        return list(self.must)

    @property
    def may_defs(self) -> List[str]:
        return list(self.may)

    @property
    def use_set(self) -> KeysView[str]:
        return self.used.keys()

    @property
    def must_set(self) -> KeysView[str]:
        return self.must.keys()

    @property
    def may_set(self) -> KeysView[str]:
        return self.may.keys()

    def __repr__(self) -> str:
        return (f"UseDef(uses={self.uses}, must_defs={self.must_defs}, "
                f"may_defs={self.may_defs})")


def expr_use_def(expr: Expr, ctx: AnalysisContext) -> UseDef:
    """Uses and order-token defs of evaluating ``expr`` once."""
    ud = UseDef()
    _expr_walk(expr, ctx.ordered_arrays, ud.used, ud.must)
    ud.may.update(ud.must)
    return ud


def _expr_walk(expr: Expr, ordered: Set[str], used: Dict[str, None],
               must: Dict[str, None]) -> None:
    """Add ``expr``'s uses not shadowed by ``must`` to ``used``, and
    its order-token defs to ``must``, in evaluation order."""
    if isinstance(expr, Const):
        return
    if isinstance(expr, Name):
        if expr.id not in must:
            used[expr.id] = None
        return
    if isinstance(expr, BinOp):
        _expr_walk(expr.lhs, ordered, used, must)
        _expr_walk(expr.rhs, ordered, used, must)
        return
    if isinstance(expr, UnOp):
        _expr_walk(expr.operand, ordered, used, must)
        return
    if isinstance(expr, Cond):
        _expr_walk(expr.cond, ordered, used, must)
        _expr_walk(expr.then, ordered, used, must)
        _expr_walk(expr.orelse, ordered, used, must)
        return
    if isinstance(expr, LoadExpr):
        _expr_walk(expr.index, ordered, used, must)
        if expr.array in ordered:
            tok = ORD_PREFIX + expr.array
            if tok not in must:
                used[tok] = None
            must[tok] = None
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
    used, must = ud.used, ud.must
    ordered = ctx.ordered_arrays
    # Expressions evaluated one after another are walked into the
    # statement's own facts: the token defs of earlier ones shadow the
    # uses of later ones. Every def of these statements is a must-def,
    # so their may-defs are their must-defs.
    if isinstance(stmt, Assign):
        _expr_walk(stmt.expr, ordered, used, must)
        must[stmt.name] = None
    elif isinstance(stmt, Store):
        _expr_walk(stmt.index, ordered, used, must)
        _expr_walk(stmt.value, ordered, used, must)
        if stmt.array in ordered:
            tok = ORD_PREFIX + stmt.array
            if tok not in must:
                used[tok] = None
            must[tok] = None
    elif isinstance(stmt, If):
        _expr_walk(stmt.cond, ordered, used, must)
        then_ud = stmts_use_def(stmt.then, ctx)
        else_ud = stmts_use_def(stmt.orelse, ctx)
        for u in chain(then_ud.used, else_ud.used):
            if u not in must:
                used[u] = None
        else_must = else_ud.must
        for d in then_ud.must:
            if d in else_must:
                must[d] = None
        ud.may.update(must)
        ud.may.update(then_ud.may)
        ud.may.update(else_ud.may)
        ctx.facts[id(stmt)] = (stmt, ud)
        return ud
    elif isinstance(stmt, (While, For)):
        body_ud = stmts_use_def(stmt.body, ctx)
        excluded = {ORD_PREFIX + a for a in stmt.parallel}
        if isinstance(stmt, For):
            # Counter init and bound evaluation always happen, before
            # the body; their defs shadow body uses. The counter test
            # and update only touch the counter, which they shadow.
            for bound in (stmt.start, stmt.stop, stmt.step):
                _expr_walk(bound, ordered, used, must)
            must[stmt.var] = None
            cond_used: Dict[str, None] = {}
            cond_may: Dict[str, None] = {}
        else:
            # The while pre-check evaluates the condition once, always.
            cond_ud = expr_use_def(stmt.cond, ctx)
            for u in cond_ud.used:
                if u not in excluded:
                    used[u] = None
            for d in cond_ud.must:
                if d not in excluded:
                    must[d] = None
            cond_used, cond_may = cond_ud.used, cond_ud.may
        for u in chain(cond_used, body_ud.used):
            if u not in excluded and u not in must:
                used[u] = None
        # The body may run zero times: its defs are only may-defs.
        may = ud.may
        may.update(must)
        for d in chain(body_ud.may, cond_may):
            if d not in excluded:
                may[d] = None
        ctx.facts[id(stmt)] = (stmt, ud)
        return ud
    elif isinstance(stmt, Call):
        sig = _signature(stmt.fn, ctx)
        for arg in stmt.args:
            _expr_walk(arg, ordered, used, must)
        for a in sig.chained_in:
            tok = ORD_PREFIX + a
            if tok not in must:
                used[tok] = None
        must.update(dict.fromkeys(stmt.targets))
        for a in sig.chained_out:
            must[ORD_PREFIX + a] = None
    elif isinstance(stmt, Return):
        for e_ast in stmt.values:
            _expr_walk(e_ast, ordered, used, must)
    else:
        raise ProgramError(f"unknown statement node {stmt!r}")
    ud.may.update(must)
    ctx.facts[id(stmt)] = (stmt, ud)
    return ud


def stmts_use_def(stmts: Sequence[Stmt], ctx: AnalysisContext) -> UseDef:
    """Combined facts for a statement list in program order, computed
    once per ``ctx`` (a branch or loop body is read again when it is
    lowered)."""
    hit = ctx.facts.get(id(stmts))
    if hit is not None:
        return hit[1]
    ud = UseDef()
    used, must, may = ud.used, ud.must, ud.may
    for stmt in stmts:
        s = stmt_use_def(stmt, ctx)
        # Uses of names an earlier statement must-defined are shadowed.
        for u in s.used:
            if u not in must:
                used[u] = None
        must.update(s.must)
        may.update(s.must)
        may.update(s.may)
    ctx.facts[id(stmts)] = (stmts, ud)
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
        live.difference_update(s.must)
        live.update(s.used)
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
#
# Each recursive step is a module-level function: a nested one would
# close over itself, a reference cycle that keeps the scanned program
# alive until the cyclic collector runs.


def stored_arrays(module: Module) -> Set[str]:
    """All arrays stored anywhere in the module."""
    out: Set[str] = set()
    for fn in module.functions:
        _scan_stores(fn.body, out)
    return out


def _scan_stores(stmts: Sequence[Stmt], out: Set[str]) -> None:
    for s in stmts:
        if isinstance(s, Store):
            out.add(s.array)
        elif isinstance(s, If):
            _scan_stores(s.then, out)
            _scan_stores(s.orelse, out)
        elif isinstance(s, (While, For)):
            _scan_stores(s.body, out)


def called_functions(fn: Function) -> List[str]:
    """Functions called (transitively syntactically) by ``fn``'s body."""
    out: List[str] = []
    _scan_calls(fn.body, out)
    return out


def _scan_calls(stmts: Sequence[Stmt], out: List[str]) -> None:
    for s in stmts:
        if isinstance(s, Call):
            if s.fn not in out:
                out.append(s.fn)
        elif isinstance(s, If):
            _scan_calls(s.then, out)
            _scan_calls(s.orelse, out)
        elif isinstance(s, (While, For)):
            _scan_calls(s.body, out)


def function_order(module: Module) -> List[Function]:
    """Functions in callee-first order; rejects call-graph cycles."""
    by_name = {f.name: f for f in module.functions}
    state: Dict[str, int] = {}
    order: List[Function] = []
    for f in module.functions:
        _visit_function(by_name, f.name, (), state, order)
    return order


def _visit_function(by_name: Dict[str, Function], name: str,
                    stack: Tuple[str, ...], state: Dict[str, int],
                    order: List[Function]) -> None:
    """Depth-first post-order step of :func:`function_order`
    (``state``: 1 on the stack, 2 done)."""
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
        _visit_function(by_name, callee, stack + (name,), state, order)
    state[name] = 2
    order.append(by_name[name])


def parallel_stored_arrays(fn: Function,
                           signatures: Dict[str, FnSig]) -> Set[str]:
    """Arrays parallel-stored by ``fn`` (transitively through calls)."""
    out: Set[str] = set()
    _scan_parallel(fn.body, signatures, out)
    return out


def _scan_parallel(stmts: Sequence[Stmt], signatures: Dict[str, FnSig],
                   out: Set[str]) -> None:
    for s in stmts:
        if isinstance(s, (While, For)):
            out.update(s.parallel)
            _scan_parallel(s.body, signatures, out)
        elif isinstance(s, If):
            _scan_parallel(s.then, signatures, out)
            _scan_parallel(s.orelse, signatures, out)
        elif isinstance(s, Call):
            sig = signatures.get(s.fn)
            if sig is not None:
                out.update(sig.poisons)
