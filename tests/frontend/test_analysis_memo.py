"""The per-lowering use/def memo: sound, fresh per lowering, and linear.

``stmt_use_def`` memoizes each statement's facts in the lowering's
``AnalysisContext`` and ``needed_after`` derives a list's liveness in
one backward pass. The reference below is the from-scratch analysis
the memo replaced (no memo, duplicate checks that rebuild a set per
add); the memoized facts of every statement, every statement list and
every suffix must equal what it computes.
"""

import gc
import weakref
from collections import Counter
from typing import List, Set

import pytest

from repro.errors import ProgramError
from repro.frontend import analysis as an
from repro.frontend.ast import (
    Assign,
    BinOp,
    Call,
    Cond,
    Const,
    For,
    Function,
    If,
    LoadExpr,
    Module,
    Name,
    Return,
    Store,
    UnOp,
    While,
)
from repro.frontend.dsl import c, v
from repro.frontend.lower import _ModuleLowerer, lower_module
from repro.workloads.randomprog import random_module

from tests.frontend.conftest import run_main


# ---------------------------------------------------------------------------
# Reference: the analysis without a memo
# ---------------------------------------------------------------------------


class RefUseDef:
    def __init__(self):
        self.uses: List[str] = []
        self.must_defs: List[str] = []
        self.may_defs: List[str] = []

    def _add(self, bucket, names):
        seen = set(bucket)
        for n in names:
            if n not in seen:
                bucket.append(n)
                seen.add(n)

    def add_uses(self, names):
        self._add(self.uses, names)

    def add_must(self, names):
        self._add(self.must_defs, names)
        self._add(self.may_defs, names)

    def add_may(self, names):
        self._add(self.may_defs, names)


def ref_expr_use_def(expr, ctx):
    ud = RefUseDef()
    _ref_expr_walk(expr, ctx, ud, set())
    return ud


def _ref_expr_walk(expr, ctx, ud, defined):
    if isinstance(expr, Const):
        return
    if isinstance(expr, Name):
        if expr.id not in defined:
            ud.add_uses([expr.id])
        return
    if isinstance(expr, BinOp):
        _ref_expr_walk(expr.lhs, ctx, ud, defined)
        _ref_expr_walk(expr.rhs, ctx, ud, defined)
        return
    if isinstance(expr, UnOp):
        _ref_expr_walk(expr.operand, ctx, ud, defined)
        return
    if isinstance(expr, Cond):
        _ref_expr_walk(expr.cond, ctx, ud, defined)
        _ref_expr_walk(expr.then, ctx, ud, defined)
        _ref_expr_walk(expr.orelse, ctx, ud, defined)
        return
    assert isinstance(expr, LoadExpr)
    _ref_expr_walk(expr.index, ctx, ud, defined)
    if ctx.is_ordered(expr.array):
        tok = an.ord_var(expr.array)
        if tok not in defined:
            ud.add_uses([tok])
        defined.add(tok)
        ud.add_must([tok])


def ref_stmt_use_def(stmt, ctx):
    ud = RefUseDef()
    if isinstance(stmt, Assign):
        e = ref_expr_use_def(stmt.expr, ctx)
        ud.add_uses(e.uses)
        ud.add_must(e.must_defs)
        ud.add_must([stmt.name])
    elif isinstance(stmt, Store):
        e1 = ref_expr_use_def(stmt.index, ctx)
        e2 = ref_expr_use_def(stmt.value, ctx)
        ud.add_uses(e1.uses)
        ud.add_must(e1.must_defs)
        shadowed = set(e1.must_defs)
        ud.add_uses([u for u in e2.uses if u not in shadowed])
        ud.add_must(e2.must_defs)
        if ctx.is_ordered(stmt.array):
            tok = an.ord_var(stmt.array)
            if tok not in set(ud.must_defs):
                ud.add_uses([tok])
            ud.add_must([tok])
    elif isinstance(stmt, If):
        e = ref_expr_use_def(stmt.cond, ctx)
        ud.add_uses(e.uses)
        ud.add_must(e.must_defs)
        shadowed = set(ud.must_defs)
        then_ud = ref_stmts_use_def(stmt.then, ctx)
        else_ud = ref_stmts_use_def(stmt.orelse, ctx)
        ud.add_uses([u for u in then_ud.uses + else_ud.uses
                     if u not in shadowed])
        both = set(then_ud.must_defs) & set(else_ud.must_defs)
        ud.add_must([d for d in then_ud.must_defs if d in both])
        ud.add_may(then_ud.may_defs)
        ud.add_may(else_ud.may_defs)
    elif isinstance(stmt, (While, For)):
        body_ud, cond_ud, parallel = _ref_loop_parts(stmt, ctx)
        excluded = {an.ord_var(a) for a in parallel}
        init_defs: Set[str] = set()
        if isinstance(stmt, For):
            for bound in (stmt.start, stmt.stop, stmt.step):
                e = ref_expr_use_def(bound, ctx)
                ud.add_uses([u for u in e.uses if u not in init_defs])
                ud.add_must(e.must_defs)
                init_defs |= set(e.must_defs)
            ud.add_must([stmt.var])
            init_defs.add(stmt.var)
        else:
            ud.add_uses([u for u in cond_ud.uses if u not in excluded])
            ud.add_must([d for d in cond_ud.must_defs
                         if d not in excluded])
            init_defs |= set(cond_ud.must_defs) - excluded
        ud.add_uses([u for u in cond_ud.uses + body_ud.uses
                     if u not in excluded and u not in init_defs])
        ud.add_may([d for d in body_ud.may_defs if d not in excluded])
        ud.add_may([d for d in cond_ud.may_defs if d not in excluded])
    elif isinstance(stmt, Call):
        sig = ctx.signatures[stmt.fn]
        shadowed: Set[str] = set()
        for arg in stmt.args:
            e = ref_expr_use_def(arg, ctx)
            ud.add_uses([u for u in e.uses if u not in shadowed])
            ud.add_must(e.must_defs)
            shadowed |= set(e.must_defs)
        ud.add_uses([an.ord_var(a) for a in sig.chained_in
                     if an.ord_var(a) not in shadowed])
        ud.add_must(list(stmt.targets))
        ud.add_must([an.ord_var(a) for a in sig.chained_out])
    else:
        assert isinstance(stmt, Return)
        shadowed = set()
        for e_ast in stmt.values:
            e = ref_expr_use_def(e_ast, ctx)
            ud.add_uses([u for u in e.uses if u not in shadowed])
            ud.add_must(e.must_defs)
            shadowed |= set(e.must_defs)
    return ud


def _ref_loop_parts(stmt, ctx):
    if isinstance(stmt, While):
        body_ud = ref_stmts_use_def(stmt.body, ctx)
        cond_ud = ref_expr_use_def(stmt.cond, ctx)
        return body_ud, cond_ud, stmt.parallel
    body_ud = ref_stmts_use_def(stmt.body, ctx)
    if stmt.var not in set(body_ud.must_defs):
        body_ud.add_uses([stmt.var])
    body_ud.add_must([stmt.var])
    cond_ud = RefUseDef()
    cond_ud.add_uses([stmt.var])
    return body_ud, cond_ud, stmt.parallel


def ref_stmts_use_def(stmts, ctx):
    ud = RefUseDef()
    shadowed: Set[str] = set()
    for stmt in stmts:
        s = ref_stmt_use_def(stmt, ctx)
        ud.add_uses([u for u in s.uses if u not in shadowed])
        ud.add_must(s.must_defs)
        ud.add_may(s.may_defs)
        shadowed |= set(s.must_defs)
    return ud


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _lists(stmts):
    """Every statement list nested in ``stmts``, ``stmts`` first."""
    yield stmts
    for s in stmts:
        if isinstance(s, If):
            yield from _lists(s.then)
            yield from _lists(s.orelse)
        elif isinstance(s, (While, For)):
            yield from _lists(s.body)


def _facts(ud):
    return (list(ud.uses), list(ud.must_defs), list(ud.may_defs))


def _lowered(module):
    """(lowerer after lowering, module it lowered)."""
    ml = _ModuleLowerer(module)
    ml.lower()
    return ml, ml.module


def _statements(module):
    return [s for fn in module.functions for body in _lists(fn.body)
            for s in body]


# ---------------------------------------------------------------------------
# Soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", range(6))
def test_memoized_facts_match_from_scratch_analysis(chunk):
    after = {"$after"}
    for seed in range(chunk * 50, chunk * 50 + 50):
        ml, module = _lowered(random_module(seed))
        ctx = ml.ctx
        ref_ctx = an.AnalysisContext(ordered_arrays=set(ctx.ordered_arrays),
                                     signatures=dict(ctx.signatures))
        for stmt in _statements(module):
            # Every statement was analysed during the lowering.
            stored, memo = ctx.facts[id(stmt)]
            assert stored is stmt
            assert _facts(memo) == _facts(ref_stmt_use_def(stmt, ref_ctx))
            assert memo.use_set == set(memo.uses)
            assert memo.must_set == set(memo.must_defs)
            assert memo.may_set == set(memo.may_defs)
        for fn in module.functions:
            for stmts in _lists(fn.body):
                stmts = list(stmts)
                needed = an.needed_after(stmts, ctx, after)
                assert len(needed) == len(stmts)
                for i in range(len(stmts) + 1):
                    suffix = stmts[i:]
                    want = ref_stmts_use_def(suffix, ref_ctx)
                    got = an.stmts_use_def(suffix, ctx)
                    assert _facts(got) == _facts(want), (seed, fn.name, i)
                    if i:
                        assert needed[i - 1] == set(want.uses) | after


def test_a_second_lowering_sees_a_mutated_statement():
    inner = Assign("acc", v("acc") + v("i"))
    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            Assign("k", v("n") + 1),
            For("i", 0, v("n"), [inner]),
            Return([v("acc")]),
        ]),
    ])
    assert run_main(mod, [4])[0] == (6,)
    # Now the body also reads ``k``, which the loop must carry: facts
    # kept from the first lowering would leave it out of the block.
    inner.expr = v("acc") + v("i") * v("k")
    assert run_main(mod, [4])[0] == (30,)


def test_memo_does_not_outlive_its_lowering():
    stmt = Assign("y", v("x") + 1)
    mod = Module([Function("main", ["x"], [stmt, Return([v("y")])])])
    lower_module(mod)
    alive = weakref.ref(stmt)
    del mod, stmt
    gc.collect()
    assert alive() is None


def test_for_counter_does_not_leak_into_shared_body_facts():
    body = [Assign("x", v("i") * 2)]
    loop = For("i", 0, v("n"), body)
    ctx = an.AnalysisContext()
    an.stmt_use_def(loop, ctx)
    # The counter update belongs to the loop, not to its body's facts.
    assert _facts(an.stmts_use_def(body, ctx)) == (["i"], ["x"], ["x"])
    assert _facts(an.stmt_use_def(body[0], ctx)) == (["i"], ["x"], ["x"])


# ---------------------------------------------------------------------------
# Complexity: each statement is analysed once per lowering
# ---------------------------------------------------------------------------


def _straight_line(n):
    body = [Assign("x0", v("a") + 1)]
    for i in range(1, n):
        body.append(Assign(f"x{i}", v(f"x{i - 1}") + v(f"x{i // 2}")))
    body.append(Return([v(f"x{n - 1}")]))
    return Module([Function("main", ["a"], body)])


def _if_nest(depth):
    body = [Assign("x", v("x") + 1)]
    for k in range(depth):
        body = [If(v("n") > k, body)]
    return Module([Function("main", ["n"], [
        Assign("x", c(0)), *body, Return([v("x")]),
    ])])


@pytest.mark.parametrize("make, size", [(_straight_line, 2000),
                                        (_if_nest, 200)],
                         ids=["straight-2000", "if-nest-200"])
def test_lowering_analyses_each_statement_once(make, size, monkeypatch):
    module = make(size)
    real = an.stmt_use_def
    calls = Counter()
    analysed = Counter()

    def counting(stmt, ctx):
        calls[id(stmt)] += 1
        if id(stmt) not in ctx.facts:
            analysed[id(stmt)] += 1
            # Fail fast: a repeat would make the old quadratic path
            # run for minutes before any assertion below.
            assert analysed[id(stmt)] == 1, f"{stmt!r} analysed twice"
        return real(stmt, ctx)

    monkeypatch.setattr(an, "stmt_use_def", counting)
    lower_module(module)
    n = len(_statements(module))
    assert set(analysed) == {id(s) for s in _statements(module)}
    # Lookups are linear too: the analysis itself, the backward
    # liveness pass and the enclosing If's own read of its branches.
    assert sum(calls.values()) <= 3 * n


# ---------------------------------------------------------------------------
# Nesting depth
# ---------------------------------------------------------------------------


def test_deep_if_nest_still_lowers():
    lower_module(_if_nest(275))


def _for_nest(depth):
    body = [Assign("x", v("x") + 1)]
    for k in range(depth):
        body = [For(f"i{k}x", 0, v("n"), body)]
    return Module([Function("main", ["n"], [
        Assign("x", c(0)), *body, Return([v("x")]),
    ])])


@pytest.mark.parametrize("make", [_if_nest, _for_nest],
                         ids=["if", "for"])
def test_too_deep_nesting_is_a_program_error(make):
    with pytest.raises(ProgramError, match="nested too deeply"):
        lower_module(make(1000))
