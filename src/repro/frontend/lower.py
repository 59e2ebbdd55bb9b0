"""Lowering from the structured AST to the context IR.

This is the reproduction's compiler frontend (the paper's C -> UDIR
path, Sec. IV-C). It:

* splits the program into **concurrent blocks** at loop and function
  boundaries (each loop body becomes a tail-recursive LOOP block,
  entered via an abstract SPAWN transfer point);
* converts forward branches into **steer/merge** dataflow with a region
  tree, pre-steering every value a branch consumes so that tokens are
  produced and consumed under identical control guards (no leaks);
* threads **memory-order tokens** through loads and stores of mutable
  arrays, converting memory ordering into data dependencies; loop
  ``parallel`` annotations break the cross-iteration chain;
* discovers **loop-carried values** and loop results by use/def
  analysis, substituting loop-invariant constants as immediates;
* guarantees every op and every SPAWN has at least one *token* input
  (an all-immediate instruction could never fire under the dataflow
  firing rule), materializing a trigger via SELECT when needed.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence, Set

from repro.errors import ProgramError
from repro.frontend import analysis as an
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
from repro.ir.builder import BlockBuilder, ProgramBuilder
from repro.ir.ops import Op
from repro.ir.program import BlockKind, ContextProgram, Lit, Param, ValueRef
from repro.ir.validate import validate_program

#: Sentinel stored in the environment for variables whose definition is
#: control-dependent and was not merged (using them later is an error).
_COND_UNDEF = object()

_BINOP_TO_OP = {
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
    "<<": Op.SHL, ">>": Op.SHR, "&": Op.BAND, "|": Op.BOR, "^": Op.BXOR,
    "<": Op.LT, "<=": Op.LE, ">": Op.GT, ">=": Op.GE,
    "==": Op.EQ, "!=": Op.NE, "min": Op.MIN, "max": Op.MAX,
}
_UNOP_TO_OP = {"not": Op.NOT, "-": Op.NEG}

Env = Dict[str, object]  # name -> ValueRef | _COND_UNDEF


def lower_module(module: Module) -> ContextProgram:
    """Compile a structured module into a validated context program."""
    try:
        return _ModuleLowerer(module).lower()
    except RecursionError:
        raise ProgramError(
            "statements are nested too deeply to lower (Python's "
            f"recursion limit of {sys.getrecursionlimit()} was reached); "
            "flatten the nesting, e.g. by moving inner loops into "
            "functions"
        ) from None


class _ModuleLowerer:
    def __init__(self, module: Module):
        self.module = module
        self.pb = ProgramBuilder(entry=module.entry)
        stored = an.stored_arrays(module)
        declared = {a.name for a in module.arrays}
        missing = stored | _loaded_arrays(module)
        for a in sorted(missing - declared):
            raise ProgramError(f"array {a!r} used but not declared")
        for spec in module.arrays:
            if spec.read_only and spec.name in stored:
                raise ProgramError(
                    f"array {spec.name!r} declared read-only but stored to"
                )
            self.pb.declare_array(spec.name, spec.length, spec.read_only)
        self.ctx = an.AnalysisContext(ordered_arrays=set(stored))

    def lower(self) -> ContextProgram:
        for fn in an.function_order(self.module):
            _FunctionLowerer(self, fn).lower()
        program = self.pb.build()
        entry_sig = self.ctx.signatures[self.module.entry]
        program.meta["entry_declared_results"] = entry_sig.n_returns
        program.meta["entry_params"] = entry_sig.params
        validate_program(program)
        return program


def _loaded_arrays(module: Module) -> Set[str]:
    out: Set[str] = set()
    for fn in module.functions:
        _scan_loads(fn.body, out)
    return out


# The scans recurse through module-level functions: a nested one would
# close over itself, a reference cycle that keeps the scanned module
# alive until the cyclic collector runs.
def _scan_loads(stmts: Sequence[Stmt], out: Set[str]) -> None:
    for s in stmts:
        if isinstance(s, Assign):
            _scan_expr_loads(s.expr, out)
        elif isinstance(s, Store):
            _scan_expr_loads(s.index, out)
            _scan_expr_loads(s.value, out)
        elif isinstance(s, If):
            _scan_expr_loads(s.cond, out)
            _scan_loads(s.then, out)
            _scan_loads(s.orelse, out)
        elif isinstance(s, While):
            _scan_expr_loads(s.cond, out)
            _scan_loads(s.body, out)
        elif isinstance(s, For):
            _scan_expr_loads(s.start, out)
            _scan_expr_loads(s.stop, out)
            _scan_expr_loads(s.step, out)
            _scan_loads(s.body, out)
        elif isinstance(s, Call):
            for a in s.args:
                _scan_expr_loads(a, out)
        elif isinstance(s, Return):
            for e in s.values:
                _scan_expr_loads(e, out)


def _scan_expr_loads(e: Expr, out: Set[str]) -> None:
    if isinstance(e, LoadExpr):
        out.add(e.array)
        _scan_expr_loads(e.index, out)
    elif isinstance(e, BinOp):
        _scan_expr_loads(e.lhs, out)
        _scan_expr_loads(e.rhs, out)
    elif isinstance(e, UnOp):
        _scan_expr_loads(e.operand, out)
    elif isinstance(e, Cond):
        _scan_expr_loads(e.cond, out)
        _scan_expr_loads(e.then, out)
        _scan_expr_loads(e.orelse, out)


class _FunctionLowerer:
    """Lowers one function (and all loop blocks nested in it)."""

    def __init__(self, ml: _ModuleLowerer, fn: Function):
        self.ml = ml
        self.fn = fn
        self.pb = ml.pb
        self.ctx = ml.ctx
        self.poisoned: Set[str] = set()
        self._loop_counter = 0
        self._loop_names: Set[str] = set()
        self._tmp_counter = 0
        # A zero-arg callable producing a token-valued ValueRef valid
        # in the current control region (used to materialize immediates
        # into tokens). Lazy so unused region triggers are never built.
        self._trigger = None
        self._return_refs: Optional[List[ValueRef]] = None

    # ------------------------------------------------------------------
    def lower(self) -> None:
        fn = self.fn
        if not fn.params:
            raise ProgramError(
                f"function {fn.name!r} must take at least one parameter "
                f"(dataflow contexts are triggered by argument arrival)"
            )
        _reject_nested_returns(fn, fn.body, True)
        ud = an.stmts_use_def(fn.body, self.ctx)
        undefined = [u for u in ud.uses
                     if not an.is_ord_var(u) and u not in fn.params]
        if undefined:
            raise ProgramError(
                f"function {fn.name!r} uses undefined variables: "
                f"{undefined}"
            )
        chained_in = sorted(
            an.ord_array(u) for u in ud.uses if an.is_ord_var(u)
        )
        poisons = an.parallel_stored_arrays(fn, self.ctx.signatures)
        chained_out = sorted(
            a for a in {an.ord_array(d) for d in ud.may_defs
                        if an.is_ord_var(d)}
            if a not in poisons
        )
        params_all = fn.params + tuple(an.ord_var(a) for a in chained_in)
        bb = self.pb.new_block(fn.name, BlockKind.DAG, params_all)
        env: Env = {name: Param(i) for i, name in enumerate(params_all)}
        self._trigger = lambda: Param(0)
        needed_after = {an.ord_var(a) for a in chained_out}
        self.lower_stmts(bb, env, list(fn.body), needed_after)
        results: List[ValueRef] = list(self._return_refs or [])
        for a in chained_out:
            results.append(self.env_get(env, an.ord_var(a)))
        bb.set_return(results)
        self.pb.finish_block(bb)
        self.ctx.signatures[fn.name] = an.FnSig(
            name=fn.name,
            params=fn.params,
            n_returns=fn.n_returns,
            chained_in=tuple(chained_in),
            chained_out=tuple(chained_out),
            poisons=tuple(sorted(poisons)),
        )

    # ------------------------------------------------------------------
    # Environment helpers
    # ------------------------------------------------------------------
    def env_get(self, env: Env, name: str) -> ValueRef:
        val = env.get(name)
        if val is _COND_UNDEF:
            raise ProgramError(
                f"{self.fn.name}: {name!r} is only conditionally defined "
                f"at this point (define it on all paths first)"
            )
        if val is None:
            if an.is_ord_var(name):
                return Lit(0)
            raise ProgramError(
                f"{self.fn.name}: use of undefined variable {name!r}"
            )
        return val

    def _materialize(self, bb: BlockBuilder, lit: Lit) -> ValueRef:
        """Turn an immediate into a token tied to context progress."""
        assert self._trigger is not None
        return bb.emit(Op.SELECT, (Lit(1), lit, self._trigger())).result()

    def _ensure_token_inputs(self, bb: BlockBuilder,
                             refs: List[ValueRef]) -> List[ValueRef]:
        if refs and all(isinstance(r, Lit) for r in refs):
            refs = list(refs)
            refs[0] = self._materialize(bb, refs[0])
        return refs

    def _check_array(self, array: str) -> None:
        if array in self.poisoned:
            raise ProgramError(
                f"{self.fn.name}: access to array {array!r} after a "
                f"parallel-store loop; ordering is no longer tracked"
            )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def lower_expr(self, bb: BlockBuilder, env: Env, e: Expr) -> ValueRef:
        if isinstance(e, Const):
            return Lit(e.value)
        if isinstance(e, Name):
            return self.env_get(env, e.id)
        if isinstance(e, BinOp):
            lhs = self.lower_expr(bb, env, e.lhs)
            rhs = self.lower_expr(bb, env, e.rhs)
            return bb.pure(_BINOP_TO_OP[e.op], lhs, rhs)
        if isinstance(e, UnOp):
            return bb.pure(_UNOP_TO_OP[e.op],
                           self.lower_expr(bb, env, e.operand))
        if isinstance(e, Cond):
            c = self.lower_expr(bb, env, e.cond)
            a = self.lower_expr(bb, env, e.then)
            b = self.lower_expr(bb, env, e.orelse)
            return bb.pure(Op.SELECT, c, a, b)
        if isinstance(e, LoadExpr):
            return self._lower_load(bb, env, e)
        raise ProgramError(f"unknown expression node {e!r}")

    def _lower_load(self, bb: BlockBuilder, env: Env,
                    e: LoadExpr) -> ValueRef:
        idx = self.lower_expr(bb, env, e.index)
        if self.ctx.is_ordered(e.array):
            self._check_array(e.array)
            tok_name = an.ord_var(e.array)
            tok = self.env_get(env, tok_name)
            order = None if isinstance(tok, Lit) else tok
            if order is None and isinstance(idx, Lit):
                idx = self._materialize(bb, idx)
            value, new_tok = bb.load(e.array, idx, order)
            env[tok_name] = new_tok
            return value
        if isinstance(idx, Lit):
            idx = self._materialize(bb, idx)
        value, _ = bb.load(e.array, idx, None)
        return value

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def lower_stmts(self, bb: BlockBuilder, env: Env, stmts: Sequence[Stmt],
                    needed_after: Set[str]) -> None:
        needed = an.needed_after(stmts, self.ctx, needed_after)
        for stmt, needed_here in zip(stmts, needed):
            self.lower_stmt(bb, env, stmt, needed_here)

    def lower_stmt(self, bb: BlockBuilder, env: Env, stmt: Stmt,
                   needed: Set[str]) -> None:
        if isinstance(stmt, Assign):
            env[stmt.name] = self.lower_expr(bb, env, stmt.expr)
        elif isinstance(stmt, Store):
            self._lower_store(bb, env, stmt)
        elif isinstance(stmt, If):
            self._lower_if(bb, env, stmt, needed)
        elif isinstance(stmt, While):
            self._lower_while(bb, env, stmt, needed)
        elif isinstance(stmt, For):
            self._lower_for(bb, env, stmt, needed)
        elif isinstance(stmt, Call):
            self._lower_call(bb, env, stmt)
        elif isinstance(stmt, Return):
            self._return_refs = [self.lower_expr(bb, env, e)
                                 for e in stmt.values]
        else:
            raise ProgramError(f"unknown statement node {stmt!r}")

    def _lower_store(self, bb: BlockBuilder, env: Env, stmt: Store) -> None:
        self._check_array(stmt.array)
        idx = self.lower_expr(bb, env, stmt.index)
        val = self.lower_expr(bb, env, stmt.value)
        tok_name = an.ord_var(stmt.array)
        tok = self.env_get(env, tok_name)
        order = None if isinstance(tok, Lit) else tok
        if order is None and isinstance(idx, Lit) and isinstance(val, Lit):
            idx = self._materialize(bb, idx)
        env[tok_name] = bb.store(stmt.array, idx, val, order)

    # ------------------------------------------------------------------
    def _lower_call(self, bb: BlockBuilder, env: Env, stmt: Call) -> None:
        sig = self.ctx.signatures.get(stmt.fn)
        if sig is None:
            raise ProgramError(f"call to undefined function {stmt.fn!r}")
        if len(stmt.args) != len(sig.params):
            raise ProgramError(
                f"{stmt.fn!r} takes {len(sig.params)} args, "
                f"got {len(stmt.args)}"
            )
        if len(stmt.targets) != sig.n_returns:
            raise ProgramError(
                f"{stmt.fn!r} returns {sig.n_returns} values, "
                f"{len(stmt.targets)} targets given"
            )
        args = [self.lower_expr(bb, env, a) for a in stmt.args]
        for a in sig.chained_in:
            self._check_array(a)
            args.append(self.env_get(env, an.ord_var(a)))
        args = self._ensure_token_inputs(bb, args)
        sp = bb.spawn(stmt.fn, args,
                      n_results=sig.n_returns + len(sig.chained_out))
        for i, target in enumerate(stmt.targets):
            env[target] = sp.result(i)
        for j, a in enumerate(sig.chained_out):
            env[an.ord_var(a)] = sp.result(sig.n_returns + j)
        self.poisoned |= set(sig.poisons)

    # ------------------------------------------------------------------
    def _lower_if(self, bb: BlockBuilder, env: Env, stmt: If,
                  needed: Set[str]) -> None:
        d = self.lower_expr(bb, env, stmt.cond)
        if isinstance(d, Lit):
            branch = stmt.then if d.value else stmt.orelse
            self.lower_stmts(bb, env, branch, needed)
            return

        then_ud = an.stmts_use_def(stmt.then, self.ctx)
        else_ud = an.stmts_use_def(stmt.orelse, self.ctx)
        then_defs = then_ud.may_set
        else_defs = else_ud.may_set
        merge_vars = [x for x in dict.fromkeys(
            then_ud.may_defs + else_ud.may_defs
        ) if x in needed]
        merge_set = set(merge_vars)

        def branch_inputs(ud: an.UseDef, sense: bool) -> Dict[str, ValueRef]:
            # Values the branch consumes, plus originals needed for
            # nested merging of conditionally assigned merge vars.
            wanted = list(ud.uses)
            for x in merge_vars:
                if (x in ud.may_set and x not in ud.must_set
                        and x not in ud.use_set):
                    if env.get(x) is not None and env[x] is not _COND_UNDEF:
                        wanted.append(x)
            out: Dict[str, ValueRef] = {}
            for name in wanted:
                val = self.env_get(env, name)
                if isinstance(val, Lit):
                    out[name] = val
                else:
                    out[name] = bb.steer(d, val, sense)[0]
            return out

        then_in = branch_inputs(then_ud, True)
        else_in = branch_inputs(else_ud, False)

        # Originals steered to the side that does not assign a merge var.
        other_src: Dict[str, ValueRef] = {}
        dropped: Set[str] = set()
        for x in merge_vars:
            if x in then_defs and x in else_defs:
                continue
            orig = env.get(x)
            if orig is None and an.is_ord_var(x):
                orig = Lit(0)
            if orig is None or orig is _COND_UNDEF:
                dropped.add(x)
                continue
            sense = x not in then_defs  # original flows down the
            # side that does NOT reassign x
            table = then_in if sense else else_in
            if isinstance(orig, Lit):
                other_src[x] = orig
            elif x in table:
                other_src[x] = table[x]
            else:
                other_src[x] = bb.steer(d, orig, sense)[0]

        # Lazy region triggers: prefer a value already steered into the
        # branch; otherwise hoist a steer of the decider itself into the
        # parent region, but only if the branch actually needs one.
        parent_region = bb.current_region
        anchor = len(parent_region.items)

        def region_trigger(table: Dict[str, ValueRef], sense: bool):
            for val in table.values():
                if not isinstance(val, Lit):
                    return lambda: val
            cache: Dict[str, ValueRef] = {}

            def get() -> ValueRef:
                if "v" not in cache:
                    op = bb.emit_hoisted(parent_region, anchor, Op.STEER,
                                         (d, d), n_outputs=2, sense=sense)
                    cache["v"] = op.result(0)
                return cache["v"]

            return get

        trig_then = region_trigger(then_in, True)
        trig_else = region_trigger(else_in, False)

        saved_trigger = self._trigger
        bb.begin_if(d)
        tenv: Env = {k: val for k, val in env.items()
                     if isinstance(val, Lit)}
        tenv.update(then_in)
        self._trigger = trig_then
        self.lower_stmts(bb, tenv, stmt.then, merge_set)
        bb.begin_else()
        eenv: Env = {k: val for k, val in env.items()
                     if isinstance(val, Lit)}
        eenv.update(else_in)
        self._trigger = trig_else
        self.lower_stmts(bb, eenv, stmt.orelse, merge_set)
        bb.end_if()
        self._trigger = saved_trigger

        for x in then_defs | else_defs:
            if x not in merge_set:
                env[x] = _COND_UNDEF
        for x in merge_vars:
            if x in dropped:
                env[x] = _COND_UNDEF
                continue
            tsrc = tenv[x] if x in then_defs else other_src[x]
            esrc = eenv[x] if x in else_defs else other_src[x]
            if tsrc is _COND_UNDEF or esrc is _COND_UNDEF:
                env[x] = _COND_UNDEF
                continue
            if isinstance(tsrc, Lit) and isinstance(esrc, Lit):
                if tsrc.value == esrc.value:
                    env[x] = tsrc
                    continue
            env[x] = bb.merge(d, tsrc, esrc)

    # ------------------------------------------------------------------
    def _lower_for(self, bb: BlockBuilder, env: Env, stmt: For,
                   needed: Set[str]) -> None:
        """Desugar ``for`` into counter init + while, evaluating the
        bounds once (as invariants)."""
        self.lower_stmt(bb, env, Assign(stmt.var, stmt.start),
                        needed | {stmt.var})
        stop_expr: Expr = stmt.stop
        if not isinstance(stop_expr, (Const, Name)):
            tmp = self._fresh_tmp("stop")
            self.lower_stmt(bb, env, Assign(tmp, stop_expr), needed | {tmp})
            stop_expr = Name(tmp)
        step_expr: Expr = stmt.step
        if not isinstance(step_expr, (Const, Name)):
            tmp = self._fresh_tmp("step")
            self.lower_stmt(bb, env, Assign(tmp, step_expr), needed | {tmp})
            step_expr = Name(tmp)
        loop = While(
            cond=BinOp("<", Name(stmt.var), stop_expr),
            body=list(stmt.body) + [
                Assign(stmt.var, BinOp("+", Name(stmt.var), step_expr))
            ],
            parallel=stmt.parallel,
            tags=stmt.tags,
            label=stmt.label or f"for_{stmt.var}",
        )
        self._lower_while(bb, env, loop, needed)

    def _fresh_tmp(self, hint: str) -> str:
        self._tmp_counter += 1
        return f"${hint}{self._tmp_counter}"

    # ------------------------------------------------------------------
    def _lower_while(self, bb: BlockBuilder, env: Env, stmt: While,
                     needed: Set[str]) -> None:
        body_ud = an.stmts_use_def(stmt.body, self.ctx)
        cond_ud = an.expr_use_def(stmt.cond, self.ctx)
        excluded = {an.ord_var(a) for a in stmt.parallel}

        all_defs = (body_ud.may_set | cond_ud.may_set) - excluded
        may_defs = dict.fromkeys(body_ud.may_defs + cond_ud.may_defs)
        # Carried-value candidates, as an ordered set.
        p_cand = dict.fromkeys(
            p for p in body_ud.uses
            + [u for u in cond_ud.uses if u not in body_ud.must_set]
            if p not in excluded)
        # A variable the body only *may* assign but that is live after
        # the loop must also be carried: inner merges need its original
        # value on the not-assigned paths, and the exit must return its
        # latest value. Only externally defined variables qualify.
        for x in may_defs:
            if x in excluded or x in p_cand or x not in needed:
                continue
            val = env.get(x)
            if val is None and an.is_ord_var(x):
                val = Lit(0)
            if val is None or val is _COND_UNDEF:
                continue
            p_cand[x] = None
        # A loop result must have a definite value at the backedge:
        # either the body must-defines it every iteration, or an
        # original is carried in (the p_cand extension above). A var
        # that is only conditionally defined with no reaching original
        # cannot be returned; later reads correctly report it as
        # conditionally defined.
        must = body_ud.must_set | cond_ud.must_set

        def _definable(x: str) -> bool:
            if x in must or x in p_cand:
                return True
            val = env.get(x)
            if val is None and an.is_ord_var(x):
                return True
            return val is not None and val is not _COND_UNDEF

        results = [x for x in may_defs
                   if x not in excluded and x in needed and _definable(x)]
        result_set = set(results)

        # Pre-check the condition first so order tokens it produces
        # flow into the loop's initial arguments.
        d0 = self.lower_expr(bb, env, stmt.cond)

        # Partition candidates: loop-invariant immediates are
        # substituted; the rest become carried params.
        params: List[str] = []
        init_vals: List[ValueRef] = []
        subst: Dict[str, ValueRef] = {}
        for p in p_cand:
            val = self.env_get(env, p)
            if isinstance(val, Lit) and p not in all_defs:
                subst[p] = val
            else:
                params.append(p)
                init_vals.append(val)
        if not params:
            raise ProgramError(
                f"{self.fn.name}: loop carries no values; its condition "
                f"could never change"
            )

        # A constant-false pre-check means the loop never runs: skip
        # building its block entirely (it would be unreachable code).
        if isinstance(d0, Lit) and not d0.value:
            self._poison_parallel(stmt, env)
            return

        loop_name = self._fresh_loop_name(stmt)
        self._build_loop_block(loop_name, stmt, params, subst, results)
        if isinstance(d0, Lit):
            if d0.value:
                args = self._ensure_token_inputs(bb, list(init_vals))
                sp = bb.spawn(loop_name, args, n_results=len(results))
                for i, r in enumerate(results):
                    env[r] = sp.result(i)
                for x in all_defs:
                    if x not in result_set:
                        env[x] = _COND_UNDEF
            # Zero-trip constant-false loop: environment unchanged.
            self._poison_parallel(stmt, env)
            return

        args: List[ValueRef] = []
        first_steer: Optional[ValueRef] = None
        for val in init_vals:
            if isinstance(val, Lit):
                args.append(val)
            else:
                s = bb.steer(d0, val, True)[0]
                if first_steer is None:
                    first_steer = s
                args.append(s)
        if first_steer is not None:
            steered_trigger = first_steer
            trig_then = lambda: steered_trigger  # noqa: E731
        else:
            # All carried values are immediates; the spawn will need a
            # materialized trigger, so the steer is always consumed.
            fallback = bb.steer(d0, d0, True)[0]
            trig_then = lambda: fallback  # noqa: E731

        bypass: Dict[str, ValueRef] = {}
        dropped: Set[str] = set()
        for r in results:
            orig = env.get(r)
            if orig is None and an.is_ord_var(r):
                orig = Lit(0)
            if orig is None or orig is _COND_UNDEF:
                dropped.add(r)
                continue
            bypass[r] = (orig if isinstance(orig, Lit)
                         else bb.steer(d0, orig, False)[0])

        saved_trigger = self._trigger
        bb.begin_if(d0)
        self._trigger = trig_then
        spawn_args = list(args)
        if all(isinstance(a, Lit) for a in spawn_args):
            spawn_args[0] = self._materialize(bb, spawn_args[0])
        sp = bb.spawn(loop_name, spawn_args, n_results=len(results))
        bb.begin_else()
        bb.end_if()
        self._trigger = saved_trigger

        for x in all_defs:
            if x not in result_set:
                env[x] = _COND_UNDEF
        for i, r in enumerate(results):
            if r in dropped:
                env[r] = _COND_UNDEF
            else:
                env[r] = bb.merge(d0, sp.result(i), bypass[r])
        self._poison_parallel(stmt, env)

    def _poison_parallel(self, stmt: While, env: Env) -> None:
        for a in stmt.parallel:
            self.poisoned.add(a)
            env.pop(an.ord_var(a), None)

    def _fresh_loop_name(self, stmt: While) -> str:
        # Label and counter are joined without a separator, so label
        # ``x1`` at 1 and ``x`` at 11 would both give ``x11``: skip to
        # the next free counter value instead.
        label = stmt.label or "loop"
        while True:
            self._loop_counter += 1
            name = f"{self.fn.name}.{label}{self._loop_counter}"
            if name not in self._loop_names:
                self._loop_names.add(name)
                return name

    def _build_loop_block(self, loop_name: str, stmt: While,
                          params: List[str], subst: Dict[str, ValueRef],
                          results: List[str]) -> None:
        lbb = self.pb.new_block(loop_name, BlockKind.LOOP, params)
        lenv: Env = {p: Param(i) for i, p in enumerate(params)}
        lenv.update(subst)
        for a in stmt.parallel:
            lenv[an.ord_var(a)] = Lit(0)

        saved_trigger = self._trigger
        self._trigger = lambda: Param(0)
        cond_ud = an.expr_use_def(stmt.cond, self.ctx)
        needed_in_block = set(params) | set(results) | cond_ud.use_set
        self.lower_stmts(lbb, lenv, stmt.body, needed_in_block)
        d = self.lower_expr(lbb, lenv, stmt.cond)
        self._trigger = saved_trigger

        if isinstance(d, Lit):
            if d.value:
                raise ProgramError(
                    f"{self.fn.name}: loop condition is constant-true "
                    f"(infinite loop)"
                )
            # Constant-false after one iteration: still a valid loop.
        next_args = [self.env_get(lenv, p) for p in params]
        res_refs = [self.env_get(lenv, r) for r in results]
        lbb.set_loop(d, next_args, res_refs)
        lbb.block.tag_override = stmt.tags
        self.pb.finish_block(lbb)


def _reject_nested_returns(fn: Function, stmts: Sequence[Stmt],
                           top: bool) -> None:
    for s in stmts:
        if isinstance(s, Return) and not top:
            raise ProgramError(
                f"function {fn.name!r}: Return must be the last "
                f"top-level statement"
            )
        if isinstance(s, If):
            _reject_nested_returns(fn, s.then, False)
            _reject_nested_returns(fn, s.orelse, False)
        elif isinstance(s, (While, For)):
            _reject_nested_returns(fn, s.body, False)
