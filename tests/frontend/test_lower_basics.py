"""Frontend lowering: straight-line code, branches, and expressions."""

import pytest

from repro.errors import ProgramError
from repro.frontend.ast import (
    ArraySpec,
    Assign,
    Call,
    Cond,
    For,
    Function,
    If,
    Module,
    Return,
    Store,
)
from repro.frontend.dsl import c, load, v
from repro.frontend.lower import lower_module


def test_arithmetic_chain(run):
    mod = Module([
        Function("main", ["x", "y"], [
            Assign("a", v("x") + v("y") * 2),
            Assign("b", (v("a") - 1) % 7),
            Return([v("b"), v("a")]),
        ]),
    ])
    (b, a), _, _ = run(mod, [5, 3])
    assert a == 11 and b == 10 % 7


def test_comparisons_and_select(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("big", Cond(v("x") > 10, v("x") * 2, v("x") - 1)),
            Return([v("big")]),
        ]),
    ])
    assert run(mod, [20])[0] == (40,)
    assert run(mod, [3])[0] == (2,)


def test_if_merges_assigned_variable(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("y", c(0)),
            If(v("x") > 5, [Assign("y", v("x") + 100)],
               [Assign("y", v("x") - 100)]),
            Return([v("y")]),
        ]),
    ])
    assert run(mod, [7])[0] == (107,)
    assert run(mod, [2])[0] == (-98,)


def test_one_sided_if_keeps_original(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("y", c(1)),
            If(v("x") > 5, [Assign("y", c(2))]),
            Return([v("y")]),
        ]),
    ])
    assert run(mod, [9])[0] == (2,)
    assert run(mod, [1])[0] == (1,)


def test_nested_if(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("r", c(0)),
            If(v("x") > 0, [
                If(v("x") > 10, [Assign("r", c(2))], [Assign("r", c(1))]),
            ], [
                Assign("r", c(-1)),
            ]),
            Return([v("r")]),
        ]),
    ])
    assert run(mod, [20])[0] == (2,)
    assert run(mod, [5])[0] == (1,)
    assert run(mod, [-3])[0] == (-1,)


def test_constant_condition_folds_branch(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("y", c(0)),
            If(c(1), [Assign("y", v("x") + 1)], [Assign("y", v("x") - 1)]),
            Return([v("y")]),
        ]),
    ])
    results, _, prog = run(mod, [10])
    assert results == (11,)
    # The branch folded away: no steers or merges in main.
    from repro.ir.ops import Op
    ops = {o.op for o in prog.blocks["main"].ops}
    assert Op.STEER not in ops and Op.MERGE not in ops


def test_conditionally_defined_variable_use_rejected():
    mod = Module([
        Function("main", ["x"], [
            If(v("x") > 5, [Assign("y", c(2))]),
            Return([v("y")]),
        ]),
    ])
    with pytest.raises(ProgramError,
                       match="conditionally defined|undefined"):
        lower_module(mod)


def test_undefined_variable_rejected():
    mod = Module([
        Function("main", ["x"], [Return([v("nope")])]),
    ])
    with pytest.raises(ProgramError, match="undefined"):
        lower_module(mod)


def test_zero_param_function_rejected():
    mod = Module([Function("main", [], [Return([c(1)])])])
    with pytest.raises(ProgramError, match="at least one parameter"):
        lower_module(mod)


def test_undeclared_array_rejected():
    mod = Module([
        Function("main", ["x"], [Store("ghost", v("x"), c(1))]),
    ])
    with pytest.raises(ProgramError, match="not declared"):
        lower_module(mod)


def test_store_to_read_only_rejected():
    mod = Module(
        [Function("main", ["x"], [Store("A", v("x"), c(1))])],
        arrays=[ArraySpec("A", read_only=True)],
    )
    with pytest.raises(ProgramError, match="read-only"):
        lower_module(mod)


def test_nested_return_rejected():
    mod = Module([
        Function("main", ["x"], [
            If(v("x") > 0, [Return([c(1)])]),
            Return([c(0)]),
        ]),
    ])
    with pytest.raises(ProgramError, match="last"):
        lower_module(mod)


class _NotAStatement:
    """An object the frontend has no statement rule for."""


@pytest.mark.parametrize("place", ["top", "for", "if"])
def test_unknown_statement_rejected(place):
    stray = _NotAStatement()
    body = {"top": [stray],
            "for": [For("i", 0, v("x"), [stray])],
            "if": [If(v("x") > 0, [stray])]}[place]
    mod = Module([Function("main", ["x"], body + [Return([c(0)])])])
    with pytest.raises(ProgramError, match="unknown statement node"):
        lower_module(mod)


def test_function_call_and_results(run):
    mod = Module([
        Function("addmul", ["a", "b"], [
            Return([v("a") + v("b"), v("a") * v("b")]),
        ]),
        Function("main", ["x"], [
            Call(["s", "p"], "addmul", [v("x"), v("x") + 1]),
            Return([v("s") * 1000 + v("p")]),
        ]),
    ])
    assert run(mod, [4])[0] == (9 * 1000 + 20,)


def test_recursion_rejected():
    mod = Module([
        Function("f", ["x"], [
            Call(["y"], "f", [v("x") - 1]),
            Return([v("y")]),
        ]),
        Function("main", ["x"], [
            Call(["y"], "f", [v("x")]),
            Return([v("y")]),
        ]),
    ])
    with pytest.raises(ProgramError, match="recursi"):
        lower_module(mod)


def test_call_arity_mismatch_rejected():
    mod = Module([
        Function("f", ["a", "b"], [Return([v("a")])]),
        Function("main", ["x"], [
            Call(["y"], "f", [v("x")]),
            Return([v("y")]),
        ]),
    ])
    with pytest.raises(ProgramError, match="takes 2"):
        lower_module(mod)


def test_memory_roundtrip(run):
    mod = Module(
        [Function("main", ["x"], [
            Store("A", c(0), v("x") * 3),
            Assign("y", load("A", c(0)) + 1),
            Return([v("y")]),
        ])],
        arrays=[ArraySpec("A", length=4)],
    )
    results, mem, _ = run(mod, [5], {"A": [0] * 4})
    assert results == (16,)
    assert mem["A"][0] == 15


def test_store_load_ordering_token_threaded():
    mod = Module(
        [Function("main", ["x"], [
            Store("A", c(0), v("x")),
            Assign("y", load("A", c(0))),
            Store("A", c(1), v("y") + 1),
            Return([v("y")]),
        ])],
        arrays=[ArraySpec("A", length=4)],
    )
    prog = lower_module(mod)
    from repro.ir.ops import Op
    ops = prog.blocks["main"].ops
    loads = [o for o in ops if o.op is Op.LOAD]
    stores = [o for o in ops if o.op is Op.STORE]
    assert len(loads) == 1 and len(stores) == 2
    # The load consumes the first store's order token; the second
    # store consumes the load's.
    assert loads[0].attrs["has_order_in"]
    assert stores[1].attrs["has_order_in"]


def test_read_only_loads_carry_no_order(run):
    mod = Module(
        [Function("main", ["x"], [
            Assign("y", load("A", v("x")) + load("A", v("x") + 1)),
            Return([v("y")]),
        ])],
        arrays=[ArraySpec("A", read_only=True)],
    )
    prog = lower_module(mod)
    from repro.ir.ops import Op
    for o in prog.blocks["main"].ops:
        if o.op is Op.LOAD:
            assert not o.attrs["has_order_in"]


def test_entry_metadata_recorded():
    mod = Module([
        Function("main", ["x"], [Return([v("x"), v("x") + 1])]),
    ])
    prog = lower_module(mod)
    assert prog.meta["entry_declared_results"] == 2
    assert prog.meta["entry_params"] == ("x",)
