"""Frontend lowering: loops, carries, nesting, and parallel annotations."""

import pytest

from repro.errors import ProgramError
from repro.frontend.ast import (
    ArraySpec,
    Assign,
    Call,
    For,
    Function,
    If,
    Module,
    Return,
    Store,
    While,
)
from repro.frontend.dsl import c, load, v
from repro.frontend.lower import lower_module
from repro.ir.program import BlockKind

from tests.conftest import assert_machine_matches_reference


def test_for_sums_range(run):
    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [Assign("acc", v("acc") + v("i"))]),
            Return([v("acc")]),
        ]),
    ])
    assert run(mod, [10])[0] == (45,)
    assert run(mod, [0])[0] == (0,)  # zero-trip loop keeps original
    assert run(mod, [1])[0] == (0,)


def test_for_with_step(run):
    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 1, v("n"), [Assign("acc", v("acc") + v("i"))], step=3),
            Return([v("acc")]),
        ]),
    ])
    assert run(mod, [11])[0] == (1 + 4 + 7 + 10,)


def test_counter_value_after_loop(run):
    mod = Module([
        Function("main", ["n"], [
            For("i", 0, v("n"), [Assign("z", v("i"))]),
            Return([v("i")]),
        ]),
    ])
    # Like C: counter holds the first failing value.
    assert run(mod, [7])[0] == (7,)


def test_while_data_dependent(run):
    # Collatz-ish: count steps to reach 1.
    mod = Module([
        Function("main", ["x"], [
            Assign("steps", c(0)),
            While(v("x") > 1, [
                Assign("x", Cond_even(v("x"))),
                Assign("steps", v("steps") + 1),
            ]),
            Return([v("steps")]),
        ]),
    ])
    assert run(mod, [6])[0] == (8,)  # 6 3 10 5 16 8 4 2 1


def Cond_even(x):
    from repro.frontend.ast import Cond
    return Cond(x % 2 == c(0), x / 2, x * 3 + 1)


def test_nested_loops_make_nested_blocks(run):
    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [
                For("j", 0, v("i"), [
                    Assign("acc", v("acc") + v("i") * v("j")),
                ]),
            ]),
            Return([v("acc")]),
        ]),
    ])
    results, _, prog = run(mod, [5])
    assert results == (sum(i * j for i in range(5) for j in range(i)),)
    loops = [b for b in prog.blocks.values() if b.kind is BlockKind.LOOP]
    assert len(loops) == 2


def test_loop_invariant_literal_substituted():
    mod = Module([
        Function("main", ["x"], [
            Assign("n", c(16)),
            Assign("acc", c(0)),
            For("i", 0, v("n"), [Assign("acc", v("acc") + v("n"))]),
            Return([v("acc")]),
        ]),
    ])
    prog = lower_module(mod)
    loop = next(b for b in prog.blocks.values()
                if b.kind is BlockKind.LOOP)
    # `n` is a literal invariant: not carried as a loop param.
    assert "n" not in loop.param_names


def test_loop_in_branch(run):
    mod = Module([
        Function("main", ["x"], [
            Assign("acc", c(0)),
            If(v("x") > 0, [
                For("i", 0, v("x"), [Assign("acc", v("acc") + 2)]),
            ], [
                Assign("acc", c(-1)),
            ]),
            Return([v("acc")]),
        ]),
    ])
    assert run(mod, [3])[0] == (6,)
    assert run(mod, [-5])[0] == (-1,)


def test_branch_in_loop(run):
    mod = Module([
        Function("main", ["n"], [
            Assign("evens", c(0)),
            Assign("odds", c(0)),
            For("i", 0, v("n"), [
                If(v("i") % 2 == c(0),
                   [Assign("evens", v("evens") + 1)],
                   [Assign("odds", v("odds") + 1)]),
            ]),
            Return([v("evens") * 100 + v("odds")]),
        ]),
    ])
    assert run(mod, [7])[0] == (4 * 100 + 3,)


def test_store_chain_carried_across_iterations():
    # Read-modify-write accumulation into one cell must be chained.
    mod = Module(
        [Function("main", ["n"], [
            Store("A", c(0), c(0)),
            For("i", 0, v("n"), [
                Store("A", c(0), load("A", c(0)) + v("i")),
            ]),
            Return([load("A", c(0))]),
        ])],
        arrays=[ArraySpec("A", length=1)],
    )
    prog = lower_module(mod)
    loop = next(b for b in prog.blocks.values()
                if b.kind is BlockKind.LOOP)
    assert "$ord:A" in loop.param_names


def test_parallel_annotation_breaks_chain():
    mod = Module(
        [Function("main", ["n"], [
            For("i", 0, v("n"), [Store("A", v("i"), v("i") * 2)],
                parallel=("A",)),
            Return([c(0)]),
        ])],
        arrays=[ArraySpec("A")],
    )
    prog = lower_module(mod)
    loop = next(b for b in prog.blocks.values()
                if b.kind is BlockKind.LOOP)
    assert "$ord:A" not in loop.param_names


def test_access_after_parallel_loop_rejected():
    mod = Module(
        [Function("main", ["n"], [
            For("i", 0, v("n"), [Store("A", v("i"), v("i"))],
                parallel=("A",)),
            Return([load("A", c(0))]),
        ])],
        arrays=[ArraySpec("A")],
    )
    with pytest.raises(ProgramError, match="parallel"):
        lower_module(mod)


def test_parallel_loop_memory_results(run):
    mod = Module(
        [Function("main", ["n"], [
            For("i", 0, v("n"), [Store("A", v("i"), v("i") * v("i"))],
                parallel=("A",)),
            Return([c(0)]),
        ])],
        arrays=[ArraySpec("A")],
    )
    _, mem, _ = run(mod, [5], {"A": [0] * 5})
    assert mem["A"] == [0, 1, 4, 9, 16]


def test_infinite_constant_loop_rejected():
    mod = Module([
        Function("main", ["x"], [
            Assign("y", c(0)),
            While(c(1), [Assign("y", v("y") + 1)]),
            Return([v("y")]),
        ]),
    ])
    with pytest.raises(ProgramError, match="infinite|carries no values"):
        lower_module(mod)


def test_loop_tag_override_recorded():
    mod = Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [Assign("acc", v("acc") + 1)], tags=8),
            Return([v("acc")]),
        ]),
    ])
    prog = lower_module(mod)
    loop = next(b for b in prog.blocks.values()
                if b.kind is BlockKind.LOOP)
    assert loop.tag_override == 8


def test_call_inside_loop(run):
    mod = Module([
        Function("square", ["x"], [Return([v("x") * v("x")])]),
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [
                Call(["sq"], "square", [v("i")]),
                Assign("acc", v("acc") + v("sq")),
            ]),
            Return([v("acc")]),
        ]),
    ])
    assert run(mod, [5])[0] == (0 + 1 + 4 + 9 + 16,)


def test_memory_chain_through_call(run):
    mod = Module(
        [
            Function("bump", ["i"], [
                Store("A", v("i"), load("A", v("i")) + 1),
                Return([load("A", v("i"))]),
            ]),
            Function("main", ["n"], [
                Store("A", c(0), c(5)),
                Call(["r1"], "bump", [c(0)]),
                Call(["r2"], "bump", [c(0)]),
                Return([v("r1") * 10 + v("r2")]),
            ]),
        ],
        arrays=[ArraySpec("A", length=2)],
    )
    results, mem, prog = run(mod, [1], {"A": [0, 0]})
    assert results == (6 * 10 + 7,)
    assert mem["A"][0] == 7
    # The callee's signature threads the order token in and out.
    assert "$ord:A" in prog.blocks["bump"].param_names


def test_triangular_data_dependent_inner_bound(run):
    mod = Module(
        [Function("main", ["n"], [
            Assign("total", c(0)),
            For("i", 0, v("n"), [
                Assign("start", load("ptr", v("i"))),
                Assign("end", load("ptr", v("i") + 1)),
                Assign("s", c(0)),
                For("j", v("start"), v("end"), [
                    Assign("s", v("s") + load("data", v("j"))),
                ]),
                Assign("total", v("total") + v("s")),
            ]),
            Return([v("total")]),
        ])],
        arrays=[ArraySpec("ptr", read_only=True),
                ArraySpec("data", read_only=True)],
    )
    ptr = [0, 2, 2, 5]
    data = [1, 2, 3, 4, 5]
    results, _, _ = run(mod, [3], {"ptr": ptr, "data": data})
    assert results == (15,)


def test_labelled_loop_names_never_collide():
    # Label and counter are joined without a separator: label "x1" at
    # counter 1 and label "x" at counter 11 both spell "main.x11", so
    # the later loop takes the next free counter value.
    loops = [For("i", 0, v("n"), [Assign("acc", v("acc") + v("i"))],
                 label="x1")]
    loops += [For("i", 0, v("n"), [Assign("acc", v("acc") + v("i") * k)],
                  label="x")
              for k in range(1, 11)]
    mod = Module([
        Function("main", ["n"], [Assign("acc", c(0)), *loops,
                                 Return([v("acc")])]),
    ])
    prog = lower_module(mod)
    assert sorted(prog.blocks) == sorted(
        ["main", "main.x11", "main.x12"]
        + [f"main.x{k}" for k in range(2, 11)]
    )
    for machine in ("tyr", "ordered", "seqdf"):
        res = assert_machine_matches_reference(mod, [5], {}, machine)
        assert res.extra["declared_results"] == (10 + 55 * 10,)


def test_loop_names_of_a_deep_for_nest_are_unique():
    # The loop over i99 is named "main.for_i991" at counter 1, and so
    # would the loop over i9 at counter 91.
    body = [Assign("x", v("x") + 1)]
    for k in range(100):
        body = [For(f"i{k}", 0, v("n"), body)]
    prog = lower_module(Module([
        Function("main", ["n"], [Assign("x", c(0)), *body,
                                 Return([v("x")])]),
    ]))
    loops = [b for b in prog.blocks.values() if b.kind is BlockKind.LOOP]
    assert len(loops) == 100
    assert "main.for_i991" in prog.blocks
