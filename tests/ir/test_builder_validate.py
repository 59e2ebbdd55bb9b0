"""Unit tests for the IR builder and structural validation."""

import pytest

from repro.errors import IRError
from repro.ir import (
    BlockKind,
    Lit,
    Param,
    ProgramBuilder,
    Res,
    validate_program,
)
from repro.ir.ops import Op


def simple_program():
    """main(x) { return x + 1 }"""
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    r = bb.pure(Op.ADD, bb.param(0), Lit(1))
    bb.set_return([r])
    pb.finish_block(bb)
    return pb.build()


def test_simple_program_builds_and_validates():
    prog = simple_program()
    validate_program(prog)
    assert prog.entry_block().n_params == 1
    assert len(prog.entry_block().ops) == 1


def test_constant_folding_in_pure():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    folded = bb.pure(Op.ADD, Lit(2), Lit(3))
    assert folded == Lit(5)
    assert bb.block.ops == []
    bb.set_return([bb.pure(Op.ADD, bb.param(0), folded)])
    pb.finish_block(bb)
    validate_program(pb.build())


def test_unterminated_block_rejected():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    with pytest.raises(IRError, match="no terminator"):
        pb.finish_block(bb)


def test_unfinished_block_rejected_at_build():
    pb = ProgramBuilder()
    pb.new_block("main", BlockKind.DAG, ["x"])
    with pytest.raises(IRError, match="unfinished"):
        pb.build()


def test_missing_entry_rejected():
    pb = ProgramBuilder(entry="main")
    bb = pb.new_block("helper", BlockKind.DAG, ["x"])
    bb.set_return([bb.param(0)])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="entry"):
        pb.build()


def test_duplicate_block_name_rejected():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    bb.set_return([bb.param(0)])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="already exists"):
        pb.new_block("main", BlockKind.DAG, ["y"])


def test_forward_reference_rejected():
    prog = simple_program()
    prog.blocks["main"].ops[0].inputs = (Res(0, 0), Lit(1))
    with pytest.raises(IRError, match="forward/self"):
        validate_program(prog)


def test_bad_param_index_rejected():
    prog = simple_program()
    prog.blocks["main"].ops[0].inputs = (Param(3), Lit(1))
    with pytest.raises(IRError, match="param"):
        validate_program(prog)


def test_all_literal_inputs_rejected():
    prog = simple_program()
    prog.blocks["main"].ops[0].inputs = (Lit(1), Lit(2))
    with pytest.raises(IRError, match="never fire"):
        validate_program(prog)


def test_undeclared_array_rejected():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    with pytest.raises(IRError, match="not declared"):
        bb.load("ghost", bb.param(0))


def test_store_to_read_only_rejected():
    pb = ProgramBuilder()
    pb.declare_array("A", read_only=True)
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    tok = bb.store("A", bb.param(0), Lit(1))
    bb.set_return([tok])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="read-only"):
        validate_program(pb.build())


def test_loop_terminator_arity_checked():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.LOOP, ["i", "n"])
    d = bb.pure(Op.LT, bb.param(0), bb.param(1))
    with pytest.raises(IRError, match="next_args"):
        bb.set_loop(d, [bb.param(0)], [])


def test_return_on_loop_block_rejected():
    pb = ProgramBuilder()
    bb = pb.new_block("l", BlockKind.LOOP, ["i"])
    with pytest.raises(IRError, match="DAG"):
        bb.set_return([bb.param(0)])


def test_spawn_arity_validated():
    pb = ProgramBuilder()
    cb = pb.new_block("callee", BlockKind.DAG, ["a", "b"])
    cb.set_return([cb.pure(Op.ADD, cb.param(0), cb.param(1))])
    pb.finish_block(cb)
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    sp = bb.spawn("callee", [bb.param(0)], n_results=1)
    bb.set_return([sp.result(0)])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="passes 1 args"):
        validate_program(pb.build())


def test_call_graph_cycle_rejected():
    pb = ProgramBuilder()
    a = pb.new_block("a", BlockKind.DAG, ["x"])
    sp = a.spawn("b", [a.param(0)], n_results=1)
    a.set_return([sp.result(0)])
    pb.finish_block(a)
    b = pb.new_block("b", BlockKind.DAG, ["x"])
    sp = b.spawn("a", [b.param(0)], n_results=1)
    b.set_return([sp.result(0)])
    pb.finish_block(b)
    main = pb.new_block("main", BlockKind.DAG, ["x"])
    sp = main.spawn("a", [main.param(0)], n_results=1)
    main.set_return([sp.result(0)])
    pb.finish_block(main)
    with pytest.raises(IRError, match="cycle"):
        validate_program(pb.build())


def test_guard_equivalence_catches_token_leak():
    # A value produced unconditionally but consumed inside a branch
    # leaks a token when the branch is untaken.
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    d = bb.pure(Op.LT, bb.param(0), Lit(10))
    val = bb.pure(Op.ADD, bb.param(0), Lit(1))
    bb.begin_if(d)
    leaked = bb.pure(Op.MUL, val, Lit(2))  # consumes `val` conditionally
    bb.begin_else()
    bb.end_if()
    m = bb.merge(d, leaked, Lit(0))
    bb.set_return([m])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="leak"):
        validate_program(pb.build())


def test_steered_consumption_is_legal():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    d = bb.pure(Op.LT, bb.param(0), Lit(10))
    s_t, _ = bb.steer(d, bb.param(0), True)
    s_f, _ = bb.steer(d, bb.param(0), False)
    bb.begin_if(d)
    a = bb.pure(Op.ADD, s_t, Lit(1))
    bb.begin_else()
    b = bb.pure(Op.SUB, s_f, Lit(1))
    bb.end_if()
    m = bb.merge(d, a, b)
    bb.set_return([m])
    pb.finish_block(bb)
    validate_program(pb.build())


def test_conditional_terminator_value_rejected():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    d = bb.pure(Op.LT, bb.param(0), Lit(10))
    s_t, _ = bb.steer(d, bb.param(0), True)
    bb.begin_if(d)
    a = bb.pure(Op.ADD, s_t, Lit(1))
    bb.begin_else()
    bb.end_if()
    bb.set_return([a])
    pb.finish_block(bb)
    with pytest.raises(IRError, match="conditional"):
        validate_program(pb.build())


def test_region_bookkeeping_helpers():
    pb = ProgramBuilder()
    bb = pb.new_block("main", BlockKind.DAG, ["x"])
    d = bb.pure(Op.LT, bb.param(0), Lit(10))
    s_t, _ = bb.steer(d, bb.param(0), True)
    s_f, _ = bb.steer(d, bb.param(0), False)
    bb.begin_if(d)
    a = bb.pure(Op.ADD, s_t, Lit(1))
    bb.begin_else()
    b = bb.pure(Op.SUB, s_f, Lit(1))
    bb.end_if()
    m = bb.merge(d, a, b)
    bb.set_return([m])
    block = pb.finish_block(bb)
    chains = block.guard_chain()
    assert chains[0] == ()  # the compare
    assert chains[a.op_id] == ((d, True),)
    assert chains[b.op_id] == ((d, False),)
    assert chains[m.op_id if hasattr(m, 'op_id') else 5] == ()


def test_topo_order_callees_first():
    pb = ProgramBuilder()
    leaf = pb.new_block("leaf", BlockKind.DAG, ["x"])
    leaf.set_return([leaf.pure(Op.ADD, leaf.param(0), Lit(1))])
    pb.finish_block(leaf)
    main = pb.new_block("main", BlockKind.DAG, ["x"])
    sp = main.spawn("leaf", [main.param(0)], n_results=1)
    main.set_return([sp.result(0)])
    pb.finish_block(main)
    prog = pb.build()
    order = prog.topo_order()
    assert order.index("leaf") < order.index("main")
    assert prog.call_sites() == {"leaf": [("main", 0)]}
