"""Unit tests for ContextProgram/BlockDef helper queries."""

import pytest

from repro.errors import IRError
from repro.frontend.lower import lower_module
from repro.ir.ops import Op
from repro.ir.program import BlockKind, Res

from tests.conftest import dmv_module, sum_loop_module


def test_spawns_listed_in_program_order():
    prog = lower_module(dmv_module())
    entry_spawns = prog.entry_block().spawns()
    assert len(entry_spawns) == 1
    assert entry_spawns[0].op is Op.SPAWN


def test_call_graph_and_callers():
    prog = lower_module(dmv_module())
    graph = prog.call_graph()
    outer = graph["main"][0]
    inner = graph[outer][0]
    assert prog.blocks[outer].kind is BlockKind.LOOP
    assert prog.blocks[inner].kind is BlockKind.LOOP
    assert graph[inner] == []
    sites = prog.call_sites()
    assert sites[outer] == [("main", entry_spawn_id(prog))]
    assert sites[inner] == [(outer, prog.blocks[outer].spawns()[0].op_id)]
    assert "main" not in sites


def entry_spawn_id(prog):
    return prog.entry_block().spawns()[0].op_id


def test_static_counts():
    prog = lower_module(sum_loop_module())
    assert prog.static_instruction_count() == sum(
        len(b.ops) for b in prog.blocks.values()
    )
    assert prog.max_op_inputs() >= 2


def test_region_of_and_guard_chain_consistent():
    prog = lower_module(dmv_module())
    for block in prog.blocks.values():
        regions = block.region_of()
        guards = block.guard_chain()
        assert set(regions) == set(guards) == set(
            range(len(block.ops))
        )
        for op_id, chain in regions.items():
            assert len(chain) == len(guards[op_id])


def test_block_lookup_errors():
    prog = lower_module(sum_loop_module())
    with pytest.raises(IRError, match="no block"):
        prog.block("ghost")


def test_op_result_port_bounds():
    prog = lower_module(sum_loop_module())
    op = prog.entry_block().ops[0]
    assert op.result(0) == Res(op.op_id, 0)
    with pytest.raises(IRError):
        op.result(op.n_outputs)


def test_n_results():
    prog = lower_module(sum_loop_module())
    assert prog.entry_block().n_results == 1
