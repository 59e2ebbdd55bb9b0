"""Unit tests for ContextProgram/BlockDef helper queries."""

import pytest

from repro.compiler.elaborate import elaborate
from repro.errors import IRError
from repro.frontend.lower import lower_module
from repro.ir.ops import Op
from repro.ir.program import BlockKind, IfRegion, Res
from repro.workloads.randomprog import random_module

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
    # Theorem 2's N and M are counted on the elaborated graph, which
    # adds the linkage nodes to the program's ops.
    prog = lower_module(sum_loop_module())
    graph = elaborate(prog)
    assert graph.static_instructions == len(graph.nodes) > sum(
        len(b.ops) for b in prog.blocks.values()
    )
    assert graph.max_inputs >= 2
    assert graph.token_bound(4) == (
        4 * graph.static_instructions * graph.max_inputs)


def _branch_depths(region, depth, out):
    for item in region.items:
        if isinstance(item, IfRegion):
            _branch_depths(item.then_region, depth + 1, out)
            _branch_depths(item.else_region, depth + 1, out)
        else:
            out[item] = depth
    return out


def test_guard_chain_covers_every_op():
    # random programs 1 and 4 nest branches; dmv has none.
    for module in (dmv_module(), random_module(1), random_module(4)):
        for block in lower_module(module).blocks.values():
            guards = block.guard_chain()
            assert set(guards) == set(range(len(block.ops)))
            depths = {op_id: len(chain) for op_id, chain in guards.items()}
            assert depths == _branch_depths(block.region, 0, {})


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
