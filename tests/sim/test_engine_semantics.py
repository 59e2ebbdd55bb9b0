"""White-box semantics of the tagged engine on hand-built graphs.

Everything else tests the engines through the compiler; these tests
construct tiny :class:`TaggedGraph`s by hand to pin down individual
firing rules: tag matching, steer conditionality, decider-driven
merges, join barriers, changeTag re-tagging, and allocate/free against
a gated pool. Each runs on three paths: the plain interpreter, and
kernels generated for the graph that the engine binds at construction
(budget 0) or after the first cycle that fires (budget 1).
"""

import pytest

from repro.compiler.graph import TaggedGraph
from repro.ir.ops import Op
from repro.sim.codegen import KernelModule
from repro.sim.memory import Memory
from repro.sim.tagged import TaggedEngine, TyrPolicy, UnboundedGlobalPolicy
from repro.sim.tagged.engine import ROOT_TAG

from tests.conftest import HANDOFF_BUDGETS, handoff_budget

#: ``engine_for``'s ``kernels``: interpret, then generated kernels at
#: each hand-off budget.
PATHS = (None, *HANDOFF_BUDGETS)


def engine_for(graph, policy=None, kernels=None, **kwargs):
    graph.blocks = sorted({n.block for n in graph.nodes
                           if n.block != "<root>"}) or ["main"]
    graph.tag_overrides = {b: None for b in graph.blocks}
    memory = kwargs.pop("memory", Memory())
    policy = policy or UnboundedGlobalPolicy()
    if kernels is None:
        return TaggedEngine(graph, memory, policy, **kwargs)
    with handoff_budget(kernels):
        return TaggedEngine(graph, memory, policy,
                            kernels=KernelModule("tagged", graph),
                            **kwargs)


def result_node(g, n_results=1):
    nodes = []
    for j in range(n_results):
        res = g.new_node(Op.COPY, "<root>", 1, 1, result_index=j)
        g.result_nodes.append(res.node_id)
        nodes.append(res)
    return nodes


def test_add_fires_on_matching_tags_only():
    g = TaggedGraph()
    add = g.new_node(Op.ADD, "main", 2, 1)
    (res,) = result_node(g)
    g.connect(add, 0, res, 0)
    # Two args seeded with the SAME (root) tag: fires.
    g.entry_sources = [[(add.node_id, 0)], [(add.node_id, 1)]]
    for kernels in PATHS:
        eng = engine_for(g, kernels=kernels)
        out = eng.run([4, 5])
        assert out.results == (9,)


def test_immediate_ports_never_block():
    g = TaggedGraph()
    add = g.new_node(Op.ADD, "main", 2, 1)
    add.imms[1] = 100
    (res,) = result_node(g)
    g.connect(add, 0, res, 0)
    g.entry_sources = [[(add.node_id, 0)]]
    for kernels in PATHS:
        out = engine_for(g, kernels=kernels).run([7])
        assert out.results == (107,)


def test_steer_routes_by_sense():
    for decider, expect in ((1, (5, None)), (0, (None, 5))):
        g = TaggedGraph()
        st_t = g.new_node(Op.STEER, "main", 2, 2, sense=True)
        st_f = g.new_node(Op.STEER, "main", 2, 2, sense=False)
        res_t, res_f = result_node(g, 2)
        g.connect(st_t, 0, res_t, 0)
        g.connect(st_f, 0, res_f, 0)
        g.entry_sources = [
            [(st_t.node_id, 0), (st_f.node_id, 0)],
            [(st_t.node_id, 1), (st_f.node_id, 1)],
        ]
        for kernels in PATHS:
            out = engine_for(g, kernels=kernels).run([decider, 5])
            assert out.results == expect


def test_merge_consumes_only_selected_side():
    g = TaggedGraph()
    st_t = g.new_node(Op.STEER, "main", 2, 2, sense=True)
    st_f = g.new_node(Op.STEER, "main", 2, 2, sense=False)
    merge = g.new_node(Op.MERGE, "main", 3, 1)
    (res,) = result_node(g)
    g.connect(st_t, 0, merge, 1)
    g.connect(st_f, 0, merge, 2)
    g.connect(merge, 0, res, 0)
    g.entry_sources = [
        [(st_t.node_id, 0), (st_f.node_id, 0), (merge.node_id, 0)],
        [(st_t.node_id, 1)],
        [(st_f.node_id, 1)],
    ]
    for kernels in PATHS:
        out = engine_for(g, kernels=kernels).run([1, 111, 222])
        assert out.results == (111,)
        out = engine_for(g, kernels=kernels).run([0, 111, 222])
        assert out.results == (222,)


def test_join_waits_for_all_inputs_and_copies_left():
    g = TaggedGraph()
    join = g.new_node(Op.JOIN, "main", 3, 1)
    (res,) = result_node(g)
    g.connect(join, 0, res, 0)
    g.entry_sources = [
        [(join.node_id, 0)], [(join.node_id, 1)], [(join.node_id, 2)],
    ]
    for kernels in PATHS:
        out = engine_for(g, kernels=kernels).run([42, 1, 2])
        assert out.results == (42,)  # the left input's data


def test_change_tag_retags_tokens():
    g = TaggedGraph()
    et = g.new_node(Op.EXTRACT_TAG, "main", 1, 1)
    ct = g.new_node(Op.CHANGE_TAG, "main", 2, 2)
    consumer = g.new_node(Op.ADD, "main", 2, 1)
    consumer.imms[1] = 0
    (res,) = result_node(g)
    # extractTag(root token) -> <ROOT, ROOT>; changeTag makes a token
    # tagged with that data; consumer receives it under tag ROOT.
    g.connect(et, 0, ct, 0)
    g.connect(ct, 0, consumer, 0)
    g.connect(consumer, 0, res, 0)
    ct.imms[1] = 55
    g.entry_sources = [[(et.node_id, 0)]]
    for kernels in PATHS:
        out = engine_for(g, kernels=kernels).run([1])
        assert out.results == (55,)


def test_load_store_through_memory():
    g = TaggedGraph()
    store = g.new_node(Op.STORE, "main", 2, 1, array="A")
    load = g.new_node(Op.LOAD, "main", 2, 2, array="A")
    (res,) = result_node(g)
    store.imms[0] = 2  # A[2] = arg
    load.imms[0] = 2
    g.connect(store, 0, load, 1)  # order token: load after store
    g.connect(load, 0, res, 0)
    g.entry_sources = [[(store.node_id, 1)]]
    for kernels in PATHS:
        mem = Memory({"A": [0, 0, 0]})
        out = engine_for(g, memory=mem, kernels=kernels).run([9])
        assert out.results == (9,)
        assert mem["A"] == [0, 0, 9]


def test_allocate_free_roundtrip_with_gated_pool():
    g = TaggedGraph()
    al = g.new_node(Op.ALLOCATE, "main", 2, 2, tagspace="blk",
                    spare=False)
    ct = g.new_node(Op.CHANGE_TAG, "main", 2, 2)
    work = g.new_node(Op.ADD, "blk", 2, 1)
    work.imms[1] = 1
    free = g.new_node(Op.FREE, "blk", 1, 0, tagspace="blk")
    g.connect(al, 0, ct, 0)
    g.connect(ct, 0, work, 0)
    g.connect(work, 0, free, 0)
    g.entry_sources = [[(al.node_id, 0), (al.node_id, 1),
                        (ct.node_id, 1)]]
    for kernels in PATHS:
        eng = engine_for(g, TyrPolicy(2), kernels=kernels)
        out = eng.run([10])
        assert out.completed
        stats = {s.name: s for s in out.extra["pool_stats"]}
        assert stats["blk"].total_allocations == 1
        assert out.extra["leftover_tags_in_use"] == 0


def test_tokens_with_different_tags_do_not_match():
    # Two args arrive with DIFFERENT tags at a 2-input add: the engine
    # must report deadlock (stranded tokens), not a bogus firing.
    from repro.errors import DeadlockError

    g = TaggedGraph()
    ct = g.new_node(Op.CHANGE_TAG, "main", 2, 2)
    ct.imms[0] = 123  # re-tag to a foreign tag
    add = g.new_node(Op.ADD, "main", 2, 1)
    (res,) = result_node(g)
    g.connect(ct, 0, add, 0)  # arrives tagged 123
    g.connect(add, 0, res, 0)
    g.entry_sources = [[(ct.node_id, 1)], [(add.node_id, 1)]]  # ROOT tag
    for kernels in PATHS:
        eng = engine_for(g, kernels=kernels)
        with pytest.raises(DeadlockError):
            eng.run([1, 2])
        # Both tokens sit unmatched under different tags.
        tags = {tag for store in eng._wait for tag in store}
        assert tags == {123, ROOT_TAG}
