"""Unit tests for dynamic execution-graph recording (paper Figs. 4/5)."""

import pytest

from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.memory import Memory
from repro.sim.tagged import TaggedEngine, TyrPolicy, UnboundedGlobalPolicy
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.registry import EXTRA_WORKLOADS

from tests.conftest import dmv_memory, dmv_module, sum_loop_module


def traced_run(module, args, policy, memory=None, **kwargs):
    cw = CompiledWorkload(lower_module(module))
    engine = TaggedEngine(cw.tagged, Memory(memory or {}), policy,
                          record_trace=True, **kwargs)
    result = engine.run(cw.entry_args(args))
    return result, engine.trace


def test_event_count_close_to_instruction_count():
    res, trace = traced_run(sum_loop_module(), [5], TyrPolicy(4))
    assert len(trace.events) == res.instructions
    assert trace.duration <= res.cycles


POLICIES = {"tyr64": lambda: TyrPolicy(64), "tyr4": lambda: TyrPolicy(4),
            "unordered": UnboundedGlobalPolicy}

#: (workload at tiny scale, policy, load latency) of each traced run
#: the invariants are checked on.
INVARIANT_CASES = [
    (name, policy, 1)
    for name in WORKLOAD_NAMES + EXTRA_WORKLOADS for policy in POLICIES
] + [("tc", "tyr4", 4)]


def _feeds(graph):
    """Node id -> the ids of the nodes it can send a token to: its out
    edges and its route-table entries."""
    feeds = {}
    for nd in graph.nodes:
        dests = {dest for port_edges in nd.out_edges
                 for dest, _ in port_edges}
        table = nd.attrs.get("route_table")
        if table:
            dests.update(dest for entries in table.values()
                         for dest, _ in entries)
        feeds[nd.node_id] = dests
    return feeds


@pytest.mark.parametrize("name,policy,load_latency", INVARIANT_CASES,
                         ids=[f"{n}-{p}-lat{lat}"
                              for n, p, lat in INVARIANT_CASES])
def test_trace_invariants(name, policy, load_latency):
    """A completed traced run records one event per instruction, an
    allocate's late control firing included; every edge runs forward
    in time along a graph edge (an out edge or a route-table entry);
    and every producer note was taken by its consumer's event. An
    allocate's pop must take only the notes of the tokens it consumes:
    a ready token sent but not yet deposited belongs to the control
    firing that consumes it, not to the next allocation at that node
    and tag."""
    wl = build_workload(name, "tiny")
    engine = TaggedEngine(wl.compiled.tagged, wl.fresh_memory(),
                          POLICIES[policy](), record_trace=True,
                          load_latency=load_latency)
    result = engine.run(wl.compiled.entry_args(wl.args))
    assert result.completed
    trace = engine.trace
    events = trace.events
    assert len(events) == result.instructions
    feeds = _feeds(wl.compiled.tagged)
    for src, dst in trace.edges:
        producer, consumer = events[src], events[dst]
        assert producer.cycle < consumer.cycle, (producer, consumer)
        assert consumer.node_id in feeds[producer.node_id], (
            producer, consumer)
    assert engine._wait_src == {}


def test_edges_are_causal():
    _, trace = traced_run(sum_loop_module(), [6], TyrPolicy(4))
    for src, dst in trace.edges:
        assert trace.events[src].cycle < trace.events[dst].cycle


def test_parallelism_profile_sums_to_events():
    res, trace = traced_run(dmv_module(), [4], TyrPolicy(4),
                            memory=dmv_memory(4))
    profile = trace.parallelism_profile()
    assert sum(profile) == len(trace.events)
    assert max(profile) <= res.extra["issue_width"]


def test_trace_height_reflects_architecture():
    """Unordered dataflow's trace is taller and narrower than a
    throttled TYR's (the paper's Figs. 1/5 shape argument)."""
    _, wide = traced_run(dmv_module(), [6], UnboundedGlobalPolicy(),
                         memory=dmv_memory(6))
    _, narrow = traced_run(dmv_module(), [6], TyrPolicy(2),
                           memory=dmv_memory(6))
    assert max(wide.parallelism_profile()) > max(
        narrow.parallelism_profile()
    )
    assert wide.duration < narrow.duration


def test_live_cut_tracks_live_trace():
    """The number of edges crossing a cycle cut approximates the
    engine's live-token count at that cycle (the paper's definition).
    It is a slight under-approximation: the entry tokens have no
    producer event, so they do not become trace edges. The cut includes
    tokens consumed *at* the cycle (still crossing), which the
    engine's end-of-cycle live count no longer holds; subtract them
    before comparing."""
    cw = CompiledWorkload(lower_module(sum_loop_module()))
    engine = TaggedEngine(cw.tagged, Memory(), TyrPolicy(4),
                          record_trace=True)
    result = engine.run([6])
    trace = engine.trace
    for cycle in (2, 5, 10):
        cut = trace.live_cut(cycle)
        consumed_at = sum(
            1 for _, dst in trace.edges
            if trace.events[dst].cycle == cycle
        )
        live = result.live_trace[cycle]
        assert abs(cut - consumed_at - live) <= 2


def _hand_built_trace():
    from repro.sim.tagged.trace import ExecutionTrace

    trace = ExecutionTrace()
    e0 = trace.record(0, 0, "main", "const", 0, {})
    e1 = trace.record(2, 1, "main", "add", 0, {0: e0})
    trace.record(5, 2, "main", "free", 0, {0: e1})
    return trace


def test_live_cut_hand_built_semantics():
    """Pin the paper's cut definition: an edge produced at s and
    consumed at d crosses every cut in [s, d] -- inclusive of the
    consuming cycle."""
    trace = _hand_built_trace()
    # e0->e1 spans [0, 2]; e1->e2 spans [2, 5].
    assert trace.live_cut(0) == 1
    assert trace.live_cut(1) == 1
    assert trace.live_cut(2) == 2  # consumed at 2 still crosses
    assert trace.live_cut(3) == 1
    assert trace.live_cut(5) == 1  # consumed at 5 still crosses
    assert trace.live_cut(6) == 0


def test_live_cut_index_invalidated_on_append():
    trace = _hand_built_trace()
    assert trace.live_cut(3) == 1  # builds the sorted index
    e3 = trace.record(3, 3, "main", "const", 0, {})
    trace.record(4, 4, "main", "free", 0, {0: e3})
    assert trace.live_cut(3) == 2  # new e3->e4 edge crosses at 3


def test_dot_rendering():
    _, trace = traced_run(sum_loop_module(), [3], TyrPolicy(2))
    dot = trace.to_dot()
    assert dot.startswith("digraph")
    assert "rank=same" in dot
    assert "->" in dot
    with pytest.raises(ValueError, match="too large"):
        trace.to_dot(max_events=1)


def test_dot_escapes_quotes_and_backslashes():
    """Op/block/tag values containing `"` or `\\` must not break out
    of the quoted Graphviz label."""
    from repro.sim.tagged.trace import ExecutionTrace

    trace = ExecutionTrace()
    trace.record(0, 0, 'say "hi"', 'op\\inject', '"t"', {})
    dot = trace.to_dot()
    assert 'say \\"hi\\"' in dot
    assert "op\\\\inject" in dot
    assert '#\\"t\\"' in dot
    # Every label attribute stays a single quoted string: the line
    # must keep the exact form  [label="...", fillcolor=...];
    for line in dot.splitlines():
        if "label=" in line and "fillcolor" in line:
            body = line.split('label="', 1)[1]
            label = body.split('", fillcolor=', 1)[0]
            # No unescaped quote inside the label body.
            stripped = label.replace("\\\\", "").replace('\\"', "")
            assert '"' not in stripped


def test_events_carry_block_and_tag():
    _, trace = traced_run(sum_loop_module(), [4], TyrPolicy(3))
    blocks = {e.block for e in trace.events}
    assert "main" in blocks
    assert any(b != "main" for b in blocks)  # the loop's block
    tags = {e.tag for e in trace.events if e.block != "main"
            and e.block != "<root>"}
    assert len(tags) <= 3  # TYR reuses its 3 tags
