"""Shared fixtures: canonical small programs used across the suite."""

import random
from contextlib import contextmanager

import pytest

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
from repro.harness.runner import CompiledWorkload
from repro.ir.interp import ReferenceInterpreter
from repro.sim.codegen import core as codegen_core
from repro.sim.memory import Memory

#: ``HANDOFF_K`` values the kernel suites run at: budget 0 binds the
#: kernels at construction; budget 1 hands off to them after the run's
#: first cycle that fires (any K below one instruction per static node
#: rounds up to a budget of one instruction).
HANDOFF_BUDGETS = {"budget0": 0, "budget1": 1e-9}


@pytest.fixture
def bind_at_construction(monkeypatch):
    """Engines given kernels bind them at construction, as a test that
    means to exercise kernels needs: at the default budget a short run
    never binds them."""
    monkeypatch.setattr(codegen_core, "HANDOFF_K", 0)


@contextmanager
def handoff_budget(budget):
    """Engines built inside take their kernels at ``budget``, a key of
    :data:`HANDOFF_BUDGETS`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codegen_core, "HANDOFF_K", HANDOFF_BUDGETS[budget])
        yield


def dmv_module():
    """Dense matrix-vector product (the paper's running example)."""
    return Module(
        functions=[
            Function("main", ["n"], [
                For("i", 0, v("n"), [
                    Assign("acc", c(0)),
                    For("j", 0, v("n"), [
                        Assign("acc", v("acc")
                               + load("A", v("i") * v("n") + v("j"))
                               * load("B", v("j"))),
                    ]),
                    Store("w", v("i"), v("acc")),
                ], parallel=("w",)),
                Return([c(0)]),
            ]),
        ],
        arrays=[ArraySpec("A", read_only=True),
                ArraySpec("B", read_only=True),
                ArraySpec("w")],
    )


def dmv_memory(n, seed=1):
    rng = random.Random(seed)
    A = [rng.randint(0, 9) for _ in range(n * n)]
    B = [rng.randint(0, 9) for _ in range(n)]
    return {"A": A, "B": B, "w": [0] * n}


def dmv_expected(mem, n):
    A, B = mem["A"], mem["B"]
    return [sum(A[i * n + j] * B[j] for j in range(n)) for i in range(n)]


def tag_starved_engine(codegen, max_cycles, **kwargs):
    """A TyrPolicy(4) dmv engine wedged on tag starvation, given
    kernels or interpreting (``codegen``; kernels fill the fire table
    at budget 0). Its only ready event is an allocate whose stubbed pop
    fails and marks its pool dirty, and whose stubbed wake re-queues
    it, so every cycle fires nothing; one token is live. Run it with
    ``_run_loop()``."""
    from repro.ir.ops import Op
    from repro.sim.tagged import TaggedEngine, TyrPolicy
    from repro.sim.tagged.engine import _ALLOC_POP, ROOT_TAG

    cw = CompiledWorkload(lower_module(dmv_module()))
    alloc = next(nd.node_id for nd in cw.tagged.nodes
                 if nd.op is Op.ALLOCATE)
    eng = TaggedEngine(cw.tagged, Memory(dmv_memory(4)), TyrPolicy(4),
                       max_cycles=max_cycles,
                       kernels=cw.kernels("tagged") if codegen else None,
                       **kwargs)
    event = (alloc, ROOT_TAG, _ALLOC_POP)
    pool = eng._alloc_pool[alloc]

    def pop_fails(nid, tag):
        eng._dirty_pools.append(pool)
        return False

    eng._fire_alloc_pop = pop_fails
    eng._wake_waiters = lambda pool: eng._ready.append(event)
    eng._ready.append(event)
    eng._livebox[0] = 1
    return eng


def sum_loop_module():
    """sum(range(n)) accumulated through a carried variable."""
    return Module([
        Function("main", ["n"], [
            Assign("acc", c(0)),
            For("i", 0, v("n"), [Assign("acc", v("acc") + v("i"))]),
            Return([v("acc")]),
        ]),
    ])


def run_reference(module, args, memory=None):
    """(declared results, final memory, program) via the oracle."""
    prog = lower_module(module)
    cw = CompiledWorkload(prog)
    mem = Memory(dict(memory or {}))
    result = ReferenceInterpreter(prog, mem).run(cw.entry_args(args))
    return cw.declared_results(result.results), mem.snapshot(), prog


def assert_machine_matches_reference(module, args, memory, machine,
                                     **kwargs):
    """Run ``machine`` and assert results + memory match the oracle."""
    want, want_mem, prog = run_reference(module, args, memory)
    cw = CompiledWorkload(prog)
    mem = Memory(dict(memory or {}))
    res = cw.run(machine, mem, args, **kwargs)
    assert res.completed, f"{machine} did not complete"
    assert res.extra["declared_results"] == want
    assert mem.snapshot() == want_mem
    return res


@pytest.fixture
def dmv():
    return dmv_module()
