"""Soundness of the per-process shape memo (:mod:`repro.sim.codegen`).

The tagged, flat and window generators emit each node shape once per
structural key and give every later node with that key the memoized
recipe. A program's kernel table must not depend on which program
warmed the memo: for every node, the shape texts, the refs as bound
and the constants must equal those of an emission over that node
itself. A key missing a structural feature shows here as a text from
another node's structure; a recipe keeping a value shows as another
node's constant. The vector generator keeps no memo.
"""

import pytest

from repro.frontend import lower_module
from repro.harness.runner import CompiledWorkload
from repro.sim.codegen import queued, tagged, window
from repro.sim.codegen.core import RowRef
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.randomprog import random_module

#: Family -> its generator module, which reads the family's lowering.
GENERATORS = {"tagged": tagged, "flat": queued, "window": window}


class _Forgetful(dict):
    """A memo that keeps nothing: every node is emitted over its own
    stand-in."""

    def __setitem__(self, key, value) -> None:
        pass


def _rows(table):
    """Per row: shape texts, refs as bound, and constants compared by
    type and value (``1``/``True`` and ``0``/``0.0``/``-0.0`` share a
    shape but not a constant)."""
    rows = []
    for recipe, fields in table.rows:
        rows.append((
            tuple(text for text, _ in recipe.variants),
            tuple(tuple(ref.concrete(fields) if isinstance(ref, RowRef)
                        else ref for ref in refs)
                  for _, refs in recipe.variants),
            tuple((type(value), repr(value))
                  for value in recipe.consts(fields)),
        ))
    return rows


@pytest.fixture(scope="module")
def corpus():
    """randomprog seeds 0..199 plus every registry workload at tiny."""
    programs = [CompiledWorkload(lower_module(random_module(seed)))
                for seed in range(200)]
    programs += [build_workload(name, "tiny").compiled
                 for name in WORKLOAD_NAMES]
    return programs


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_warm_memo_builds_the_tables_an_empty_one_does(family, corpus,
                                                       monkeypatch):
    module = GENERATORS[family]
    monkeypatch.setattr(module, "_MEMO", _Forgetful())
    cold = [_rows(module.generate(cw.lowering(family))) for cw in corpus]
    monkeypatch.setattr(module, "_MEMO", {})
    # Warm the memo with every program, last first, so most of each
    # program's recipes come from other programs' nodes.
    for cw in reversed(corpus):
        module.generate(cw.lowering(family))
    for cw, rows in zip(corpus, cold):
        assert _rows(module.generate(cw.lowering(family))) == rows
