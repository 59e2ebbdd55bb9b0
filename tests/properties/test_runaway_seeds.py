"""The seeds the property suites never draw run away in the reference
interpreter itself (see ``seeds.py``)."""

import importlib

import pytest

from repro.frontend.lower import lower_module
from repro.harness.runner import CompiledWorkload
from repro.ir.interp import ReferenceInterpreter
from repro.sim.memory import Memory
from repro.workloads.randomprog import random_memory, random_module

from tests.properties.seeds import (
    RUNAWAY_BITS,
    RUNAWAY_SEEDS,
    RUNAWAY_STEPS,
    SEEDS,
)


class _Wide(Exception):
    """A value wider than ``RUNAWAY_BITS``, raised at its step."""


class _WidthWatch(ReferenceInterpreter):
    """The reference interpreter, stopped at its first value wider
    than ``RUNAWAY_BITS``."""

    def _exec_op(self, block, op, args, env):
        super()._exec_op(block, op, args, env)
        for port in (0, 1):
            value = env.get((op.op_id, port))
            if value.__class__ is int \
                    and value.bit_length() > RUNAWAY_BITS:
                raise _Wide(self._steps)


@pytest.mark.parametrize("seed", RUNAWAY_SEEDS)
def test_excluded_seed_runs_away_in_the_reference(seed):
    """On the suites' memory and arguments, each excluded program
    makes an integer wider than 65,536 bits within 1,000 reference
    steps (past them the interpreter raises ``SimulationError``)."""
    program = lower_module(random_module(seed))
    interp = _WidthWatch(program, Memory(random_memory()),
                         max_steps=RUNAWAY_STEPS)
    with pytest.raises(_Wide):
        interp.run(CompiledWorkload(program).entry_args([3, 5]))


@pytest.mark.parametrize("suite", [
    "test_cache_differential", "test_codegen_differential",
    "test_metrics_invariants", "test_theorems"])
def test_property_suites_draw_the_shared_seeds(suite):
    """Every suite that draws random programs draws them from the one
    strategy that leaves the runaway seeds out."""
    assert importlib.import_module(f"tests.properties.{suite}").SEEDS \
        is SEEDS
