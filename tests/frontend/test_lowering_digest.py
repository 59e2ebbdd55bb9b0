"""The machine lowerings of a fixed program corpus, pinned by SHA-256.

The companion of ``test_ir_digest.py`` one stage later: the elaborated
tagged graph (``elaborate``), the flat graph (``flatten``), the window
plans (``build_plans``) and the vector lowering (``lower_vector``) of
randomprog seeds 0-999 and of every registry workload. Each is hashed
through a canonical text rendering that covers node numbering, opcodes,
immediates and their port order, out-edge order, attributes (route
tables included), entry sources, result nodes and tag overrides, and
prints no object address. A program a lowering rejects contributes its
error type and message instead.

The engines' ready queues and the kernel generators read these
structures in order, so a compiler change meant as a pure speed-up must
leave every digest unchanged. Never regenerate a digest to make this
test pass. CI also runs this file under two ``PYTHONHASHSEED`` values.
"""

import dataclasses
import enum
import hashlib

import pytest

from repro.compiler.elaborate import elaborate
from repro.compiler.flatten import flatten
from repro.errors import ReproError
from repro.frontend.lower import lower_module
from repro.ir.program import Lit, Param, Res
from repro.sim.vector.plan import lower_vector
from repro.sim.window.plan import build_plans
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.randomprog import random_module
from repro.workloads.registry import EXTRA_WORKLOADS

RANDOMPROG_SEEDS = range(1000)

RANDOMPROG_DIGESTS = {
    "tagged":
        "baf285bd6882e35b548a3b02cf41b27f4efe65c0c824b17d04b832ee805d9427",
    "flat":
        "e1b83477e0ad63340ca4047990487ae24d8c54e21583996ca1af5bab401f7314",
    "window":
        "b367250823876282fb7f219e444c83d584cb1dc396c4b009378b57ffe6e6e390",
    "vector":
        "2a6d0afefd97c59fca378500fcfff5a2b27c3e92375ae65570bee24e21806dc3",
}

WORKLOAD_DIGESTS = {
    "dmv":
        "81d1cb6f416c3fc2938a77ba5db0fc50f032789921116bf813b2b02f6b5adce3",
    "dmm":
        "6bd881b81b8dbe0c70004cce5fd17e2bd375b5425f6e1f306a123d293465cd57",
    "dconv":
        "45051771fe0feca090fd8c1845201ef1d2d0ba233b4fb31c469bdbd71468c487",
    "smv":
        "5d70fecde4f4e35ca37707485462d47fd33d498a9636144d6aae488354928514",
    "spmspv":
        "efc0733ad4616aab8f14290623c3e94eb48d42856d0dee6b62316799e225ede1",
    "spmspm":
        "54e7abf95483d7bc068e97af0ec4cbffed6111443a87f041859cbe702602bc92",
    "tc":
        "78f977440d6afd132fc8f880d8f12a582f0d19683f685c74d9f6553178a503d1",
    "spmspv-scatter":
        "af432767effacde4581e4b9c425659cfc73082914907774ee3c04f6f9f738b3e",
    "bfs":
        "93392f45ff0af377c3e0835e9017c41d6b2081aba82af1b2dbdda164133758b7",
    "histogram":
        "bdb4987e8245caa11f8ab40f2af988eb3a324e9b2954a0701846089d659a5018",
}


def _node_lines(nodes, with_block):
    for n in nodes:
        where = f" @{n.block}" if with_block else ""
        yield (f"n{n.node_id} {n.op.value}{where} in={n.n_inputs} "
               f"out={n.n_outputs} imms={list(n.imms.items())!r} "
               f"edges={n.out_edges!r} attrs={list(n.attrs.items())!r}")


def render_tagged(g) -> str:
    # ``tag_overrides`` is keyed by block name and carries no order.
    lines = [f"entry {g.entry_block}", f"blocks {g.blocks!r}",
             f"tags {sorted(g.tag_overrides.items())!r}",
             f"sources {g.entry_sources!r}",
             f"results {g.result_nodes!r}"]
    lines.extend(_node_lines(g.nodes, True))
    return "\n".join(lines)


def render_flat(g) -> str:
    lines = [f"sources {g.entry_sources!r}",
             f"results {g.result_nodes!r} of {g.n_results}",
             f"const {list(g.const_results.items())!r}"]
    lines.extend(_node_lines(g.nodes, False))
    return "\n".join(lines)


def render_value(value) -> str:
    """Canonical text of a plan structure: dataclasses and named tuples
    field by field, containers in their own order, scalars by repr."""
    if isinstance(value, (Lit, Param, Res)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        fields = ", ".join(
            f"{f.name}={render_value(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        fields = ", ".join(f"{name}={render_value(getattr(value, name))}"
                           for name in value._fields)
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{render_value(k)}: {render_value(v)}"
                               for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(render_value(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    raise TypeError(f"no canonical rendering for {type(value).__name__}")


LOWERINGS = {
    "tagged": lambda p: render_tagged(elaborate(p)),
    "flat": lambda p: render_flat(flatten(p)),
    "window": lambda p: render_value(build_plans(p)),
    "vector": lambda p: render_value(lower_vector(p)),
}


def _text(kind, program) -> bytes:
    try:
        text = LOWERINGS[kind](program)
    except ReproError as err:
        text = f"error {type(err).__name__}: {err}"
    return text.encode()


@pytest.fixture(scope="module")
def randomprog_programs():
    return [lower_module(random_module(seed)) for seed in RANDOMPROG_SEEDS]


@pytest.mark.parametrize("kind", sorted(LOWERINGS))
def test_randomprog_lowering_digest(kind, randomprog_programs):
    h = hashlib.sha256()
    for program in randomprog_programs:
        h.update(_text(kind, program))
        h.update(b"\0")
    assert h.hexdigest() == RANDOMPROG_DIGESTS[kind]


def test_digests_cover_every_registry_workload():
    assert set(WORKLOAD_DIGESTS) == set(WORKLOAD_NAMES + EXTRA_WORKLOADS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOADS)
def test_registry_workload_lowering_digest(name):
    program = lower_module(build_workload(name, "tiny").module)
    h = hashlib.sha256()
    for kind in sorted(LOWERINGS):
        h.update(_text(kind, program))
        h.update(b"\0")
    assert h.hexdigest() == WORKLOAD_DIGESTS[name]
