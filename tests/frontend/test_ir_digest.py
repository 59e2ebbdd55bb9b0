"""The printed IR of a fixed program corpus, pinned by SHA-256.

Lowering is deterministic and its output is the input of every later
stage, so a frontend change that is meant to be a pure refactor or
speed-up must leave these digests unchanged. The corpus is randomprog
seeds 0-999 plus every registry workload (registry programs do not vary
by scale; their sizes arrive as arguments and memory).

As with the golden engine records, never regenerate a digest to make
this test pass: a mismatch means lowering changed the IR. CI also runs
this file under two ``PYTHONHASHSEED`` values, so IR order that leaks
from set iteration fails every time rather than as a rare flake.
"""

import hashlib

import pytest

from repro.frontend.lower import lower_module
from repro.ir.printer import format_program
from repro.workloads import WORKLOAD_NAMES, build_workload
from repro.workloads.randomprog import random_module
from repro.workloads.registry import EXTRA_WORKLOADS

RANDOMPROG_SEEDS = range(1000)
RANDOMPROG_DIGEST = (
    "3ac5d6c9897cc770728a61423f8d2cc0dc315bd6b055187d955ebb45a0fad2d4"
)

WORKLOAD_DIGESTS = {
    "dmv": "389e5ac0c0770680eddb139ce4ea64c7623629927e7148ecf2ba6eaf94144857",
    "dmm": "d8035a432e12b0de305ae2d9aa08b3f0fd098577bb7f8966cad27037f373c336",
    "dconv":
        "a9410e0cff830308d40209e89ea9b1d5fe09372d935de5ce78413cc27f012ce9",
    "smv": "05ebf532c0c609d616ec9bde91ea432b11e4f152327d2d1535b58d04ab416450",
    "spmspv":
        "5c4abf7557705808c0c6d161cb99735c430decb3b4c3fcae7e543082c91f7530",
    "spmspm":
        "80a5b574edab278375b485058884698bae68527440fb5554fa19831dbbcd23a9",
    "tc": "c79b1d857ffbaa2c9e6ef6c86f5e796cf15af552477cf987b857dc425fed219a",
    "spmspv-scatter":
        "97b8fb9cc44c016c7e30e9e57f50349d126843306faa7ca570058a1deccde213",
    "bfs": "e62753869ecfd2585a12c9845ae66e97bc2c4b18e5bdda0690c34772908b598a",
    "histogram":
        "fd6a1337fce7928c64348d4e9fecf8f4e182ac575e341ed6f86408da4a52207e",
}


def _ir_text(module) -> bytes:
    return format_program(lower_module(module)).encode()


def test_randomprog_ir_digest():
    h = hashlib.sha256()
    for seed in RANDOMPROG_SEEDS:
        h.update(_ir_text(random_module(seed)))
        h.update(b"\0")
    assert h.hexdigest() == RANDOMPROG_DIGEST


def test_digests_cover_every_registry_workload():
    assert set(WORKLOAD_DIGESTS) == set(WORKLOAD_NAMES + EXTRA_WORKLOADS)


@pytest.mark.parametrize("name", WORKLOAD_NAMES + EXTRA_WORKLOADS)
def test_registry_workload_ir_digest(name):
    module = build_workload(name, "tiny").module
    digest = hashlib.sha256(_ir_text(module)).hexdigest()
    assert digest == WORKLOAD_DIGESTS[name]
