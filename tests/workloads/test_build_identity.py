"""A workload builds the same in every process.

The result cache names a workload by its name, scale, seed and
builder parameters (:func:`repro.harness.pool.cache_key`), not by its
program and memory image. That is sound only while a build depends on
nothing else: a fresh interpreter under another ``PYTHONHASHSEED``
must build every registry workload, at every scale and two seeds, to
the same program, memory, arguments and expected outputs.

Run as a script, this module prints its builds' digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.workloads.registry import SCALES, build_workload

ITEMS = ("IR fingerprint", "initial memory", "args", "expected memory",
         "expected results")


def build_digests():
    """``name/scale/seed`` -> one SHA-256 per item of :data:`ITEMS`."""
    digests = {}
    for name in sorted(SCALES):
        for scale in sorted(SCALES[name]):
            for seed in (0, 1):
                wl = build_workload(name, scale, seed=seed)
                items = (wl.compiled.fingerprint,
                         sorted(wl.initial_memory.items()), wl.args,
                         sorted(wl.expected_memory.items()),
                         wl.expected_results)
                digests[f"{name}/{scale}/{seed}"] = [
                    hashlib.sha256(repr(item).encode()).hexdigest()
                    for item in items]
    return digests


def test_builds_agree_across_processes():
    src = str(Path(repro.__file__).resolve().parent.parent)
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run(
        [sys.executable, __file__],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    theirs = json.loads(proc.stdout)
    ours = build_digests()
    assert sorted(theirs) == sorted(ours)
    assert len(ours) == 2 * sum(map(len, SCALES.values()))
    diverged = [f"{build}: {item}" for build in sorted(ours)
                for item, mine, other in zip(ITEMS, ours[build],
                                             theirs[build])
                if mine != other]
    assert diverged == []


if __name__ == "__main__":
    print(json.dumps(build_digests()))
