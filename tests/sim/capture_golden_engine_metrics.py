"""Regenerate the engine-equivalence oracles.

``golden_engine_metrics.json`` pins the exact metrics (cycles,
instructions, peak and mean live state, declared results, tag-pool
statistics) that the tagged and queued engines produced at the seed
commit, for every workload in :mod:`repro.workloads.registry` under
every tagged policy.  ``golden_profile_metrics.json`` pins the stall
taxonomy of profiled runs: per-reason cycle counts, the hottest nodes
and the cache-mode hit/miss split of every golden machine on every
tiny workload, under idealized, variable and cache-model timing.  The
equivalence suite (``test_engine_equivalence.py``) replays the same
runs and asserts bit-identical numbers, so hot-path rewrites of the
engines cannot silently change simulated behavior or its attribution.

Only regenerate these files from an engine state known to be
semantically correct (metrics originally: seed commit b70ce7e;
profiles: the last commit with a separate profiled twin of every
cycle loop), never to make a failing equivalence test pass::

    PYTHONPATH=src python tests/sim/capture_golden_engine_metrics.py
    PYTHONPATH=src python tests/sim/capture_golden_engine_metrics.py --profiles
"""

from __future__ import annotations

import json
import os
import sys

from repro.workloads.registry import (
    EXTRA_WORKLOADS,
    WORKLOAD_NAMES,
    build_workload,
)

#: Every registered workload, at the scale used for the golden runs.
GOLDEN_RUNS = (
    [(name, "tiny") for name in WORKLOAD_NAMES + EXTRA_WORKLOADS]
    + [("dmv", "small"), ("smv", "small")]
)

#: ``large``-scale equivalence pins (PR 3): every engine must stay
#: bit-identical at sweep scale, not just on tiny inputs.  These
#: replay in a few seconds but are marked ``slow`` in the equivalence
#: suite so they are opt-in locally and exercised in CI.  ``dconv`` is
#: excluded: its large configuration legitimately deadlocks under
#: k-bounding (the paper's point), so it cannot run on every machine.
GOLDEN_LARGE_RUNS = (
    ("dmv", "large"),
    ("smv", "large"),
    ("bfs", "large"),
)

#: Tagged policies under test plus the queued (ordered) engine.
GOLDEN_MACHINES = ("tyr", "unordered", "kbounded", "ordered")

#: Window-engine machines (vn/ooo/seqdf) and the data-parallel
#: machine, pinned before the PR 2 hot-path rewrite of
#: :mod:`repro.sim.window.engine`.
GOLDEN_WINDOW_MACHINES = ("vn", "ooo", "seqdf", "datapar")

#: Non-default engine configurations that must also stay identical.
GOLDEN_VARIANTS = (
    {"sample_traces": False},
    {"track_occupancy": True},
    {"load_latency": 6},
)

#: Variants exercised on the window/data-parallel machines
#: (``track_occupancy`` only instruments the tagged wait-match store).
GOLDEN_WINDOW_VARIANTS = (
    {"sample_traces": False},
    {"load_latency": 6},
)

#: Window-geometry variants (seqdf only: vn/ooo pin their own
#: window/width in the runner; datapar takes lanes from issue_width).
GOLDEN_SEQDF_VARIANTS = (
    {"window": 2},
    {"window": 4, "issue_width": 8},
    {"issue_width": 4},
)

#: Timing settings every profiled golden run is pinned under:
#: idealized, hash-based variable latency, and the cache model (small
#: enough that tiny workloads miss).
PROFILE_SETTINGS = (
    {},
    {"load_latency": 6},
    {"cache": "line=4,miss=60,l1=4x2x1"},
)

#: Extra tyr configurations whose profiles exercise the remaining
#: stall reasons: two tags per pool starve allocates
#: (``tag_starved``), a two-wide issue limits firing
#: (``width_limited``).
PROFILE_TYR_VARIANTS = (
    {"tags": 2},
    {"issue_width": 2},
)

OUT = os.path.join(os.path.dirname(__file__),
                   "golden_engine_metrics.json")
PROFILE_OUT = os.path.join(os.path.dirname(__file__),
                           "golden_profile_metrics.json")


def run_key(name, scale, machine, variant):
    parts = [name, scale, machine]
    parts += [f"{k}={v}" for k, v in sorted(variant.items())]
    return "/".join(parts)


def describe(result):
    rec = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "peak_live": result.peak_live,
        "mean_live": result.mean_live,
        "results": list(result.extra["declared_results"]),
    }
    if "pool_stats" in result.extra:
        rec["pool_stats"] = sorted(
            [s.name, s.capacity, s.peak_in_use, s.total_allocations]
            for s in result.extra["pool_stats"]
        )
        rec["leftover_tags_in_use"] = (
            result.extra["leftover_tags_in_use"]
        )
    if result.extra.get("peak_store_occupancy"):
        rec["peak_store_occupancy"] = dict(
            sorted(result.extra["peak_store_occupancy"].items())
        )
    if "fetch_stall_decider_cycles" in result.extra:
        rec["fetch_stall_decider_cycles"] = (
            result.extra["fetch_stall_decider_cycles"]
        )
        rec["fetch_stall_window_cycles"] = (
            result.extra["fetch_stall_window_cycles"]
        )
    prof = result.extra.get("profile")
    if prof is not None:
        rec["profile"] = prof.summary_fields()
        rec["profile"]["memory_stall_split"] = dict(
            sorted(prof.memory_stall_split.items())
        )
    return rec


def large_keys():
    """Golden keys belonging to the ``large``-scale (slow) runs."""
    return {
        run_key(name, scale, machine, {})
        for name, scale in GOLDEN_LARGE_RUNS
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES
    }


def capture_large():
    """Replay only the ``large``-scale golden runs."""
    golden = {}
    for name, scale in GOLDEN_LARGE_RUNS:
        wl = build_workload(name, scale)
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES:
            res = wl.run_checked(machine)
            golden[run_key(name, scale, machine, {})] = describe(res)
    return golden


def capture(include_large=True, codegen=True):
    """Replay the golden runs; ``codegen=False`` forces every run
    through the interpreter instead of the generated kernels (the
    records are the same either way)."""
    golden = {}
    if include_large:
        golden.update(capture_large())
    for name, scale in GOLDEN_RUNS:
        wl = build_workload(name, scale)
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES:
            res = wl.run_checked(machine, codegen=codegen)
            golden[run_key(name, scale, machine, {})] = describe(res)
    # Variant configurations on one representative workload each.
    wl = build_workload("dmv", "tiny")
    for machine in GOLDEN_MACHINES:
        for variant in GOLDEN_VARIANTS:
            if machine == "ordered" and "track_occupancy" in variant:
                continue  # queued engine has no wait-match store
            res, mem = wl.run(machine, codegen=codegen, **variant)
            golden[run_key("dmv", "tiny", machine, variant)] = (
                describe(res)
            )
    for machine in GOLDEN_WINDOW_MACHINES:
        for variant in GOLDEN_WINDOW_VARIANTS:
            res, mem = wl.run(machine, codegen=codegen, **variant)
            golden[run_key("dmv", "tiny", machine, variant)] = (
                describe(res)
            )
    for variant in GOLDEN_SEQDF_VARIANTS:
        res, mem = wl.run("seqdf", codegen=codegen, **variant)
        golden[run_key("dmv", "tiny", "seqdf", variant)] = (
            describe(res)
        )
    return golden


def capture_profiles(codegen=True):
    """Profiled runs of every golden machine on every tiny workload
    under each of :data:`PROFILE_SETTINGS`, plus tyr under each of
    :data:`PROFILE_TYR_VARIANTS`; ``codegen=False`` forces them
    through the interpreter instead of the profiled kernels (the
    records are the same either way)."""
    configs = [
        (machine, setting)
        for machine in GOLDEN_MACHINES + GOLDEN_WINDOW_MACHINES
        for setting in PROFILE_SETTINGS
    ] + [
        ("tyr", {**variant, **setting})
        for variant in PROFILE_TYR_VARIANTS
        for setting in PROFILE_SETTINGS
    ]
    golden = {}
    for name, scale in GOLDEN_RUNS:
        if scale != "tiny":
            continue
        wl = build_workload(name, scale)
        for machine, setting in configs:
            variant = {**setting, "profile": True}
            res = wl.run_checked(machine, codegen=codegen, **variant)
            golden[run_key(name, scale, machine, variant)] = describe(res)
    return golden


def write_profiles(golden, path=PROFILE_OUT):
    """One record per line, so a diff names the runs that moved."""
    with open(path, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(
            f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
            for key in sorted(golden)))
        fh.write("\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--profiles"]:
        golden, out = capture_profiles(), PROFILE_OUT
        write_profiles(golden)
    else:
        golden, out = capture(), OUT
        with open(out, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(golden)} golden records to {out}")
