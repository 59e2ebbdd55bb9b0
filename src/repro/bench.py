"""Host-throughput benchmark for the simulation engines.

Measures simulated instructions per host-second on representative
workloads (dense, sparse, stencil, graph) across the tagged, queued,
and window engines, writes a ``BENCH_*.json`` record, and fails
(exit 1) when any case regresses more than ``--threshold`` versus the
most recent existing record -- so engine hot-path changes land with
before/after evidence::

    PYTHONPATH=src python -m repro.bench --out BENCH_$(date +%F).json

Each case runs ``--rounds`` times and keeps the fastest round (host
timing noise only adds time, never removes it). Cases dispatch through
the shared :class:`repro.harness.runner.CompiledWorkload` path (the
one sweeps and experiments time), deliberately bypassing the result
cache -- a benchmark that hits the cache measures nothing.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import sys
import time
from typing import Dict, Optional

from repro.harness.runner import KERNEL_FAMILY
from repro.sim.memory import Memory  # noqa: F401  (re-export for tooling)
from repro.workloads import build_workload

#: (workload, scale, machine) cases tracked by the benchmark record.
#: ``tyr``/``ordered`` cover the tagged and queued engines (PR 1);
#: ``vn``/``seqdf`` cover the window engine, on the original two
#: workloads plus a stencil (dconv) and a graph kernel (bfs);
#: ``datapar`` covers the vector engine and the ``large`` rows keep
#: full-scale sweeps honest (PR 3).
CASES = (
    ("dmv", "small", "tyr"),
    ("dmv", "small", "ordered"),
    ("dmv", "small", "vn"),
    ("dmv", "small", "seqdf"),
    ("dmv", "small", "datapar"),
    ("smv", "small", "tyr"),
    ("smv", "small", "ordered"),
    ("smv", "small", "vn"),
    ("smv", "small", "seqdf"),
    ("smv", "small", "datapar"),
    ("dconv", "small", "tyr"),
    ("dconv", "small", "seqdf"),
    ("dconv", "small", "datapar"),
    ("bfs", "small", "tyr"),
    ("bfs", "small", "seqdf"),
    ("dmv", "large", "tyr"),
    ("dmv", "large", "seqdf"),
    ("dmv", "large", "datapar"),
    ("smv", "large", "tyr"),
    ("bfs", "large", "seqdf"),
)

DEFAULT_THRESHOLD = 0.30


def _run_case(name: str, scale: str, machine: str,
              rounds: int) -> Dict[str, object]:
    wl = build_workload(name, scale)
    # Materialize the machine-independent compile outside the timed
    # region; the timed region covers engine construction (plans,
    # dispatch closures) plus simulation, as in earlier records.
    if machine in ("ordered",):
        wl.compiled.flat
    elif machine in ("tyr", "unordered", "kbounded"):
        wl.compiled.tagged
    else:
        wl.compiled.program
    # Generated plan kernels are built once per workload; keep that
    # one-time cost out of the timed region like the lowerings above.
    family = KERNEL_FAMILY.get(machine)
    if family is not None:
        wl.compiled.kernels(family)

    best = float("inf")
    instructions = 0
    for _ in range(rounds):
        t0 = time.perf_counter()
        result, _ = wl.run(machine, sample_traces=False)
        elapsed = time.perf_counter() - t0
        if not result.completed:
            raise RuntimeError(f"{name}/{scale}/{machine} deadlocked")
        instructions = result.instructions
        best = min(best, elapsed)
    return {
        "instructions": instructions,
        "best_seconds": round(best, 6),
        "instrs_per_sec": round(instructions / best, 1),
    }


def _record_date(path: str) -> str:
    """The ISO ``date`` stamped inside a record ('' if unreadable)."""
    try:
        with open(path) as fh:
            date = json.load(fh).get("date", "")
    except (OSError, json.JSONDecodeError):
        return ""
    return date if isinstance(date, str) else ""


def _latest_baseline(out_path: str) -> Optional[str]:
    """The newest BENCH_*.json, excluding the output file.

    Ordered by the ``date`` field stamped *inside* each record (ISO
    strings sort chronologically), with file mtime as a tiebreak --
    a fresh checkout gives every file the same mtime, and editing an
    old record must not promote it over a newer one.
    """
    records = [p for p in glob.glob("BENCH_*.json")
               if os.path.abspath(p) != os.path.abspath(out_path)]
    if not records:
        return None
    return max(records,
               key=lambda p: (_record_date(p), os.path.getmtime(p)))


def _check_regressions(cases: Dict[str, Dict[str, object]],
                       baseline_path: str, threshold: float) -> bool:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    ok = True
    for key, rec in cases.items():
        base = baseline.get("cases", {}).get(key)
        if not base:
            continue
        now = rec["instrs_per_sec"]
        then = base["instrs_per_sec"]
        ratio = now / then if then else 1.0
        marker = ""
        if ratio < 1.0 - threshold:
            ok = False
            marker = "  <-- REGRESSION"
        print(f"  {key}: {now / 1000:.0f}k instr/s "
              f"(baseline {then / 1000:.0f}k, {ratio:.2f}x){marker}")
    return ok


def compare_records(path_a: str, path_b: str) -> int:
    """Print a per-case throughput table of record B versus A.

    A is the baseline (denominator), B the candidate.  Cases present
    in only one record are listed but unrated.  Returns 0; comparison
    is informational (use ``--baseline``/``--threshold`` to gate).
    """
    with open(path_a) as fh:
        rec_a = json.load(fh)
    with open(path_b) as fh:
        rec_b = json.load(fh)
    cases_a = rec_a.get("cases", {})
    cases_b = rec_b.get("cases", {})
    keys = sorted(set(cases_a) | set(cases_b))
    width = max((len(k) for k in keys), default=4)
    print(f"A = {path_a} ({rec_a.get('date', '?')})")
    print(f"B = {path_b} ({rec_b.get('date', '?')})")
    header = (f"{'case':<{width}}  {'A instr/s':>12}  "
              f"{'B instr/s':>12}  {'B/A':>6}")
    print(header)
    print("-" * len(header))
    ratios = []
    for key in keys:
        a = cases_a.get(key, {}).get("instrs_per_sec")
        b = cases_b.get(key, {}).get("instrs_per_sec")
        fa = f"{a / 1000:.0f}k" if a else "-"
        fb = f"{b / 1000:.0f}k" if b else "-"
        if a and b:
            ratio = b / a
            if ratio > 0:
                ratios.append(ratio)
                fr = f"{ratio:.2f}x"
            else:
                # A zero/negative throughput (a failed or hand-edited
                # record) has no log; rate it n/a rather than letting
                # math.log kill the whole table.
                fr = "n/a"
        else:
            fr = "-"
        print(f"{key:<{width}}  {fa:>12}  {fb:>12}  {fr:>6}")
    if ratios:
        geomean = math.exp(sum(math.log(r) for r in ratios)
                           / len(ratios))
        print("-" * len(header))
        print(f"{'geomean':<{width}}  {'':>12}  {'':>12}  "
              f"{geomean:.2f}x")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark simulator host throughput.")
    ap.add_argument("--compare", nargs=2, default=None,
                    metavar=("A.json", "B.json"),
                    help="print a per-case throughput table of B "
                         "versus A (with geomean) and exit; no "
                         "benchmark runs")
    ap.add_argument("--out", default=None,
                    help="write the JSON record here "
                         "(default BENCH_<date>.json)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="timed rounds per case; fastest wins")
    ap.add_argument("--baseline", default=None,
                    help="compare against this record instead of the "
                         "most recent BENCH_*.json")
    ap.add_argument("--threshold", type=float,
                    default=DEFAULT_THRESHOLD,
                    help="tolerated fractional slowdown per case")
    ns = ap.parse_args(argv)
    if ns.compare:
        for path in ns.compare:
            if not os.path.exists(path):
                ap.error(f"record not found: {path}")
        return compare_records(ns.compare[0], ns.compare[1])
    if ns.rounds < 1:
        ap.error("--rounds must be >= 1")
    if ns.baseline and not os.path.exists(ns.baseline):
        ap.error(f"baseline record not found: {ns.baseline}")

    out = ns.out or time.strftime("BENCH_%Y-%m-%d.json")
    record = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": ns.rounds,
        "cases": {},
    }
    for name, scale, machine in CASES:
        key = f"{name}/{scale}/{machine}"
        rec = _run_case(name, scale, machine, ns.rounds)
        record["cases"][key] = rec
        print(f"{key}: {rec['instrs_per_sec'] / 1000:.0f}k instr/s "
              f"({rec['instructions']} instrs, "
              f"best {rec['best_seconds'] * 1000:.1f} ms)")

    baseline = ns.baseline or _latest_baseline(out)
    ok = True
    if baseline:
        print(f"\nversus {baseline} "
              f"(threshold {ns.threshold:.0%} slowdown):")
        ok = _check_regressions(record["cases"], baseline,
                                ns.threshold)
    else:
        print("\nno earlier BENCH_*.json record; skipping "
              "regression check")

    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if not ok:
        print("FAIL: throughput regression beyond threshold",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
