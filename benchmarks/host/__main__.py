"""Command line of the host-time benchmark.

One workload, as the command in ``BENCHMARK.json`` runs it; the last
line of standard output is the JSON result::

    python3 -m benchmarks.host bench --workload steady --seed 0 \\
        --seconds 20 --trace 0

All four workloads, each in its own fresh process, over one or more
seeds, collected into a result set (``--trace`` instead runs the
traced variant and writes the per-layer numbers to ``trace.json``)::

    python3 -m benchmarks.host run --seed 0 --runs 10 --out set.json

Parent versus change, from two result sets of paired runs::

    python3 -m benchmarks.host compare PARENT.json CHANGE.json
"""

from __future__ import annotations

import argparse
import datetime
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from benchmarks.host import ROOT, SCRATCH, use_source_tree
from benchmarks.host.hostspeed import calibration, factor
from benchmarks.host.stats import classify

#: Set-up probes run in fresh processes besides the run's own set-up.
SETUP_PROBES = 4

#: Longest one set-up probe may take.
PROBE_TIMEOUT = 30

#: Longest one ``bench`` may take when ``run`` starts it.
BENCH_TIMEOUT = 180


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _probe(workload: str, seed: int) -> float:
    """One set-up in a fresh process, at reference host speed."""
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.host.child", "setup",
         json.dumps({"workload": workload, "seed": seed})],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT,
        check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"] * out["setup_factor"]


def _in_process(workload: str, seed: int, seconds: float, traced: bool):
    samples = ([] if traced else
               [_probe(workload, seed) for _ in range(SETUP_PROBES)])
    cal = calibration()
    t0 = perf_counter()
    w = importlib.import_module("benchmarks.host.workloads")
    import_s = perf_counter() - t0
    tracer = None
    if traced:
        from benchmarks.host.trace import Tracer
        tracer = Tracer().install()
    state = w.IN_PROCESS[workload].setup(seed)
    setup_s = perf_counter() - t0
    samples.append(setup_s * factor(cal + calibration()))
    tally = w.Tally()
    w.measure(workload, state, seconds, tally, tracer)
    layers = importlib.import_module("benchmarks.host.layers")
    if not traced:
        values, notes = layers.end_to_end(tally, samples, tally.rss_mb)
        return tally, values, notes, None
    tracer.uninstall()
    values = layers.per_layer_in_process(
        tally, tracer.spans, import_s,
        plain_has_cache=workload == "locality")
    record = {"missing_targets": sorted(set(tracer.missing)),
              "spans": {"main": tracer.spans}}
    return tally, values, [], record


def _sweep(seed: int, seconds: float, traced: bool, scratch: Path):
    w = importlib.import_module("benchmarks.host.workloads")
    layers = importlib.import_module("benchmarks.host.layers")
    tally = w.measure_sweep(seed, seconds, scratch, traced)
    if not traced:
        values, notes = layers.end_to_end(tally, tally.setup_samples,
                                          tally.rss_mb)
        return tally, values, notes, None
    values, spans = layers.per_layer_sweep(tally)
    missing = {name for out in tally.passes.values()
               for name in out["missing_targets"]}
    return tally, values, [], {"missing_targets": sorted(missing),
                               "spans": spans}


def _write_trace(workload: str, seed: int, values: dict, notes: list,
                 record: dict) -> Path:
    """Update this workload's entry in ``trace.json`` (in the current
    directory), keeping the other workloads' entries."""
    path = Path("trace.json")
    try:
        traces = json.loads(path.read_text())
    except (OSError, ValueError):
        traces = {}
    if not isinstance(traces, dict):
        traces = {}
    traces[workload] = {"seed": seed, "metrics": values, "notes": notes,
                        "missing": sorted(k for k, v in values.items()
                                          if v is None),
                        **record}
    path.write_text(json.dumps(traces))
    return path


def bench(ns: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if ns.workload not in names:
        print(f"unknown workload {ns.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    traced = ns.trace == 1
    declared = spec["per_layer" if traced else "end_to_end"]
    use_source_tree()
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if ns.workload == "sweep":
            tally, values, notes, record = _sweep(
                ns.seed, ns.seconds, traced, scratch)
        else:
            tally, values, notes, record = _in_process(
                ns.workload, ns.seed, ns.seconds, traced)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    notes = notes + tally.notes
    if record is not None:
        path = _write_trace(ns.workload, ns.seed, values, notes, record)
        notes.append(f"spans and per-layer metrics written to {path}")
    for metric in declared:
        value = values[metric["name"]]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{ns.workload} {metric['name']} = {shown} {metric['unit']}")
    for note in notes:
        print(f"{ns.workload} note: {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


def host_stamp() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "date": datetime.datetime.now().isoformat(timespec="seconds")}


def run(ns: argparse.Namespace) -> int:
    spec = load_spec()
    workloads = ns.workload or [w["name"] for w in spec["workloads"]]
    seconds = ns.seconds or spec["run_seconds"]
    record = {"host": host_stamp(), "seconds": seconds,
              "trace": int(ns.trace), "runs": []}
    status = 0
    for seed in range(ns.seed, ns.seed + ns.runs):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, "-m", "benchmarks.host", "bench",
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(ns.trace))],
                cwd=ROOT, capture_output=True, text=True,
                timeout=BENCH_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            record["runs"].append({"workload": workload, "seed": seed,
                                   "result": json.loads(lines[-1])})
            if ns.out:
                Path(ns.out).write_text(json.dumps(record, indent=1) + "\n")
    return status


def _fmt(q, unit: str) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit}"


def compare(ns: argparse.Namespace) -> int:
    spec = load_spec()
    sets = []
    for path in (ns.parent, ns.change):
        sets.append({(r["workload"], r["seed"]): r["result"]
                     for r in json.loads(Path(path).read_text())["runs"]})
    parent, change = sets
    status = 0
    print(f"{'workload':<14} {'metric':<20} {'verdict':<14} "
          f"{'parent median [q1, q3]':<34} {'change median [q1, q3]':<34} "
          f"change/parent (base)  wins")
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(seed for (w, seed) in parent
                       if w == workload and (w, seed) in change)
        if not seeds:
            continue
        p_runs = [parent[(workload, s)] for s in seeds]
        c_runs = [change[(workload, s)] for s in seeds]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = classify([r["metrics"][name]["value"] for r in p_runs],
                           [r["metrics"][name]["value"] for r in c_runs],
                           metric["better"], metric["bound"])
            verdict = row["verdict"]
            if verdict == "gain" and c_failed > p_failed:
                verdict = "void:failures"
            if verdict in ("regression", "too-few-pairs"):
                status = 1
            if "parent" not in row:
                print(f"{workload:<14} {name:<20} {verdict:<14} "
                      f"{row['pairs']} pair(s)")
                continue
            unit = metric["unit"]
            print(f"{workload:<14} {name:<20} {verdict:<14} "
                  f"{_fmt(row['parent'], unit):<34} "
                  f"{_fmt(row['change'], unit):<34} "
                  f"{row['ratio']:.4f}x of {row['parent'][1]:.4g} {unit}  "
                  f"{row['wins']}/{row['pairs']}")
        print(f"{workload:<14} {'failed ops':<20} "
              f"parent {p_failed}/{sum(r['attempted'] for r in p_runs)}, "
              f"change {c_failed}/{sum(r['attempted'] for r in c_runs)}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m benchmarks.host",
                                 description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    b = sub.add_parser("bench", help="one workload, one seed")
    b.add_argument("--workload", required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--seconds", type=float, required=True)
    b.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("run", help="all workloads over seeds")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--runs", type=int, default=1,
                   help="seeds seed .. seed+runs-1")
    r.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--workload", action="append",
                   help="only this workload (repeatable)")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--out", help="write the result set here")
    c = sub.add_parser("compare", help="parent versus change")
    c.add_argument("parent")
    c.add_argument("change")
    ns = ap.parse_args(argv)
    return {"bench": bench, "run": run, "compare": compare}[ns.command](ns)


if __name__ == "__main__":
    sys.exit(main())
