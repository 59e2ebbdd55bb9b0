"""Command-line interface.

Examples::

    tyr-repro list
    tyr-repro run dmv --machine tyr --scale default --tags 8
    tyr-repro experiment fig12 --scale default
    tyr-repro experiment all --scale small --jobs 2
    tyr-repro cache gc --max-size 2G --max-age 7d
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import List, Optional

from repro.errors import DeadlockError, ReproError
from repro.harness.cache import ResultCache
from repro.harness.experiments import EXPERIMENTS, get_experiment
from repro.harness.pool import RunOptions
from repro.harness.runlog import RunLog
from repro.harness.runner import MACHINES
from repro.workloads import WORKLOAD_NAMES, build_workload, paper_parameters
from repro.workloads.registry import EXTRA_WORKLOADS, SCALES


def _cmd_list(args) -> int:
    print("workloads (paper Table II):")
    for name in WORKLOAD_NAMES:
        scales = ", ".join(sorted(SCALES[name]))
        print(f"  {name:8s} paper: {paper_parameters(name)}")
        print(f"  {'':8s} scales: {scales}")
    print("extra workloads:", ", ".join(EXTRA_WORKLOADS))
    print("machines:", ", ".join(MACHINES))
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    return 0


def _render_deadlock(err: DeadlockError, full: bool = False) -> str:
    """The analyzer's report (culprits, wait cycle, violated rule)
    when the error carries one; the bare message otherwise."""
    d = getattr(err, "diagnosis", None)
    if d is None or not hasattr(d, "explain"):
        return str(err)
    text = d.explain()
    if full and getattr(d, "wait_edges", None):
        lines = [text, "wait-for graph (all edges):"]
        for src, dst, why in sorted(d.wait_edges):
            lines.append(f"  {src} --[{why}]--> {dst}")
        text = "\n".join(lines)
    return text


def _run_kwargs(args) -> dict:
    """The run kwargs of the options :func:`_add_run_options`
    declares."""
    kwargs = dict(
        tags=args.tags,
        issue_width=args.issue_width,
        queue_depth=args.queue_depth,
        window=args.window,
        total_tags=args.total_tags,
    )
    if args.cache:
        kwargs["cache"] = args.cache
    return kwargs


def _cmd_run(args) -> int:
    wl = build_workload(args.workload, args.scale)
    print(f"{args.workload} ({args.scale}): params {wl.params}")
    kwargs = _run_kwargs(args)
    for machine in args.machine:
        start = time.time()
        try:
            res = wl.run_checked(machine, **kwargs)
            elapsed = time.time() - start
            print(f"  {res.summary()}  [{elapsed:.1f}s wall, "
                  f"outputs verified]")
        except DeadlockError as err:
            print(f"  {machine}: DEADLOCK")
            report = _render_deadlock(err, full=args.explain)
            print("\n".join("    " + line
                            for line in report.splitlines()))
    return 0


def _cannot_write(path: str, err: OSError) -> int:
    print(f"error: cannot write {path}: {err.strerror or err}",
          file=sys.stderr)
    return 1


def _cmd_experiment(args) -> int:
    names: List[str]
    if args.name == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.name]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None:
        try:
            os.makedirs(cache.root, exist_ok=True)
        except OSError as err:
            return _cannot_write(cache.root, err)
    run_log = None
    if args.run_log is not None:
        try:
            run_log = RunLog(args.run_log)
        except OSError as err:
            return _cannot_write(args.run_log, err)
    options = RunOptions(timeout=args.timeout, retries=args.retries,
                         run_log=run_log, progress=args.progress,
                         codegen=not args.no_codegen)
    try:
        for name in names:
            start = time.time()
            report = get_experiment(name)(scale=args.scale,
                                          jobs=args.jobs, cache=cache,
                                          options=options)
            print(report)
            print(f"[{name} regenerated in {time.time() - start:.1f}s]\n")
    finally:
        if run_log is not None:
            run_log.close()
    if cache is not None:
        print(cache.stats())
    return 0


def _cmd_inspect(args) -> int:
    from repro.ir.printer import format_program, to_dot

    wl = build_workload(args.workload, args.scale)
    program = wl.compiled.program
    print(format_program(program))
    graph = wl.compiled.tagged
    print(f"\nelaborated: {graph.static_instructions} instructions, "
          f"{len(graph.blocks)} tag spaces")
    for op_name, count in sorted(graph.stats().items()):
        print(f"  {op_name:12s} {count}")
    if args.dot:
        try:
            with open(args.dot, "w") as f:
                f.write(to_dot(program))
        except OSError as err:
            return _cannot_write(args.dot, err)
        print(f"wrote {args.dot}")
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.tagged import (
        TaggedEngine,
        TyrPolicy,
        UnboundedGlobalPolicy,
    )

    wl = build_workload(args.workload, args.scale)
    policy = (TyrPolicy(args.tags) if args.machine == "tyr"
              else UnboundedGlobalPolicy())
    engine = TaggedEngine(wl.compiled.tagged, wl.fresh_memory(),
                          policy, record_trace=True)
    result = engine.run(wl.compiled.entry_args(wl.args))
    trace = engine.trace
    profile = trace.parallelism_profile()
    print(f"{args.machine} on {args.workload} ({args.scale}): "
          f"{len(trace.events)} events over {trace.duration} cycles, "
          f"peak parallelism {max(profile)}")
    print(f"completed: {result.completed}")
    if args.dot:
        try:
            with open(args.dot, "w") as f:
                f.write(trace.to_dot(max_events=20_000))
        except OSError as err:
            return _cannot_write(args.dot, err)
        print(f"wrote {args.dot} (render: dot -Tsvg {args.dot})")
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.harness.ascii_plots import bar_chart, table

    wl = build_workload(args.workload, args.scale)
    res = wl.run_checked(args.machine, profile=True, **_run_kwargs(args))
    prof = res.extra["profile"]
    if args.json:
        doc = prof.to_json_dict()
        if "cache" in res.extra:
            doc["cache"] = res.extra["cache"]
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"{args.machine} on {args.workload} ({args.scale}): "
          f"{prof.cycles} cycles, {prof.instructions} instructions, "
          f"{prof.busy_cycles} busy")
    print()
    print(bar_chart(prof.stall_breakdown(),
                    title="cycles by stall reason", unit=" cy"))
    if prof.memory_stall_split:
        split = prof.memory_stall_split
        print(f"memory stalls: {split.get('hit', 0)} cy on "
              f"slower-level hits, {split.get('miss', 0)} cy on "
              f"last-level misses")
        print()
    cache = res.extra.get("cache")
    if cache:
        rows = [(lvl["name"], lvl["geometry"], str(lvl["loads"]),
                 str(lvl["load_hits"]), str(lvl["stores"]),
                 f"{lvl['hit_rate']:.1%}", f"{lvl['mpki']:.1f}")
                for lvl in cache["levels"]]
        print(table(("level", "geometry", "loads", "load hits",
                     "stores", "hit rate", "mpki"), rows,
                    title=f"cache {cache['spec']}"))
    rows = [(label, str(fired), f"{cycles:.1f}")
            for label, fired, cycles in prof.top_nodes(args.top)]
    print(table(("node", "fired", "cycles"), rows,
                title=f"top {len(rows)} nodes by attributed cycles"))
    return 0


def _amount(number: str, mult: float) -> Optional[float]:
    """``number * mult``, or None unless that is finite and not
    negative (a negative or infinite gc bound would wipe the cache or
    overflow)."""
    try:
        value = float(number) * mult
    except ValueError:
        return None
    return value if 0 <= value < math.inf else None


def parse_size(text: str) -> int:
    """``500M`` / ``2G`` / ``1048576`` -> bytes."""
    t = text.strip().lower()
    if t.endswith("b"):
        t = t[:-1]
    mult = 1
    if t and t[-1] in "kmgt":
        mult = {"k": 1 << 10, "m": 1 << 20,
                "g": 1 << 30, "t": 1 << 40}[t[-1]]
        t = t[:-1]
    value = _amount(t, mult)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}: want a finite size >= 0 "
            f"(examples: 500M, 2G, 1048576)")
    return int(value)


def parse_age(text: str) -> float:
    """``7d`` / ``12h`` / ``30m`` / ``90`` (seconds) -> seconds."""
    t = text.strip().lower()
    mult = 1.0
    if t and t[-1] in "smhdw":
        mult = {"s": 1.0, "m": 60.0, "h": 3600.0,
                "d": 86400.0, "w": 604800.0}[t[-1]]
        t = t[:-1]
    value = _amount(t, mult)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"bad age {text!r}: want a finite age >= 0 "
            f"(examples: 7d, 12h, 30m, 90)")
    return value


def parse_timeout(text: str) -> float:
    """``--timeout`` seconds: finite and > 0. Zero or less would
    fail every run; NaN or infinity would disable the bound yet
    still force every run through a forked worker."""
    value = _amount(text, 1.0)
    if not value:
        raise argparse.ArgumentTypeError(
            f"bad timeout {text!r}: want a finite number of seconds > 0")
    return value


def _at_least(minimum: int, what: str):
    """An argparse type: an integer >= ``minimum``, else a parse
    error naming ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"bad {what} {text!r}: want an integer >= {minimum}")
        return value
    return parse


#: ``--top`` rows: a negative count would silently drop rows from the
#: end, zero print an empty table.
parse_rows = _at_least(1, "row count")
#: ``--jobs``: zero or fewer workers would silently run serially.
parse_jobs = _at_least(1, "worker count")
#: ``--retries``: a negative count would silently act as zero.
parse_retries = _at_least(0, "retry count")


def _cmd_cache_gc(args) -> int:
    if args.max_size is None and args.max_age is None:
        print("error: cache gc needs --max-size and/or --max-age "
              "(otherwise there is nothing to prune by)",
              file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    stats = cache.gc(max_size=args.max_size, max_age=args.max_age)
    print(f"cache gc at {cache.root}: removed {stats['removed']} "
          f"entr{'y' if stats['removed'] == 1 else 'ies'} "
          f"({stats['removed_bytes'] / (1 << 20):.1f} MiB), kept "
          f"{stats['kept']} ({stats['kept_bytes'] / (1 << 20):.1f} "
          f"MiB)")
    return 0


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The machine options ``run`` and ``profile`` share."""
    parser.add_argument("--tags", type=int, default=64,
                        help="tags per local tag space (TYR/k-bounded)")
    parser.add_argument("--total-tags", type=int, default=64,
                        help="global pool size (unordered-bounded)")
    parser.add_argument("--issue-width", type=int, default=128)
    parser.add_argument("--queue-depth", type=int, default=4)
    parser.add_argument("--window", type=int, default=8)
    parser.add_argument("--cache", default=None, metavar="SPEC",
                        help="simulate a cache hierarchy, e.g. "
                             "'line=8,miss=100,l1=64x4x1[,l2=...]'; "
                             "run shows hit rates in its summary "
                             "lines, profile splits memory stalls "
                             "into hit/miss cycles and prints "
                             "per-level hit rates")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tyr-repro",
        description="Reproduction of the TYR dataflow architecture "
                    "(MICRO 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, machines, experiments")

    run_p = sub.add_parser("run", help="run a workload on machines")
    run_p.add_argument("workload",
                       choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    run_p.add_argument("--machine", "-m", action="append",
                       choices=MACHINES, default=None)
    run_p.add_argument("--scale", default="default")
    _add_run_options(run_p)
    run_p.add_argument("--explain", action="store_true",
                       help="on deadlock, also dump the full "
                            "wait-for graph (every edge), not just "
                            "the extracted cycle and culprits")

    exp_p = sub.add_parser("experiment",
                           help="regenerate a paper figure/table")
    exp_p.add_argument("name",
                       choices=sorted(EXPERIMENTS) + ["all"])
    exp_p.add_argument("--scale", default="default")
    exp_p.add_argument("--jobs", "-j", type=parse_jobs, default=1,
                       help="fan simulation runs over N worker "
                            "processes")
    exp_p.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result "
                            "cache (on by default)")
    exp_p.add_argument("--cache-dir", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR "
                            "or .repro-cache)")
    exp_p.add_argument("--timeout", type=parse_timeout, default=None,
                       metavar="SECONDS",
                       help="per-run wall-clock timeout; a run past it "
                            "fails with RunTimeoutError naming its "
                            "spec instead of stalling the sweep")
    exp_p.add_argument("--retries", type=parse_retries, default=1,
                       metavar="N",
                       help="redispatches allowed for a run whose "
                            "worker died mid-run (default 1)")
    exp_p.add_argument("--run-log", default=None, metavar="FILE",
                       help="append one JSON event per spec "
                            "(queued/cache-hit/started/finished/"
                            "retried/timed-out) to FILE")
    exp_p.add_argument("--no-codegen", action="store_true",
                       help="interpret every run with the reference "
                            "firing rules, never handing off to the "
                            "generated plan kernels (identical "
                            "metrics; slower on long runs)")
    exp_p.add_argument("--progress", action="store_true",
                       help="live done/total, cache-hit rate, and ETA "
                            "line on stderr")

    cache_p = sub.add_parser("cache",
                             help="manage the on-disk result cache")
    cache_sub = cache_p.add_subparsers(dest="cache_command",
                                       required=True)
    gc_p = cache_sub.add_parser(
        "gc",
        help="prune cached results, least-recently-used first",
    )
    gc_p.add_argument("--max-size", type=parse_size, default=None,
                      metavar="SIZE",
                      help="keep at most SIZE bytes of entries "
                           "(e.g. 500M, 2G), evicting LRU by mtime")
    gc_p.add_argument("--max-age", type=parse_age, default=None,
                      metavar="AGE",
                      help="drop entries not used for AGE "
                           "(e.g. 7d, 12h, 900s)")
    gc_p.add_argument("--cache-dir", default=None,
                      help="cache directory (default $REPRO_CACHE_DIR "
                           "or .repro-cache); a plans/ tree left by "
                           "older versions is pruned too")

    ins_p = sub.add_parser(
        "inspect", help="show a workload's concurrent blocks"
    )
    ins_p.add_argument("workload",
                       choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    ins_p.add_argument("--scale", default="tiny")
    ins_p.add_argument("--dot", metavar="FILE",
                       help="also write a Graphviz rendering")

    tr_p = sub.add_parser(
        "trace",
        help="record a dynamic execution graph (paper Figs. 4/5)",
    )
    tr_p.add_argument("workload",
                      choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    tr_p.add_argument("--scale", default="tiny")
    tr_p.add_argument("--machine", "-m", default="tyr",
                      choices=["tyr", "unordered"])
    tr_p.add_argument("--tags", type=int, default=64)
    tr_p.add_argument("--dot", metavar="FILE",
                      help="write the Graphviz execution graph here")

    prof_p = sub.add_parser(
        "profile",
        help="attribute a run's cycles to stall reasons and hot nodes",
    )
    prof_p.add_argument("workload",
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    prof_p.add_argument("--machine", "-m", default="tyr",
                        choices=MACHINES)
    prof_p.add_argument("--scale", default="tiny")
    _add_run_options(prof_p)
    prof_p.add_argument("--top", type=parse_rows, default=10,
                        help="rows in the hotspot table (default 10)")
    prof_p.add_argument("--json", action="store_true",
                        help="emit the raw profile record as JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and not args.machine:
        args.machine = ["vn", "seqdf", "ordered", "unordered", "tyr"]
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "cache":
            return _cmd_cache_gc(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
