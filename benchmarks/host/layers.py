"""End-to-end and per-layer metrics from a run's tally and spans.

:data:`TARGETS` records, for every per-layer metric, the end-to-end
metric it should move and the workloads where it should show; the
README's table and the schema test are checked against it.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.host.stats import tail
from benchmarks.host.trace import totals
from benchmarks.host.workloads import SweepTally, Tally

#: Engine families, named after their packages under ``repro.sim``.
FAMILIES = ("tagged", "queued", "window", "vector")

ALL = ("steady", "cold-programs", "sweep", "locality")
COLD = ("cold-programs",)

#: per-layer metric -> (end-to-end metric it should move, workloads).
TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "import_s": ("setup_s", ALL),
    "trace.overhead": ("sim_ips", ALL),
    "workloads.build_ms": ("setup_s", ("steady", "locality")),
    "frontend.lower_ms": ("op_ms.p50", COLD),
    "compiler.elaborate_ms": ("op_ms.p50", COLD),
    "compiler.flatten_ms": ("op_ms.p50", COLD),
    "sim_cycles": ("sim_ips", ALL),
    "cache_model.overhead": ("sim_ips", ("locality",)),
    "cache_model.l1_hit_rate.tyr": ("sim_ips", ("locality",)),
    "cache_model.l1_hit_rate.unordered": ("sim_ips", ("locality",)),
    "cache_model.l1_mpki.tyr": ("sim_ips", ("locality",)),
    "cache_model.l1_mpki.unordered": ("sim_ips", ("locality",)),
    "pool.efficiency": ("sim_ips", ("sweep",)),
    "pool.precompile_share": ("sim_ips", ("sweep",)),
    "result_cache.key_share": ("sim_ips", ("sweep",)),
    "result_cache.put_share": ("sim_ips", ("sweep",)),
    "result_cache.get_share": ("setup_s", ("sweep",)),
    "result_cache.entry_kb": ("sim_ips", ("sweep",)),
    "result_cache.warm_speedup": ("sim_ips", ("sweep",)),
}
for _f in FAMILIES:
    TARGETS.update({
        f"codegen.{_f}.generate_ms": ("op_ms.p50", COLD),
        f"codegen.{_f}.compile_ms": ("op_ms.p50", COLD),
        f"codegen.{_f}.source_kb": ("op_ms.p50", COLD),
        f"codegen.{_f}.speedup": ("sim_ips", ("steady",)),
        f"engine.{_f}.bind_ms": ("op_ms.p50", COLD),
        f"engine.{_f}.loop_ms": ("sim_ips", ("steady", "locality")),
        f"engine.{_f}.ns_per_instr": ("sim_ips", ("steady", "locality")),
        f"engine.{_f}.instructions": ("sim_ips", ("steady",)),
        f"engine.{_f}.cycles": ("sim_ips", ("steady",)),
        f"profile.overhead.{_f}": ("sim_ips", ("locality",)),
    })

#: Modes whose spans count toward the compile layers' per-call times
#: (not the reference runs, the warm pass or the extra runs).
COMPILE_MODES = ("setup", "plain")


def end_to_end(tally: Tally, setup_samples: Sequence[float],
               rss_mb: float) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics and notes on how they were taken.

    Every time is first scaled to the reference host speed with its
    round's factor. Latencies are per operation; throughput is taken
    per round as summed instructions over summed seconds, and reported
    as the median over rounds.
    """
    latencies = [op.seconds * f * 1000.0
                 for rnd, f in zip(tally.rounds, tally.factors)
                 for op in rnd]
    tail_ms, percentile = tail(latencies)
    throughput = [sum(s.instructions for op in rnd for s in op.sims)
                  / (sum(op.seconds for op in rnd) * f)
                  for rnd, f in zip(tally.rounds, tally.factors) if rnd]
    values = {
        "setup_s": median(setup_samples),
        "op_ms.p50": median(latencies),
        "op_ms.tail": tail_ms,
        "sim_ips": median(throughput),
        "peak_rss_mb": rss_mb,
    }
    notes = [f"{len(latencies)} operations in {len(tally.rounds)} rounds; "
             f"op_ms.tail is p{percentile:.1f}; setup_s is the median of "
             f"{len(setup_samples)} fresh-process set-ups",
             "times are at reference host speed; this run's host-speed "
             f"factors span {min(tally.factors):.3f}.."
             f"{max(tally.factors):.3f} (median "
             f"{median(tally.factors):.3f})"]
    return values, notes


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


class _Spans:
    """Span totals with lookups by name and modes."""

    def __init__(self, processes: Sequence[Sequence[Sequence]]):
        self.rows = totals(processes)

    def get(self, name: str, modes: Sequence[str], key: str) -> float:
        return sum(self.rows.get((name, m), {}).get(key, 0)
                   for m in modes)

    def per_call_ms(self, name: str,
                    modes: Sequence[str] = COMPILE_MODES) -> Optional[float]:
        n = self.get(name, modes, "n")
        return 1000.0 * self.get(name, modes, "self") / n if n else None


def _engine_metrics(spans: _Spans, cache_on: str, cache_off: str
                    ) -> Dict[str, Optional[float]]:
    values: Dict[str, Optional[float]] = {}
    on = off = 0.0
    for f in FAMILIES:
        run = f"engine.{f}.run"
        plain = spans.get(run, ("plain",), "self")
        n = spans.get(run, ("plain",), "n")
        instructions = spans.get(run, ("plain",), "instructions")
        compiles = spans.get(f"codegen.{f}.compile", COMPILE_MODES, "n")
        values.update({
            f"codegen.{f}.generate_ms": spans.per_call_ms(
                f"codegen.{f}.generate"),
            f"codegen.{f}.compile_ms": spans.per_call_ms(
                f"codegen.{f}.compile"),
            f"codegen.{f}.source_kb": _ratio(spans.get(
                f"codegen.{f}.compile", COMPILE_MODES, "bytes") / 1024.0,
                compiles),
            f"codegen.{f}.speedup": _ratio(
                spans.get(run, ("interp",), "self"), plain),
            f"engine.{f}.bind_ms": spans.per_call_ms(f"engine.{f}.bind",
                                                     ("plain",)),
            f"engine.{f}.loop_ms": _ratio(1000.0 * plain, n),
            f"engine.{f}.ns_per_instr": _ratio(1e9 * plain, instructions),
            f"engine.{f}.instructions": _ratio(instructions, n),
            f"engine.{f}.cycles": _ratio(
                spans.get(run, ("plain",), "cycles"), n),
            f"profile.overhead.{f}": _ratio(
                spans.get(run, ("profile",), "self"), plain),
        })
        on += spans.get(run, (cache_on,), "self")
        off += spans.get(run, (cache_off,), "self")
    values["cache_model.overhead"] = _ratio(on, off)
    return values


def _cache_metrics(tally: Tally) -> Dict[str, float]:
    values = {}
    for machine in ("tyr", "unordered"):
        loads, hits, instructions = tally.cache.get(machine, (0, 0, 0))
        values[f"cache_model.l1_hit_rate.{machine}"] = _ratio(hits, loads)
        values[f"cache_model.l1_mpki.{machine}"] = _ratio(
            1000.0 * (loads - hits), instructions)
    return values


#: Harness metrics of workloads that do not go through the harness.
NO_HARNESS = {name: 0.0 for name in TARGETS
              if name.startswith(("pool.", "result_cache."))}


def per_layer_in_process(tally: Tally, spans: Sequence[Sequence],
                         import_s: float, plain_has_cache: bool
                         ) -> Dict[str, Optional[float]]:
    """Per-layer metrics of steady, cold-programs and locality."""
    s = _Spans([spans])
    traced = [op.seconds for rnd in tally.rounds for op in rnd]
    untraced = [op.seconds for rnd in tally.untraced for op in rnd]
    values: Dict[str, Optional[float]] = {
        "import_s": import_s,
        "trace.overhead": _ratio(sum(traced) / len(traced),
                                 sum(untraced) / len(untraced)),
        "sim_cycles": sum(op.sims[0].cycles for op in tally.rounds[0]),
        **_compile_metrics(s),
        **_engine_metrics(s, *(("plain", "cache") if plain_has_cache
                               else ("cache", "plain"))),
        **_cache_metrics(tally),
        **NO_HARNESS,
    }
    return values


def _compile_metrics(s: _Spans) -> Dict[str, Optional[float]]:
    return {
        "workloads.build_ms": s.per_call_ms("workloads.build"),
        "frontend.lower_ms": s.per_call_ms("frontend.lower"),
        "compiler.elaborate_ms": s.per_call_ms("compiler.elaborate"),
        "compiler.flatten_ms": s.per_call_ms("compiler.flatten"),
    }


def _load_spans(span_dir: str) -> List[list]:
    return [json.loads(path.read_text())
            for path in sorted(Path(span_dir).glob("spans-*.json"))]


def _entry_kb(cache_dir: str) -> Optional[float]:
    sizes = [p.stat().st_size for p in Path(cache_dir).rglob("*.pkl")
             if "plans" not in p.relative_to(cache_dir).parts]
    return _ratio(sum(sizes) / 1024.0, len(sizes))


def per_layer_sweep(tally: SweepTally) -> Tuple[Dict[str, Optional[float]],
                                                Dict[str, list]]:
    """Per-layer metrics of the sweep, from its traced passes; also
    returns the span lists, by pass, for the trace file."""
    passes = tally.passes
    if "plain" not in passes or "warm" not in passes:
        raise RuntimeError("a traced sweep pass failed: "
                           + "; ".join(tally.notes))
    spans = {name: _load_spans(out["span_dir"])
             for name, out in passes.items()}
    s = _Spans([lst for lists in spans.values() for lst in lists])
    plain, warm = passes["plain"], passes["warm"]
    busy = sum(sim[3] for sim in plain["sims"])
    wall = plain["wall"]
    traced_cycles = sum(sim[2] for sim in plain["sims"])
    untraced_wall = tally.rounds[0][0].seconds
    cache = Tally()
    for out in passes.values():
        for machine, row in out["cache"].items():
            cache.cache[machine] = row
    values: Dict[str, Optional[float]] = {
        "import_s": plain["setup_s"],
        "trace.overhead": _ratio(wall, untraced_wall),
        "sim_cycles": traced_cycles,
        **_compile_metrics(s),
        **_engine_metrics(s, "cache", "plain"),
        **_cache_metrics(cache),
        "pool.efficiency": busy / (plain["jobs"] * wall),
        "pool.precompile_share": s.get("pool.precompile", ("plain",),
                                       "self") / wall,
        "result_cache.key_share": s.get("result_cache.key", ("plain",),
                                        "self") / wall,
        "result_cache.put_share": s.get("result_cache.put", ("plain",),
                                        "self") / wall,
        "result_cache.get_share": s.get("result_cache.get", ("warm",),
                                        "self") / warm["wall"],
        "result_cache.entry_kb": _entry_kb(plain["cache_dir"]),
        "result_cache.warm_speedup": wall / warm["wall"],
    }
    return values, spans
