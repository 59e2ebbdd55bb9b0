"""Fig. 11: bounding a *global* tag space deadlocks on dmv.

The obvious way to throttle a tagged machine -- cap the global tag
pool -- deadlocks: eager exploration hands all tags to outer-loop
work whose completion depends on inner-loop work that can no longer
get a tag. TYR with the *same number of tags per block* completes.
The number of global tags needed to finish grows with input size.

The report also exercises the ablation story: dropping either of
TYR's allocation rules (ready gating, the spare-tag reserve)
reintroduces a deadlock, and the wait-for-graph analyzer identifies
*which* dropped rule caused it (``DeadlockDiagnosis.violated_rule``)
-- the experiment records the analyzer's verdict, not merely that a
``DeadlockError`` was raised.
"""

from __future__ import annotations

from repro.errors import DeadlockError
from repro.frontend.ast import Assign, Call, For, Function, Module, Return
from repro.frontend.dsl import c, v
from repro.frontend.lower import lower_module
from repro.harness.ascii_plots import table
from repro.harness.experiments.base import ExperimentReport, register
from repro.harness.pool import run_batch
from repro.harness.runner import CompiledWorkload
from repro.sim.memory import Memory
from repro.sim.metrics import ExecutionResult
from repro.sim.tagged import TaggedEngine
from repro.sim.tagged.tagspace import AblatedTyrPolicy
from repro.workloads import build_workload

#: Bounded global tag-pool sizes tried per input size, ascending.
GLOBAL_TAGS = (4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512)


def _lemma1_module() -> Module:
    """Call site 1's first argument is slow (a loop result); sites 2
    and 3 request tags immediately but are only ready once site 1's
    result arrives. Without ready-gating they claim both of f's tags
    and starve site 1 (the Lemma 1 scenario)."""
    return Module([
        Function("f", ["a", "b"], [Return([v("a") + v("b")])]),
        Function("main", ["p"], [
            Assign("q", c(0)),
            For("i", 0, c(20), [Assign("q", v("q") + v("i"))]),
            Call(["x"], "f", [v("q"), v("p")]),
            Call(["y"], "f", [v("p"), v("x")]),
            Call(["z"], "f", [v("p"), v("y")]),
            Return([v("z")]),
        ]),
    ])


def _run_ablation(drop: str, wl=None):
    """Deadlock a program under ``AblatedTyrPolicy(drop=...)`` and
    return the analyzer's diagnosis (None if it completed)."""
    if wl is not None:
        cw, mem, args = wl.compiled, wl.fresh_memory(), wl.args
    else:
        cw = CompiledWorkload(lower_module(_lemma1_module()))
        mem, args = Memory({}), [7]
    engine = TaggedEngine(cw.tagged, mem, AblatedTyrPolicy(2, drop=drop))
    try:
        engine.run(cw.entry_args(args))
        return None
    except DeadlockError as err:
        return err.diagnosis


@register("fig11")
def run(scale: str = "small", workload: str = "dmv", total_tags: int = 8,
        sizes=(8, 16, 32, 48), jobs: int = 1, cache=None,
        options=None) -> ExperimentReport:
    wl = build_workload(workload, scale)
    # The bounded global pool on this input, then the pool sizes that
    # decide how many global tags each input size needs.
    smalls = [build_workload(workload, "tiny", n=n) for n in sizes]
    res, *outcomes = run_batch(
        [(wl, "unordered-bounded", {"total_tags": total_tags}, False)]
        + [(small, "unordered-bounded", {"total_tags": total}, False)
           for small in smalls for total in GLOBAL_TAGS],
        jobs=jobs, cache=cache, tolerate=(DeadlockError,),
        options=options)
    if isinstance(res, DeadlockError):
        deadlocked = True
        diagnosis_text = res.diagnosis.explain()
        pending = len(res.diagnosis.pending_allocations)
    else:
        deadlocked = not res.completed
        diagnosis_text = "completed unexpectedly"
        pending = 0

    # Ablations: dropping the spare rule wedges dmv's nested loops;
    # dropping ready gating wedges the Lemma-1 call chain. The
    # analyzer must name the dropped rule as the cause. They run
    # directly: an ablated policy is no machine a spec can name.
    ablations = {
        "spare": _run_ablation("spare", wl),
        "ready": _run_ablation("ready"),
    }
    ablation_verdicts = {
        drop: (diag.violated_rule if diag is not None else "completed")
        for drop, diag in ablations.items()
    }
    ablation_text = []
    for drop, diag in sorted(ablations.items()):
        ablation_text.append(f"TYR with drop={drop!r}:")
        if diag is None:
            ablation_text.append("  completed (unexpected)")
        else:
            ablation_text.extend("  " + line
                                 for line in diag.explain().splitlines())

    # TYR with the same per-block budget completes.
    [tyr] = run_batch([(wl, "tyr", {"tags": total_tags})],
                      jobs=jobs, cache=cache, options=options)

    # How many global tags dmv needs as input size grows.
    flat = iter(outcomes)
    growth_rows = []
    for n in sizes:
        ok = [total for total, out in zip(GLOBAL_TAGS, flat)
              if isinstance(out, ExecutionResult) and out.completed]
        growth_rows.append([n, ok[0] if ok else ">512"])

    text = "\n".join([
        f"unordered dataflow, global pool of {total_tags} tags on "
        f"{workload} ({scale}):",
        f"  -> {'DEADLOCK' if deadlocked else 'completed'} "
        f"({pending} allocations pending)",
        diagnosis_text,
        "",
        f"TYR, {total_tags} tags per *local* tag space on the same "
        f"program:",
        f"  -> completed in {tyr.cycles} cycles "
        f"(peak live {tyr.peak_live})",
        "",
        *ablation_text,
        "",
        table(["input size n", "min global tags to complete"],
              growth_rows,
              title="Global tags needed grow with input size "
                    "(paper: 'grows quickly with input size')"),
    ])
    data = {
        "deadlocked": deadlocked,
        "pending_allocations": pending,
        "tyr_completed": tyr.completed,
        "ablation_verdicts": ablation_verdicts,
        "min_tags_by_size": {r[0]: r[1] for r in growth_rows},
    }
    return ExperimentReport(
        name="fig11",
        title="Deadlock under a bounded global tag space "
              "(paper Fig. 11)",
        data=data,
        text=text,
        paper_expectation=(
            "global 8-tag pool deadlocks on dmv; tags needed grow with "
            "input size; TYR never deadlocks with >= 2 tags per block"
        ),
    )
