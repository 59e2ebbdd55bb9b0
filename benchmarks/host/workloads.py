"""The four benchmark workloads: set-up, operations and output checks.

Importing this module imports :mod:`repro`; entry points time that
import as part of set-up. Calls into the package go through module
attributes (``frontend.lower_module``, ``workloads_pkg.build_workload``)
so that a :class:`~benchmarks.host.trace.Tracer` installed at those
names sees them.

Every workload runs every engine family (tagged, queued, window,
vector), so each end-to-end metric exists on each workload:

``steady``
    {tc, spmspv, dmv}/default x :data:`MACHINES`, kernels compiled in
    set-up; one operation is one run, one round runs every case.
``cold-programs``
    a never-seen ``random_module`` program per operation (and round),
    lowered, compiled and run, from a fixed suite in a seeded order.
``locality``
    {smv, spmspv, tc}/default x :data:`MACHINES` with the cache model;
    one operation runs a case plain and profiled.
``sweep``
    the Fig. 12 sweep (plus datapar) at default scale through the pool
    and result cache, in fresh processes; one operation (and round) is
    one cold pass.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.workloads as workloads_pkg
from repro import frontend
from repro.errors import ReproError
from repro.harness import pool, runner
from repro.harness.cache import ResultCache
from repro.harness.experiments import get_experiment
from repro.harness.experiments.ext_locality import TYR_TAGS
from repro.ir.interp import ReferenceInterpreter
from repro.sim.memory import Memory
from repro.workloads import WORKLOAD_NAMES, randomprog

from benchmarks.host import ROOT
from benchmarks.host.hostspeed import SPACING_S, Sampler, factor, sample
from benchmarks.host.trace import Tracer

#: The machines every in-process workload runs: both tag schemes on
#: the tagged engine, and one machine on each other engine.
MACHINES = ("tyr", "unordered", "ordered", "seqdf", "datapar")

#: ext-locality's smallest L1, where working-set size matters most.
CACHE_SPEC = "line=4,miss=60,l1=4x2x1"

#: Run kwargs of the traced run's extra runs of each case. ``cache``
#: toggles the cache model: on where the plain runs have none, off
#: where they have it.
VARIANTS: Dict[str, Callable[[dict], dict]] = {
    "interp": lambda kw: {**kw, "codegen": False},
    "profile": lambda kw: {**kw, "profile": True},
    "cache": lambda kw: {**kw, "cache": None if kw.get("cache")
                         else CACHE_SPEC},
}

#: Variants whose run kwarg ``CompiledWorkload.run`` still accepts.
AVAILABLE_VARIANTS = tuple(
    name for name, kwarg in (("interp", "codegen"), ("profile", "profile"),
                             ("cache", "cache"))
    if kwarg in inspect.signature(runner.CompiledWorkload.run).parameters)

#: A random program whose reference run takes longer is dropped.
SCREEN_SECONDS = 0.5

#: Argument pair every random program is run with.
PROGRAM_ARGS = [3, 5]

#: Operations after which peak memory is read. The generated-kernel
#: memo keeps every compiled program, so cold-programs grows with each
#: one; reading after a fixed count keeps the number independent of
#: how many operations the host's speed allowed.
RSS_OPS = 400


@dataclass
class Sim:
    """One simulated run: its machine, counts and host seconds."""

    machine: str
    instructions: int
    cycles: int
    seconds: float


@dataclass
class Op:
    """One timed operation and the runs it simulated."""

    seconds: float
    sims: List[Sim]


@dataclass
class Tally:
    """Everything a run measured and checked."""

    rounds: List[List[Op]] = field(default_factory=list)
    #: Per round, the scale from its host seconds to reference-host
    #: seconds (see :mod:`benchmarks.host.hostspeed`).
    factors: List[float] = field(default_factory=list)
    #: Rounds run with the tracer uninstalled, in a traced run.
    untraced: List[List[Op]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    #: machine -> [loads, load hits, instructions] of cache-model runs.
    cache: Dict[str, List[int]] = field(default_factory=dict)
    #: Peak resident memory after the first :data:`RSS_OPS` operations.
    rss_mb: float = 0.0

    def fail(self, what: str, err: BaseException) -> None:
        self.failed += 1
        self.notes.append(f"FAILED {what}: {type(err).__name__}: {err}")

    def count_cache(self, machine: str, result) -> None:
        stats = result.extra.get("cache")
        if stats is None:
            return
        level = stats["levels"][0]
        row = self.cache.setdefault(machine, [0, 0, 0])
        row[0] += level["loads"]
        row[1] += level["load_hits"]
        row[2] += result.instructions


@dataclass
class Case:
    """A runnable (program, machine, kwargs); ``run(kwargs)`` returns
    the result and a checker that raises on wrong outputs."""

    label: str
    machine: str
    kwargs: dict
    run: Callable[[dict], Tuple[object, Callable[[], None]]]


def _set_mode(tracer: Optional[Tracer], mode: str) -> None:
    if tracer is not None:
        tracer.mode = mode


def simulate(case: Case, kwargs: dict, tally: Tally,
             extra: str = "") -> Optional[Sim]:
    """Run once, timed; check the outputs outside the timer. Returns
    None when the run fails or is wrong, which counts as a failed
    operation -- or, for one of the traced run's ``extra`` runs, as a
    note: those runs measure layers and are not the workload's
    operations."""
    if not extra:
        tally.attempted += 1
    try:
        t0 = perf_counter()
        result, check = case.run(kwargs)
        seconds = perf_counter() - t0
        if not result.completed:
            raise ReproError("run did not complete")
        check()
    except Exception as err:  # a failed operation is counted, not fatal
        if extra:
            tally.notes.append(f"extra run ({extra}) of {case.label} "
                               f"failed: {type(err).__name__}: {err}")
        else:
            tally.fail(case.label, err)
        return None
    tally.count_cache(case.machine, result)
    return Sim(case.machine, result.instructions, result.cycles, seconds)


def run_variants(case: Case, tally: Tally, tracer: Tracer,
                 skip: Tuple[str, ...] = ()) -> None:
    """The traced run's extra runs of one case: codegen off, profiled,
    cache toggled. Variants whose run kwarg no longer exists are
    skipped; their metrics are reported missing."""
    for name, make in VARIANTS.items():
        if name in skip or name not in AVAILABLE_VARIANTS:
            continue
        tracer.mode = name
        simulate(case, make(case.kwargs), tally, extra=name)
    tracer.mode = "plain"


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def _instance_case(wl, machine: str, kwargs: dict) -> Case:
    def run(kw):
        result, memory = wl.run(machine, **kw)
        return result, lambda: wl.check(
            memory, result.extra["declared_results"])

    return Case(f"{wl.name}/{wl.scale}/{machine}", machine, kwargs, run)


def _lower_for(compiled, machine: str) -> None:
    """Force the machine's lowering and generated kernels."""
    if machine in ("tyr", "unordered"):
        compiled.tagged  # noqa: B018
    elif machine == "ordered":
        compiled.flat  # noqa: B018
    compiled.kernels(runner.KERNEL_FAMILY[machine])


class InstanceWorkload:
    """A fixed set of registry workloads x machines, built in set-up.

    ``profiled`` adds a profiled run of each case to its operation.
    """

    def __init__(self, apps, run_kwargs: Callable[[str, str], dict],
                 profiled: bool):
        self.apps = apps
        self.run_kwargs = run_kwargs
        self.profiled = profiled

    def setup(self, seed: int) -> List[Case]:
        cases = []
        for app in self.apps:
            wl = workloads_pkg.build_workload(app, "default", seed=seed)
            for machine in MACHINES:
                _lower_for(wl.compiled, machine)
                cases.append(_instance_case(
                    wl, machine, self.run_kwargs(app, machine)))
        return cases

    def rounds(self, seconds: float) -> Optional[int]:
        """Rounds run until the deadline, not a fixed count."""
        return None

    def warm(self, cases: List[Case], tally: Tally) -> None:
        """One checked run of every case before timing starts."""
        for case in cases:
            simulate(case, case.kwargs, tally)

    def round(self, cases: List[Case], index: int, tally: Tally,
              tracer: Optional[Tracer], sampler: Sampler) -> List[Op]:
        ops = []
        for case in cases:
            sampler.tick()
            _set_mode(tracer, "plain")
            runs = [simulate(case, case.kwargs, tally)]
            if self.profiled:
                _set_mode(tracer, "profile")
                runs.append(simulate(
                    case, VARIANTS["profile"](case.kwargs), tally))
                _set_mode(tracer, "plain")
            if tracer is not None:
                run_variants(case, tally, tracer,
                             skip=("profile",) if self.profiled else ())
            if all(runs):
                ops.append(Op(sum(s.seconds for s in runs), runs))
        return ops


def _steady_kwargs(app: str, machine: str) -> dict:
    return {"sample_traces": False}


def _locality_kwargs(app: str, machine: str) -> dict:
    kwargs = {"sample_traces": False, "cache": CACHE_SPEC}
    if machine == "tyr":
        kwargs["tags"] = TYR_TAGS[app]
    return kwargs


class _Slow(Exception):
    pass


def _alarm(signum, frame):
    raise _Slow()


#: Cold-programs' suite: generator seeds 0 .. SUITE - 1, each run on
#: ``MACHINES[seed % 5]``. A run takes the suite in an order shuffled by
#: ``--seed`` (an untraced 20 s run takes 700 of them) and continues past
#: it in order if it gets through the suite. Drawing fresh programs for
#: every ``--seed`` made the median latency differ by up to 24% between
#: seeds, because their sizes differed (median static size 51 against
#: 59.5).
SUITE = 1000


@dataclass
class ProgramStream:
    """Screened random programs of the suite, in one seed's order."""

    order: List[int]
    next_index: int = 0
    dropped: List[int] = field(default_factory=list)

    def draw(self) -> Tuple[int, tuple, dict]:
        """The next program whose reference run finishes within
        :data:`SCREEN_SECONDS`: its seed, declared results and final
        memory. Slower candidates are dropped and listed."""
        while True:
            index = self.next_index
            self.next_index += 1
            program_seed = (self.order[index] if index < len(self.order)
                            else index)
            compiled = runner.CompiledWorkload(frontend.lower_module(
                randomprog.random_module(program_seed)))
            memory = Memory(randomprog.random_memory())
            previous = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, SCREEN_SECONDS)
            try:
                ref = ReferenceInterpreter(compiled.program, memory).run(
                    compiled.entry_args(PROGRAM_ARGS))
            except _Slow:
                self.dropped.append(program_seed)
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            return (program_seed, compiled.declared_results(ref.results),
                    memory.snapshot())


class ColdPrograms:
    """Never-seen random programs, lowered, compiled and run."""

    #: Programs per second of ``--seconds`` in an untraced run: about
    #: 20 s of work at reference host speed. A fixed count, not a
    #: deadline, keeps ``op_ms.tail`` (the eleventh-largest latency) at
    #: the same percentile in every run; with a deadline, a slower
    #: host's shorter runs moved it from p98.7 to p97.8.
    RATE = 35

    def rounds(self, seconds: float) -> Optional[int]:
        return max(1, round(self.RATE * seconds))

    def setup(self, seed: int) -> ProgramStream:
        # Lazily imported lowering and generator modules load here:
        # one program per machine from seeds outside the suite.
        for k, machine in enumerate(MACHINES):
            compiled = runner.CompiledWorkload(frontend.lower_module(
                randomprog.random_module(-1 - k)))
            _lower_for(compiled, machine)
        # Shuffle each machine's share of the suite, then interleave
        # the shares, so that every five programs cover every machine.
        rng = random.Random(seed)
        shares = [list(range(k, SUITE, len(MACHINES)))
                  for k in range(len(MACHINES))]
        for share in shares:
            rng.shuffle(share)
        return ProgramStream([p for group in zip(*shares) for p in group])

    def warm(self, stream: ProgramStream, tally: Tally) -> None:
        pass

    def round(self, stream: ProgramStream, index: int, tally: Tally,
              tracer: Optional[Tracer], sampler: Sampler) -> List[Op]:
        _set_mode(tracer, "check")
        program_seed, want_results, want_memory = stream.draw()
        machine = MACHINES[program_seed % len(MACHINES)]
        sampler.tick()
        _set_mode(tracer, "plain")

        def run(kw):
            memory = Memory(randomprog.random_memory())
            result = compiled.run(machine, memory, PROGRAM_ARGS, **kw)

            def check():
                if result.extra["declared_results"] != want_results:
                    raise ReproError(
                        f"results {result.extra['declared_results']} != "
                        f"reference {want_results}")
                if memory.snapshot() != want_memory:
                    raise ReproError("memory differs from the reference")

            return result, check

        label = f"random({program_seed})/{machine}"
        t0 = perf_counter()
        try:
            compiled = runner.CompiledWorkload(frontend.lower_module(
                randomprog.random_module(program_seed)))
            _lower_for(compiled, machine)
        except Exception as err:  # a failed compile is a failed op
            tally.attempted += 1
            tally.fail(label, err)
            return []
        compile_seconds = perf_counter() - t0
        case = Case(label, machine, {"sample_traces": False}, run)
        sim = simulate(case, case.kwargs, tally)
        if tracer is not None:
            run_variants(case, tally, tracer)
        return [] if sim is None else [Op(compile_seconds + sim.seconds,
                                          [sim])]


IN_PROCESS = {
    "steady": InstanceWorkload(("tc", "spmspv", "dmv"), _steady_kwargs,
                               profiled=False),
    "cold-programs": ColdPrograms(),
    "locality": InstanceWorkload(("smv", "spmspv", "tc"), _locality_kwargs,
                                 profiled=True),
}


def measure(name: str, state, seconds: float, tally: Tally,
            tracer: Optional[Tracer] = None) -> None:
    """Run rounds until the next one would end after ``seconds``, or
    the workload's fixed number of rounds for ``seconds``.

    With a tracer, each round runs once with the tracer uninstalled
    and once installed (plus the variant runs), so the two can be
    compared for the tracing overhead; a traced run always stops at
    the deadline.
    """
    workload = IN_PROCESS[name]
    workload.warm(state, tally)
    fixed = None if tracer is not None else workload.rounds(seconds)
    sampler = Sampler()
    start = perf_counter()
    index = ops = 0
    while True:
        if tracer is not None:
            tracer.uninstall()
            tally.untraced.append(
                workload.round(state, index, tally, None, sampler))
            index += 1
            tracer.install()
            tracer.op = index
        tally.rounds.append(
            workload.round(state, index, tally, tracer, sampler))
        tally.factors.append(sampler.factor())
        index += 1
        if ops < RSS_OPS:
            ops += len(tally.rounds[-1])
            tally.rss_mb = peak_rss_mb()
        elapsed = perf_counter() - start
        done = len(tally.rounds)
        if (done >= fixed if fixed is not None
                else elapsed * (done + 1) / done > seconds):
            break
    if isinstance(state, ProgramStream) and state.dropped:
        tally.notes.append(
            "dropped slow random programs (reference run > "
            f"{SCREEN_SECONDS:g} s): {state.dropped}")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

SWEEP_APPS = WORKLOAD_NAMES
#: The paper's systems (Fig. 12) plus the data-parallel machine, so
#: the sweep runs every engine family.
SWEEP_MACHINES = runner.PAPER_SYSTEMS + ("datapar",)
SWEEP_SCALE = "default"
SWEEP_CONFIG = {"tags": 64, "sample_traces": False}
#: One load-generating process with at most this many pool workers.
SWEEP_JOBS = min(2, os.cpu_count() or 1)

#: Longest a sweep pass process may take before it is killed.
PASS_TIMEOUT = 60


@contextmanager
def worker_calibration(directory: Path) -> Iterator[None]:
    """Take calibration samples in the pool workers, before runs.

    The sweep's work happens in forked workers on both CPUs, so its
    host speed is sampled there, before a run when the worker's last
    sample is :data:`~benchmarks.host.hostspeed.SPACING_S` old; each
    worker appends ``seconds<TAB>spec`` lines to
    ``<directory>/<pid>.txt``.
    """
    original = pool.run_one
    last = [float("-inf")]

    def run_one(spec):
        if perf_counter() - last[0] >= SPACING_S:
            seconds = sample()
            last[0] = perf_counter()
            with open(directory / f"{os.getpid()}.txt", "a") as fh:
                fh.write(f"{seconds!r}\t{spec.describe()}\n")
        return original(spec)

    directory.mkdir(parents=True, exist_ok=True)
    pool.run_one = run_one
    try:
        yield
    finally:
        pool.run_one = original


def sweep_pass(seed: int, cache_dir: str, run_log: str, variant: str,
               span_dir: Optional[str]) -> dict:
    """One pass of the sweep, in this (fresh) process.

    ``variant`` is ``plain``, ``warm`` or one of :data:`VARIANTS`;
    ``span_dir`` turns tracing on. Returns what the benchmark process
    needs, as JSON-ready values. Spec times exclude the workers'
    calibration samples; the pass's wall time includes them (about 3%
    at default scale).
    """
    tracer = None
    if span_dir is not None:
        tracer = Tracer(Path(span_dir)).install()
        tracer.mode = variant
    config = dict(SWEEP_CONFIG)
    options = pool.RunOptions(run_log=run_log)
    if variant == "interp":
        options.codegen = False
    elif variant in VARIANTS:
        config = VARIANTS[variant](config)
    calibration = Path(run_log).with_suffix(".cal")
    with worker_calibration(calibration):
        t0 = perf_counter()
        instances = {app: workloads_pkg.build_workload(app, SWEEP_SCALE,
                                                       seed=seed)
                     for app in SWEEP_APPS}
        runs = [(instances[app], machine, config)
                for app in SWEEP_APPS for machine in SWEEP_MACHINES]
        results = pool.run_batch(runs, jobs=SWEEP_JOBS,
                                 cache=ResultCache(cache_dir),
                                 tolerate=(ReproError,), options=options)
        failed = [f"{wl.name}/{machine}: {res}"
                  for (wl, machine, _), res in zip(runs, results)
                  if isinstance(res, BaseException)]
        data = None
        if not failed:
            by_app: Dict[str, Dict[str, object]] = {}
            for (wl, machine, _), res in zip(runs, results):
                by_app.setdefault(wl.name, {})[machine] = res
            paper = {app: {m: per[m] for m in runner.PAPER_SYSTEMS}
                     for app, per in by_app.items()}
            report = get_experiment("fig12")(scale=SWEEP_SCALE,
                                             results=paper)
            data = {"fig12": report.data,
                    "datapar": {app: per["datapar"].cycles
                                for app, per in by_app.items()}}
        wall = perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(span_dir) / "spans-main.json")

    samples: Dict[str, float] = {}
    for path in calibration.glob("*.txt"):
        for line in path.read_text().splitlines():
            seconds, spec = line.split("\t", 1)
            samples[spec] = float(seconds)
    wall_s = {}
    with open(run_log) as fh:
        for line in fh:
            event = json.loads(line)
            if event["event"] == "finished" and event["ok"]:
                wall_s[event["index"]] = (event["wall_s"]
                                          - samples.get(event["spec"], 0.0))
    sims = []
    tally = Tally()
    for index, ((wl, machine, _), res) in enumerate(zip(runs, results)):
        if isinstance(res, BaseException):
            continue
        tally.count_cache(machine, res)
        if index in wall_s:
            sims.append([machine, res.instructions, res.cycles,
                         wall_s[index]])
    return {
        "wall": wall,
        "factor": factor(list(samples.values())) if samples else None,
        "failed": failed,
        "data": data,
        "sims": sims,
        "cache": tally.cache,
        "jobs": SWEEP_JOBS,
        "missing_targets": [] if tracer is None else tracer.missing,
    }


def run_pass(seed: int, cache_dir: Path, run_log: Path, variant: str,
             span_dir: Optional[Path]) -> dict:
    """:func:`sweep_pass` in a fresh Python process."""
    args = {"seed": seed, "cache_dir": str(cache_dir),
            "run_log": str(run_log), "variant": variant,
            "span_dir": None if span_dir is None else str(span_dir)}
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.host.child", "pass",
         json.dumps(args)],
        cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"sweep pass ({variant}) exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class SweepTally(Tally):
    """A sweep run's tally plus its pass records."""

    #: Import seconds of each pass process, at reference host speed.
    setup_samples: List[float] = field(default_factory=list)
    #: Traced passes by name.
    passes: Dict[str, dict] = field(default_factory=dict)


def _check_pass(out: dict, label: str, tally: SweepTally,
                want: Optional[dict] = None, extra: bool = False) -> bool:
    """Whether a pass's specs and report are right; a failed pass is a
    failed operation, or a note for the traced run's extra passes."""
    tally.setup_samples.append(out["setup_s"] * out["setup_factor"])
    if not extra:
        tally.attempted += 1
    if out["failed"]:
        if extra:
            tally.notes.append(f"extra pass ({label}) failed: "
                               + "; ".join(out["failed"]))
        else:
            tally.fail(label, ReproError("; ".join(out["failed"])))
        return False
    if want is not None and out["data"] != want:
        tally.fail(label, ReproError("warm report data differs from "
                                     "the cold report"))
        return False
    return True


def measure_sweep(seed: int, seconds: float, scratch: Path,
                  traced: bool) -> SweepTally:
    """Cold-then-warm repetitions until the next would end after
    ``seconds`` (at least one). A traced run does one repetition, then
    the traced passes and the variant passes."""
    tally = SweepTally()
    start = perf_counter()
    rep = 0
    while True:
        rep_dir = scratch / f"rep{rep}"
        rep_dir.mkdir(parents=True)
        cold = run_pass(seed, rep_dir / "cache", rep_dir / "cold.jsonl",
                        "plain", None)
        if _check_pass(cold, f"cold pass {rep}", tally):
            tally.rounds.append([Op(cold["wall"],
                                    [Sim(*sim) for sim in cold["sims"]])])
            tally.factors.append(cold["factor"])
        warm = run_pass(seed, rep_dir / "cache", rep_dir / "warm.jsonl",
                        "warm", None)
        _check_pass(warm, f"warm pass {rep}", tally, cold["data"])
        rep += 1
        if traced:
            break
        elapsed = perf_counter() - start
        if elapsed * (rep + 1) / rep > seconds:
            break
    tally.rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if traced:
        _traced_passes(seed, scratch, tally, cold["data"])
    return tally


def _traced_passes(seed: int, scratch: Path, tally: SweepTally,
                   want: Optional[dict]) -> None:
    """Traced cold and warm passes, then one cold pass per variant,
    each on its own empty cache and with its own span directory."""
    for name, cache_name in (("plain", "plain"), ("warm", "plain"),
                             ("interp", "interp"), ("profile", "profile"),
                             ("cache", "cache")):
        spans = scratch / "spans" / name
        spans.mkdir(parents=True)
        out = run_pass(seed, scratch / "traced" / cache_name,
                       scratch / f"traced-{name}.jsonl", name, spans)
        if _check_pass(out, f"traced {name} pass", tally,
                       want if name in ("plain", "warm") else None,
                       extra=name in VARIANTS):
            out["span_dir"] = str(spans)
            out["cache_dir"] = str(scratch / "traced" / cache_name)
            tally.passes[name] = out
