"""Parallel job runner for sweeps and experiments.

A *job* is one simulated run, described declaratively by a
:class:`RunSpec` (workload identity + machine + the run's keyword
arguments) so it can be pickled to a ``multiprocessing`` worker and
replayed to rebuild the exact same :class:`WorkloadInstance`;
:func:`cache_key` canonicalizes the kwargs into the run's
content-addressed result-cache key.

:func:`run_specs` is the single execution path for every experiment
driver, which submits its runs through :func:`run_batch`:

* results come back **in spec order** regardless of ``jobs``, so
  serial (``jobs=1``) and parallel runs produce byte-identical
  downstream ``ExperimentReport.data``;
* with a :class:`~repro.harness.cache.ResultCache`, the parent first
  resolves hits and only dispatches misses (successful runs are
  written back; failures are never cached);
* workers are forked, and the parent first builds the machine
  lowering (tagged/flat graph, window or vector plans) every pending
  spec runs (:func:`precompile_specs`), so children inherit them
  through copy-on-write pages; a per-process memo (:data:`_WL_MEMO`)
  still covers anything built after the fork, and each worker's runs
  generate their kernels at their hand-offs;
* :class:`~repro.errors.DeadlockError` / ``SimulationError`` raised by
  a run are re-raised with the failing workload, machine, and config
  appended to the message -- essential once failures surface from pool
  workers far from the loop that queued them;
* dispatch is **asynchronous** (parent-side scheduling over per-worker
  task pipes): each run can be bounded by a wall-clock ``timeout``
  (:class:`~repro.errors.RunTimeoutError`), a worker that dies mid-run
  (OOM kill, segfault) is detected and its spec redispatched to a
  fresh forked worker up to ``retries`` times
  (:class:`~repro.errors.WorkerCrashError` after that), successful
  results are written back to the cache **the moment they land** (so
  an interrupted sweep resumes from every finished spec), and a
  ``Ctrl-C`` terminates the pool and reports how much completed;
* a :class:`~repro.harness.runlog.RunLog` records one JSON event per
  spec transition and a :class:`~repro.harness.runlog.ProgressLine`
  renders live done/total + cache-hit rate + ETA -- both opt-in via
  :class:`RunOptions` (CLI: ``experiment --timeout/--retries/
  --run-log/--progress``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.errors import (
    DeadlockError,
    ReproError,
    RunTimeoutError,
    SimulationError,
    UnexpectedRunError,
    WorkerCrashError,
)
from repro.harness.cache import ResultCache, result_key
from repro.harness.runlog import ProgressLine, RunLog
from repro.harness.runner import KERNEL_FAMILY
from repro.sim.metrics import ExecutionResult
from repro.workloads.registry import WorkloadInstance, build_workload


@dataclass(frozen=True)
class RunSpec:
    """One simulated run, in picklable form."""

    workload: str
    scale: str
    seed: int
    #: Full builder parameters (scale defaults + overrides), sorted.
    params: Tuple[Tuple[str, object], ...]
    machine: str
    #: The :meth:`CompiledWorkload.run` keyword arguments, as given.
    config: Dict[str, object]
    #: Verify memory/results against the oracle after the run.
    check: bool = True
    #: Dispatch through generated plan kernels (repro.sim.codegen).
    #: Deliberately NOT part of :func:`cache_key` (which hashes only
    #: the config): codegen is bit-identical to the interpreter, so a
    #: cached result is valid for either setting.
    codegen: bool = True

    def describe(self) -> str:
        cfg = ", ".join(f"{k}={v}"
                        for k, v in canonical_config(self.config))
        return (f"workload={self.workload}/{self.scale} "
                f"machine={self.machine} config=[{cfg}]")


def canonical_config(kwargs: Dict[str, object]
                     ) -> Tuple[Tuple[str, object], ...]:
    """Sorted, hashable form of run kwargs (dicts become item tuples):
    what :func:`cache_key` hashes and :meth:`RunSpec.describe` prints."""
    items: List[Tuple[str, object]] = []
    for key in sorted(kwargs):
        value = kwargs[key]
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        items.append((key, value))
    return tuple(items)


#: Per-process workload memo: forked workers inherit the parent's
#: entries (compile-once), and fill in their own for anything else.
_WL_MEMO: Dict[Tuple, WorkloadInstance] = {}


def _memo_key(spec: RunSpec) -> Tuple:
    return (spec.workload, spec.scale, spec.seed, spec.params)


def workload_for(spec: RunSpec) -> WorkloadInstance:
    """The (memoized) workload instance a spec describes."""
    key = _memo_key(spec)
    wl = _WL_MEMO.get(key)
    if wl is None:
        wl = build_workload(spec.workload, spec.scale, seed=spec.seed,
                            **dict(spec.params))
        _WL_MEMO[key] = wl
    return wl


def spec_for(workload: WorkloadInstance, machine: str,
             config: Optional[Dict[str, object]] = None,
             check: bool = True) -> RunSpec:
    """Describe one run of ``workload`` and memoize the instance, so
    the parent (and forked workers) never rebuild it."""
    spec = RunSpec(
        workload=workload.name,
        scale=workload.scale,
        seed=workload.seed,
        params=tuple(sorted(workload.params.items())),
        machine=machine,
        config=dict(config or {}),
        check=check,
    )
    _WL_MEMO.setdefault(_memo_key(spec), workload)
    return spec


def cache_key(spec: RunSpec) -> str:
    """Content-addressed key for a spec (compiles the program once)."""
    wl = workload_for(spec)
    return result_key(
        fingerprint=wl.compiled.fingerprint,
        initial_memory=wl.initial_memory,
        entry_args=wl.compiled.entry_args(wl.args),
        machine=spec.machine,
        config=canonical_config(spec.config),
        check=spec.check,
    )


def precompile_specs(specs: Sequence[RunSpec]) -> None:
    """Build every spec's machine lowering (``CompiledWorkload.lowering``:
    the elaborated tagged graph, the flattened graph, the window plans
    or the vector plans with their loop classification) in the parent,
    before any fork, so forked workers inherit them through
    copy-on-write pages instead of each rebuilding them.

    Kernels are left to the runs: each engine generates and compiles
    its table at its hand-off. Generating and compiling the sweep
    benchmark's tables here cost the parent 80-110 ms and measured no
    faster over a cold sweep (docs/ARCHITECTURE.md section 6).
    """
    for spec in specs:
        family = KERNEL_FAMILY.get(spec.machine)
        if family is not None:  # run_one reports an unknown machine
            workload_for(spec).compiled.lowering(family)


def run_one(spec: RunSpec) -> ExecutionResult:
    """Execute one spec; simulation failures carry the spec context."""
    wl = workload_for(spec)
    kwargs = dict(spec.config)  # serial runs share the logged spec
    kwargs.setdefault("codegen", spec.codegen)
    try:
        if spec.check:
            return wl.run_checked(spec.machine, **kwargs)
        res, _ = wl.run(spec.machine, **kwargs)
        return res
    except DeadlockError as err:
        raise DeadlockError(f"{err} [{spec.describe()}]",
                            getattr(err, "diagnosis", None)) from err
    except SimulationError as err:
        raise type(err)(f"{err} [{spec.describe()}]") from err


def _run_guarded(spec: RunSpec) -> Tuple[bool, object]:
    """Worker entry point: never let an exception kill the pool.

    Library failures (:class:`ReproError`) come back as-is; anything
    else -- an exception inside an oracle, a plain bug -- is wrapped in
    :class:`UnexpectedRunError` with the spec context and the original
    traceback, so the parent re-raises it naming the workload,
    machine, and config that triggered it instead of a bare
    ``ValueError`` from deep inside a worker.
    """
    try:
        return True, run_one(spec)
    except ReproError as err:
        return False, err
    except Exception as err:
        return False, UnexpectedRunError(
            f"{type(err).__name__}: {err} [{spec.describe()}]\n"
            f"--- original traceback ---\n{traceback.format_exc()}")


@dataclass
class RunOptions:
    """Execution policy and observability for one :func:`run_specs`.

    ``timeout``
        Wall-clock seconds one run may take before its worker is
        terminated and the spec fails with
        :class:`~repro.errors.RunTimeoutError` (timeouts are *not*
        retried -- the simulators are deterministic, so a hung run
        hangs again). ``None`` disables the bound. A timeout forces
        the forked-worker path even for ``jobs=1``, since an in-process
        run cannot be preempted.
    ``retries``
        How many times a spec whose worker *died* mid-run is
        redispatched to a fresh worker before failing with
        :class:`~repro.errors.WorkerCrashError`.
    ``run_log``
        Path (or open :class:`~repro.harness.runlog.RunLog` / text
        stream) receiving one JSON event per spec transition; see
        :mod:`repro.harness.runlog` for the schema.
    ``progress``
        Render a live ``done/total | cache-hit rate | ETA`` line on
        stderr.
    ``codegen``
        ``False`` forces every spec through the engines' plain
        reference interpreters (``--no-codegen``); metrics are
        identical, only host speed
        differs, so cached results are shared across both settings.
    """

    timeout: Optional[float] = None
    retries: int = 1
    run_log: Optional[object] = None
    progress: bool = False
    codegen: bool = True


def _pool_worker(specs: List[RunSpec], tasks, results) -> None:
    """Worker process main loop.

    Pulls spec indices off its private task pipe, runs them guarded,
    and pushes ``(index, pid, wall_seconds, ok, payload_bytes)`` onto
    the shared result queue. The payload is pickled *here*, in the
    worker, so an unpicklable outcome degrades into a structured
    failure instead of killing the queue's feeder thread and hanging
    the parent.

    SIGINT is ignored: a Ctrl-C lands on the whole process group, and
    the parent owns shutdown -- workers dying on the signal would race
    it with spurious crash-retries.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = os.getpid()
    while True:
        try:
            index = tasks.get()
        except (EOFError, OSError):
            return
        if index is None:
            return
        t0 = time.monotonic()
        ok, payload = _run_guarded(specs[index])
        wall = time.monotonic() - t0
        try:
            blob = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as err:  # unpicklable result or exception
            ok = False
            blob = pickle.dumps(UnexpectedRunError(
                f"worker outcome could not be pickled back to the "
                f"parent ({type(err).__name__}: {err}) "
                f"[{specs[index].describe()}]"))
        results.put((index, pid, wall, ok, blob))


def _decode_outcome(ok: bool, blob: bytes,
                    spec: RunSpec) -> Tuple[bool, object]:
    try:
        return ok, pickle.loads(blob)
    except Exception as err:
        return False, UnexpectedRunError(
            f"worker outcome could not be unpickled "
            f"({type(err).__name__}: {err}) [{spec.describe()}]")


def _run_pool(specs: List[RunSpec], pending: Sequence[int],
              n_workers: int, opts: RunOptions, log: Optional[RunLog],
              deliver: Callable[[int, bool, object, float, int], None],
              ) -> None:
    """Async dispatch loop over forked workers.

    The parent assigns one spec at a time to each worker over a
    private task pipe (so it always knows which worker owns which
    spec), collects outcomes from a shared result queue, and calls
    ``deliver(index, ok, payload, wall, pid)`` **as each outcome
    lands** -- that is what makes cache write-back incremental. On top
    of plain completion it handles:

    * **timeouts** -- a run past ``opts.timeout`` wall seconds has its
      worker terminated and is delivered as a
      :class:`RunTimeoutError`;
    * **worker crashes** -- a worker that dies mid-run (OOM kill,
      segfault) has its spec redispatched to a freshly forked worker
      up to ``opts.retries`` times, then delivered as a
      :class:`WorkerCrashError`; the pool is respawned back to
      strength either way;
    * **fatal failures** -- ``deliver`` raising (an untolerated
      failure) aborts the loop immediately; the ``finally`` block
      tears every worker down, so a 1000-spec sweep does not grind on
      after spec 3 failed.

    Stale results (a retried spec whose first worker managed to push
    an outcome before dying) are dropped via the ``outstanding`` set,
    so no spec is ever delivered twice.
    """
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    todo = deque(pending)
    outstanding = set(pending)
    attempts = dict.fromkeys(pending, 0)
    workers: Dict[int, Tuple[multiprocessing.Process, object]] = {}
    running: Dict[int, Tuple[int, float]] = {}
    delivered = 0

    def finish(index: int, ok: bool, payload: object, wall: float,
               pid: int) -> None:
        nonlocal delivered
        outstanding.discard(index)
        delivered += 1
        deliver(index, ok, payload, wall, pid)

    def spawn() -> None:
        tasks = ctx.SimpleQueue()
        proc = ctx.Process(target=_pool_worker,
                           args=(specs, tasks, results), daemon=True)
        proc.start()
        workers[proc.pid] = (proc, tasks)

    def assign(pid: int) -> None:
        index = todo.popleft()
        attempts[index] += 1
        workers[pid][1].put(index)
        running[pid] = (index, time.monotonic())
        if log:
            log.event("started", index=index,
                      spec=specs[index].describe(), worker=pid,
                      attempt=attempts[index])

    def retire(pid: int) -> multiprocessing.Process:
        """Tear one worker down (SIGTERM, escalating to SIGKILL)."""
        proc, _ = workers.pop(pid)
        if proc.is_alive():
            proc.terminate()
            proc.join(2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        else:
            proc.join()
        return proc

    try:
        while delivered < len(pending):
            # Keep the pool at strength and every worker busy.
            want = min(n_workers, len(todo) + len(running))
            while len(workers) < want:
                spawn()
            for pid in [p for p in workers if p not in running]:
                if not todo:
                    break
                assign(pid)

            # Wait for the next outcome, but wake early for the
            # nearest deadline (and periodically, for crash checks).
            wait = 0.2
            if opts.timeout is not None and running:
                now = time.monotonic()
                deadline = (min(t0 for _, t0 in running.values())
                            + opts.timeout)
                wait = min(wait, max(0.01, deadline - now))
            batch = []
            try:
                batch.append(results.get(timeout=wait))
                while True:
                    batch.append(results.get_nowait())
            except queue_mod.Empty:
                pass
            for index, pid, wall, ok, blob in batch:
                if running.get(pid, (None,))[0] == index:
                    del running[pid]
                if index not in outstanding:
                    continue  # stale result of a retried spec
                ok, payload = _decode_outcome(ok, blob, specs[index])
                finish(index, ok, payload, wall, pid)

            # Crash detection -- after draining, so a worker that
            # completed its spec and then died is not misread as a
            # mid-run crash.
            dead = [pid for pid, (proc, _) in workers.items()
                    if not proc.is_alive()]
            for pid in dead:
                proc = retire(pid)
                index, _ = running.pop(pid, (None, None))
                if index is None or index not in outstanding:
                    continue  # worker died idle, or result already in
                spec = specs[index]
                if attempts[index] <= opts.retries:
                    if log:
                        log.event("retried", index=index,
                                  spec=spec.describe(), worker=pid,
                                  exitcode=proc.exitcode,
                                  attempt=attempts[index])
                    todo.append(index)
                else:
                    finish(index, False, WorkerCrashError(
                        f"worker pid {pid} (exit code {proc.exitcode})"
                        f" died running {spec.describe()}; giving up "
                        f"after {attempts[index]} attempt(s)"),
                        0.0, pid)

            # Timeout enforcement.
            if opts.timeout is not None:
                now = time.monotonic()
                late = [(pid, index, t0)
                        for pid, (index, t0) in running.items()
                        if now - t0 > opts.timeout]
                for pid, index, t0 in late:
                    del running[pid]
                    retire(pid)
                    spec = specs[index]
                    if log:
                        log.event("timed-out", index=index,
                                  spec=spec.describe(), worker=pid,
                                  wall_s=round(now - t0, 3),
                                  timeout_s=opts.timeout)
                    if index in outstanding:
                        finish(index, False, RunTimeoutError(
                            f"run exceeded the {opts.timeout:g}s "
                            f"wall-clock timeout: {spec.describe()}"),
                            now - t0, pid)
    finally:
        for pid in list(workers):
            retire(pid)
        results.close()
        results.join_thread()


def run_specs(specs: Sequence[RunSpec], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              tolerate: Tuple[Type[BaseException], ...] = (),
              options: Optional[RunOptions] = None,
              ) -> List[object]:
    """Execute specs, in order, optionally cached and in parallel.

    Returns one entry per spec: an :class:`ExecutionResult`, or the
    raised exception if its type is in ``tolerate`` (anything else
    propagates). Cache hits skip the engines entirely; failures are
    tolerated per-spec but never cached. Tolerated exceptions keep
    their payload across the process boundary (``DeadlockError``
    round-trips its ``diagnosis``).

    Each successful result is written back to the cache **the moment
    it lands**, so a sweep interrupted by Ctrl-C, a fatal failure, or
    a machine crash resumes on rerun: only genuinely unfinished specs
    are redispatched. ``options`` (a :class:`RunOptions`) adds a
    per-run wall-clock timeout, bounded crash retry, a JSON-lines run
    log, and a live progress line; see :class:`RunOptions`.

    Before forking workers, the parent builds the machine lowering of
    every pending spec (:func:`precompile_specs`) so children inherit
    them copy-on-write instead of rebuilding them per worker. A serial
    run builds each lowering on first use instead.
    """
    specs = list(specs)
    opts = options or RunOptions()
    if not opts.codegen:
        specs = [replace(spec, codegen=False) if spec.codegen else spec
                 for spec in specs]

    log: Optional[RunLog] = None
    owns_log = False
    if opts.run_log is not None:
        if isinstance(opts.run_log, RunLog):
            log = opts.run_log
        else:
            log, owns_log = RunLog(opts.run_log), True
    progress = ProgressLine(len(specs), enabled=opts.progress)

    results: List[object] = [None] * len(specs)
    keys: Dict[int, str] = {}
    pending: List[int] = []
    finished = 0

    def deliver(index: int, ok: bool, payload: object, wall: float,
                pid: int) -> None:
        nonlocal finished
        spec = specs[index]
        if ok:
            results[index] = payload
            if cache is not None:
                cache.put(keys[index], payload)
            finished += 1
            if log:
                log.event("finished", index=index,
                          spec=spec.describe(), worker=pid, ok=True,
                          wall_s=round(wall, 6))
                prof = getattr(payload, "extra", {}).get("profile")
                if prof is not None:
                    log.event("profile", index=index,
                              spec=spec.describe(),
                              **prof.summary_fields())
                cstats = getattr(payload, "extra", {}).get("cache")
                if cstats is not None:
                    log.event("cache", index=index,
                              spec=spec.describe(),
                              cache_spec=cstats["spec"],
                              levels=[
                                  [lvl["name"],
                                   lvl["loads"], lvl["load_hits"],
                                   lvl["stores"], lvl["store_hits"],
                                   round(lvl["hit_rate"], 6),
                                   round(lvl["mpki"], 3)]
                                  for lvl in cstats["levels"]])
            progress.finished()
            return
        tolerated = isinstance(payload, tolerate)
        if log:
            log.event("finished", index=index, spec=spec.describe(),
                      worker=pid, ok=False,
                      error=type(payload).__name__,
                      tolerated=tolerated, wall_s=round(wall, 6))
            diag = getattr(payload, "diagnosis", None)
            if isinstance(payload, DeadlockError) \
                    and diag is not None \
                    and hasattr(diag, "culprits"):
                # Structured diagnosis so the run log records the
                # analyzer's verdict, not just the failure.
                log.event(
                    "deadlock", index=index, spec=spec.describe(),
                    cycle=diag.cycle, live_tokens=diag.live_tokens,
                    violated_rule=diag.violated_rule,
                    culprits=diag.culprits(),
                    wait_cycle=diag.wait_cycle,
                    pending=len(diag.pending_allocations),
                    pool_occupancy={
                        name: list(occ) for name, occ
                        in sorted(diag.pool_occupancy.items())
                    })
        if tolerated:
            results[index] = payload
            finished += 1
            progress.finished()
            return
        raise payload

    try:
        for i, spec in enumerate(specs):
            if cache is not None:
                keys[i] = cache_key(spec)
                hit = cache.get(keys[i])
                if hit is not None:
                    results[i] = hit
                    finished += 1
                    if log:
                        log.event("cache-hit", index=i,
                                  spec=spec.describe(), key=keys[i])
                    progress.cache_hit()
                    continue
            if log:
                log.event("queued", index=i, spec=spec.describe())
            pending.append(i)

        use_pool = bool(pending) and (
            (jobs > 1 and len(pending) > 1) or opts.timeout is not None)
        try:
            if use_pool:
                precompile_specs([specs[i] for i in pending])
                _run_pool(specs, pending,
                          max(1, min(jobs, len(pending))), opts, log,
                          deliver)
            else:
                for i in pending:
                    if log:
                        log.event("started", index=i,
                                  spec=specs[i].describe(),
                                  worker=os.getpid(), attempt=1)
                    t0 = time.monotonic()
                    ok, payload = _run_guarded(specs[i])
                    deliver(i, ok, payload, time.monotonic() - t0,
                            os.getpid())
        except KeyboardInterrupt:
            if log:
                log.event("interrupted", finished=finished,
                          total=len(specs))
            progress.close()
            print(f"interrupted: {finished}/{len(specs)} spec(s) "
                  f"finished"
                  + (", completed results are cached (a rerun "
                     "redispatches only unfinished specs)"
                     if cache is not None else ""),
                  file=sys.stderr)
            raise
        return results
    finally:
        progress.close()
        if owns_log:
            log.close()


def run_batch(runs: Sequence[Tuple], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              tolerate: Tuple[Type[BaseException], ...] = (),
              options: Optional[RunOptions] = None,
              ) -> List[object]:
    """:func:`run_specs` over ``(workload, machine[, config[, check]])``
    tuples -- the driver-facing form."""
    specs = []
    for run in runs:
        workload, machine = run[0], run[1]
        config = run[2] if len(run) > 2 else None
        check = run[3] if len(run) > 3 else True
        specs.append(spec_for(workload, machine, config, check))
    return run_specs(specs, jobs=jobs, cache=cache, tolerate=tolerate,
                     options=options)
