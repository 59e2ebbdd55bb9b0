"""Failure paths of the hardened pool: timeouts, worker crashes with
bounded retry, crash-safe incremental caching (interrupt + resume),
guarded unexpected exceptions, and the structured run log.

All pool workers are *forked*, so monkeypatching
``repro.harness.pool.run_one`` in the parent is inherited by every
worker -- the tests use that to plant hangs, hard kills, and
unexpected exceptions inside otherwise-real runs.
"""

import json
import os
import pickle
import signal
import time

import pytest

from repro.errors import (
    DeadlockError,
    RunTimeoutError,
    UnexpectedRunError,
    WorkerCrashError,
)
from repro.harness import pool
from repro.harness.cache import ResultCache
from repro.harness.pool import (
    RunOptions,
    cache_key,
    run_specs,
    spec_for,
)
from repro.sim.metrics import ExecutionResult
from repro.workloads import build_workload

REAL_RUN_ONE = pool.run_one


def _tag_specs(tag_counts):
    """Distinct, fast specs: dmv/tiny on tyr across tag counts."""
    wl = build_workload("dmv", "tiny")
    return [spec_for(wl, "tyr", {"tags": t}) for t in tag_counts]


def _counting(count_file, inner=None):
    """A run_one wrapper appending one line per engine invocation.

    O_APPEND writes are atomic for these short lines, so the file is a
    correct cross-process invocation counter.
    """
    def run_one(spec):
        with open(count_file, "a") as fh:
            fh.write(f"{dict(spec.config).get('tags')}\n")
        return (inner or REAL_RUN_ONE)(spec)
    return run_one


def _invocations(count_file):
    if not os.path.exists(count_file):
        return []
    with open(count_file) as fh:
        return fh.read().splitlines()


# -- timeouts ----------------------------------------------------------

def _hang_tags_6(spec):
    if dict(spec.config).get("tags") == 6:
        time.sleep(120)
    return REAL_RUN_ONE(spec)


def test_hung_run_times_out_naming_spec(monkeypatch):
    monkeypatch.setattr(pool, "run_one", _hang_tags_6)
    specs = _tag_specs((4, 6))
    with pytest.raises(RunTimeoutError) as exc:
        run_specs(specs, jobs=2, options=RunOptions(timeout=1.0))
    message = str(exc.value)
    assert "workload=dmv/tiny" in message
    assert "tags=6" in message


def test_timeout_enforced_for_serial_jobs(monkeypatch):
    """jobs=1 with a timeout still routes through a forked worker, so
    a hung run cannot stall the parent."""
    monkeypatch.setattr(pool, "run_one", _hang_tags_6)
    with pytest.raises(RunTimeoutError):
        run_specs(_tag_specs((6,)), jobs=1,
                  options=RunOptions(timeout=1.0))


def test_tolerated_timeout_keeps_other_results(monkeypatch):
    monkeypatch.setattr(pool, "run_one", _hang_tags_6)
    specs = _tag_specs((4, 6, 8))
    out = run_specs(specs, jobs=2, tolerate=(RunTimeoutError,),
                    options=RunOptions(timeout=1.5))
    assert isinstance(out[0], ExecutionResult)
    assert isinstance(out[1], RunTimeoutError)
    assert isinstance(out[2], ExecutionResult)


# -- worker crashes ----------------------------------------------------

def test_crashed_worker_is_retried_then_succeeds(tmp_path,
                                                 monkeypatch):
    """A worker SIGKILLed mid-run is redispatched to a fresh worker;
    the second attempt succeeds and the sweep completes."""
    marker = tmp_path / "crashed-once"

    def crash_once(spec):
        if dict(spec.config).get("tags") == 6 and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return REAL_RUN_ONE(spec)

    monkeypatch.setattr(pool, "run_one", crash_once)
    specs = _tag_specs((4, 6))
    out = run_specs(specs, jobs=2, options=RunOptions(retries=1))
    assert marker.exists()
    assert all(isinstance(r, ExecutionResult) for r in out)
    direct = REAL_RUN_ONE(specs[1])
    assert out[1].cycles == direct.cycles
    assert out[1].results == direct.results


def test_crashing_worker_exhausts_retries(monkeypatch):
    def always_crash(spec):
        if dict(spec.config).get("tags") == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        return REAL_RUN_ONE(spec)

    monkeypatch.setattr(pool, "run_one", always_crash)
    with pytest.raises(WorkerCrashError) as exc:
        run_specs(_tag_specs((4, 6)), jobs=2,
                  options=RunOptions(retries=1))
    message = str(exc.value)
    assert "workload=dmv/tiny" in message
    assert "tags=6" in message
    assert "2 attempt(s)" in message


# -- crash-safe incremental caching + resume ---------------------------

def test_interrupted_serial_sweep_resumes_from_cache(tmp_path,
                                                     monkeypatch):
    """Ctrl-C at spec 3 of 6 keeps specs 1-2 cached; the rerun
    redispatches only the genuinely unfinished specs."""
    cache = ResultCache(str(tmp_path / "cache"))
    count_file = str(tmp_path / "invocations")
    specs = _tag_specs((2, 3, 4, 5, 6, 8))

    calls = {"n": 0}

    def interrupt_third(spec):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return _counting(count_file)(spec)

    monkeypatch.setattr(pool, "run_one", interrupt_third)
    with pytest.raises(KeyboardInterrupt):
        run_specs(specs, jobs=1, cache=cache)
    finished_first = _invocations(count_file)
    assert finished_first == ["2", "3"]  # incremental write-back
    assert cache.get(cache_key(specs[0])) is not None
    assert cache.get(cache_key(specs[1])) is not None
    assert cache.get(cache_key(specs[2])) is None

    monkeypatch.setattr(pool, "run_one", _counting(count_file))
    out = run_specs(specs, jobs=1, cache=cache)
    assert all(isinstance(r, ExecutionResult) for r in out)
    # The rerun executed exactly the four unfinished specs, once each.
    assert sorted(_invocations(count_file)[2:]) == ["4", "5", "6", "8"]


def test_worker_kill_then_rerun_redispatches_only_unfinished(
        tmp_path, monkeypatch):
    """The acceptance path: a sweep killed mid-grid (worker SIGKILL)
    is rerun with the same cache and redispatches only unfinished
    specs, counted by engine invocations."""
    cache = ResultCache(str(tmp_path / "cache"))
    count_file = str(tmp_path / "invocations")
    specs = _tag_specs((2, 3, 4, 5, 6, 8))

    def count_or_crash(spec):
        if dict(spec.config).get("tags") == 5:
            os.kill(os.getpid(), signal.SIGKILL)
        return _counting(count_file)(spec)

    monkeypatch.setattr(pool, "run_one", count_or_crash)
    with pytest.raises(WorkerCrashError):
        run_specs(specs, jobs=2, cache=cache,
                  options=RunOptions(retries=0))
    finished_first = set(_invocations(count_file))
    assert "5" not in finished_first
    cached = {t for t, s in zip((2, 3, 4, 5, 6, 8), specs)
              if cache.get(cache_key(s)) is not None}
    assert cached  # incremental write-back saved completed work
    assert "5" not in cached

    monkeypatch.setattr(pool, "run_one", _counting(count_file))
    out = run_specs(specs, jobs=2, cache=cache)
    assert all(isinstance(r, ExecutionResult) for r in out)
    rerun = _invocations(count_file)[len(finished_first):]
    assert sorted(rerun) == sorted(
        str(t) for t in (2, 3, 4, 5, 6, 8) if t not in cached)


# -- unexpected exceptions keep spec context ---------------------------

def _boom(spec):
    raise ValueError("boom: oracle mismatch")


@pytest.mark.parametrize("jobs", [1, 2])
def test_unexpected_exception_carries_spec_context(monkeypatch, jobs):
    monkeypatch.setattr(pool, "run_one", _boom)
    with pytest.raises(UnexpectedRunError) as exc:
        run_specs(_tag_specs((4, 6)), jobs=jobs)
    message = str(exc.value)
    assert "ValueError" in message
    assert "boom: oracle mismatch" in message
    assert "workload=dmv/tiny" in message
    assert "machine=tyr" in message


# -- DeadlockError.diagnosis across process boundaries -----------------

def test_deadlock_diagnosis_survives_pickling():
    err = DeadlockError("stuck", diagnosis={"pending": 3})
    clone = pickle.loads(pickle.dumps(err))
    assert str(clone) == "stuck"
    assert clone.diagnosis == {"pending": 3}


def test_deadlock_diagnosis_survives_pool():
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "unordered-bounded", {"total_tags": 1},
                      check=False),
             spec_for(wl, "tyr", {"tags": 4})]
    out = run_specs(specs, jobs=2, tolerate=(DeadlockError,))
    assert isinstance(out[0], DeadlockError)
    assert out[0].diagnosis is not None
    assert out[0].diagnosis.pending_allocations
    assert isinstance(out[1], ExecutionResult)


def test_wait_graph_diagnosis_pickle_round_trip():
    """The analyzer's DeadlockDiagnosis (wait-graph fields included)
    must cross the pool-worker boundary intact, like DeadlockError
    itself (PR 4)."""
    wl = build_workload("dmv", "tiny")
    with pytest.raises(DeadlockError) as err:
        wl.compiled.run("unordered-bounded", wl.fresh_memory(),
                        wl.args, total_tags=4)
    diag = err.value.diagnosis
    clone = pickle.loads(pickle.dumps(diag))
    assert clone == diag
    assert clone.explain() == diag.explain()
    assert clone.culprits() == diag.culprits()
    assert clone.wait_cycle and clone.violated_rule == "greedy"
    # The attached-to-error path round-trips too.
    eclone = pickle.loads(pickle.dumps(err.value))
    assert eclone.diagnosis == diag


# -- structured run log ------------------------------------------------

def _read_log(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_run_log_records_lifecycle_events(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    log_path = str(tmp_path / "run.jsonl")
    specs = _tag_specs((4, 6))

    run_specs(specs, jobs=2, cache=cache,
              options=RunOptions(run_log=log_path))
    events = _read_log(log_path)
    by_kind = {}
    for ev in events:
        by_kind.setdefault(ev["event"], []).append(ev)
    assert len(by_kind["queued"]) == 2
    assert len(by_kind["started"]) == 2
    assert len(by_kind["finished"]) == 2
    for ev in by_kind["finished"]:
        assert ev["ok"] is True
        assert ev["wall_s"] >= 0
        assert "workload=dmv/tiny" in ev["spec"]
    assert all("t" in ev for ev in events)

    # A warm rerun appends cache-hit events to the same log.
    run_specs(specs, jobs=2, cache=cache,
              options=RunOptions(run_log=log_path))
    warm = _read_log(log_path)[len(events):]
    assert [ev["event"] for ev in warm] == ["cache-hit", "cache-hit"]
    assert all(ev["key"] for ev in warm)


def test_run_log_records_timeout_event(tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "run_one", _hang_tags_6)
    log_path = str(tmp_path / "run.jsonl")
    run_specs(_tag_specs((6,)), tolerate=(RunTimeoutError,),
              options=RunOptions(timeout=1.0, run_log=log_path))
    kinds = [ev["event"] for ev in _read_log(log_path)]
    assert "timed-out" in kinds
    finished = [ev for ev in _read_log(log_path)
                if ev["event"] == "finished"]
    assert finished[0]["ok"] is False
    assert finished[0]["error"] == "RunTimeoutError"
    assert finished[0]["tolerated"] is True
