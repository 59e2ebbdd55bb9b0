"""Unit tests for the parallel job runner and the result cache."""

import os
from dataclasses import replace

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.harness import pool
from repro.harness.cache import ResultCache
from repro.harness.pool import (
    RunSpec,
    cache_key,
    canonical_config,
    precompile_specs,
    run_batch,
    run_one,
    run_specs,
    spec_for,
    workload_for,
)
from repro.sim import codegen
from repro.sim.metrics import ExecutionResult
from repro.workloads import build_workload


def _same_result(a: ExecutionResult, b: ExecutionResult) -> bool:
    return (a.cycles == b.cycles
            and a.instructions == b.instructions
            and a.results == b.results
            and a.ipc_trace == b.ipc_trace
            and a.live_trace == b.live_trace
            and a.extra["declared_results"]
            == b.extra["declared_results"])


def test_canonical_config_sorts_and_flattens_dicts():
    a = canonical_config({"tags": 8, "tag_overrides": {"b": 2, "a": 4}})
    b = canonical_config({"tag_overrides": {"a": 4, "b": 2}, "tags": 8})
    assert a == b
    assert a == (("tag_overrides", (("a", 4), ("b", 2))), ("tags", 8))


def test_spec_roundtrips_workload_identity():
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "tyr", {"tags": 4})
    assert spec == RunSpec(
        workload="dmv", scale="tiny", seed=0, params=(("n", 8),),
        machine="tyr", config={"tags": 4}, check=True,
    )


def test_run_one_matches_direct_run():
    wl = build_workload("dmv", "tiny")
    direct = wl.run_checked("tyr", tags=4)
    spec = spec_for(wl, "tyr", {"tags": 4})
    pooled = run_one(spec)
    assert _same_result(direct, pooled)
    assert spec.config == {"tags": 4}  # codegen went into a copy


def test_parallel_matches_serial():
    wl = build_workload("dmv", "tiny")
    runs = [(wl, "tyr", {"tags": tags}) for tags in (2, 4, 8)]
    for serial, parallel in zip(run_batch(runs), run_batch(runs, jobs=4)):
        assert _same_result(serial, parallel)


def test_cache_key_sensitivity():
    wl = build_workload("dmv", "tiny")
    base = cache_key(spec_for(wl, "tyr", {"tags": 4}))
    assert base == cache_key(spec_for(wl, "tyr", {"tags": 4}))
    assert base != cache_key(spec_for(wl, "tyr", {"tags": 8}))
    assert base != cache_key(spec_for(wl, "seqdf", {"tags": 4}))
    assert base != cache_key(spec_for(wl, "tyr", {"tags": 4},
                                      check=False))
    other = build_workload("dmv", "tiny", n=6)
    assert base != cache_key(spec_for(other, "tyr", {"tags": 4}))


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, m, {"tags": 4}) for m in ("tyr", "vn")]
    cold = run_specs(specs, cache=cache)
    assert (cache.hits, cache.misses) == (0, 2)
    warm = run_specs(specs, cache=cache)
    assert (cache.hits, cache.misses) == (2, 2)
    for a, b in zip(cold, warm):
        assert _same_result(a, b)


def test_cache_hit_skips_engines(tmp_path, monkeypatch):
    """A warm cache returns results without constructing any engine."""
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "tyr", {"tags": 4}),
             spec_for(wl, "seqdf", {})]
    cold = run_specs(specs, cache=cache)

    import repro.harness.runner as runner

    def explode(*args, **kwargs):
        raise AssertionError("engine invoked on a cache hit")

    for engine in ("TaggedEngine", "QueuedEngine", "WindowEngine",
                   "DataParallelEngine"):
        monkeypatch.setattr(runner, engine, explode)
    warm = run_specs(specs, cache=cache)
    for a, b in zip(cold, warm):
        assert _same_result(a, b)


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "tyr", {"tags": 4})
    run_specs([spec], cache=cache)
    entry = cache._path(cache_key(spec))
    with open(entry, "wb") as fh:
        fh.write(b"not a pickle")
    assert _same_result(run_specs([spec], cache=cache)[0],
                        run_one(spec))


def test_precompile_materializes_machine_artifacts():
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, "tyr", {"tags": 4}),
             spec_for(wl, "ordered", {}),
             spec_for(wl, "vn", {})]
    precompile_specs(specs)
    # spec_for memoizes by identity key, so read artifacts off the
    # instance precompile actually touched.
    compiled = workload_for(specs[0]).compiled
    assert compiled._tagged is not None
    assert compiled._flat is not None


def test_precompile_builds_lowerings_only(monkeypatch):
    """precompile_specs builds the machine lowering each spec runs --
    kernel, interpreted, profiled and cache-model specs alike -- and
    generates no kernel table: each run generates its own at its
    hand-off."""
    monkeypatch.setattr(pool, "_WL_MEMO", {})
    generated = []
    generate_source = codegen.generate_source
    monkeypatch.setattr(codegen, "generate_source",
                        lambda *a: generated.append(a[0])
                        or generate_source(*a))
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, machine, config)
             for machine in ("tyr", "ordered", "seqdf", "datapar")
             for config in ({}, {"profile": True},
                            {"cache": "line=4,miss=60,l1=4x2x1"})]
    precompile_specs(specs + [replace(spec, codegen=False)
                              for spec in specs])
    compiled = workload_for(specs[0]).compiled
    assert None not in (compiled._tagged, compiled._flat,
                        compiled._window_plans, compiled._vector_lowering)
    assert compiled._kernels == {}
    assert generated == []


def test_result_cache_holds_only_results(tmp_path):
    """A cached sweep, serial or forked, writes one entry per result
    and nothing else: lowered programs are never stored."""
    wl = build_workload("dmv", "tiny")
    specs = [spec_for(wl, machine, {"tags": 4})
             for machine in ("tyr", "ordered", "vn")]
    expected = sorted(os.path.join(key[:2], key + ".pkl")
                      for key in map(cache_key, specs))
    for jobs in (1, 2):
        cache = ResultCache(str(tmp_path / f"jobs{jobs}"))
        run_specs(specs, jobs=jobs, cache=cache)
        entries = sorted(
            os.path.relpath(os.path.join(dirpath, name), cache.root)
            for dirpath, _, names in os.walk(cache.root)
            for name in names)
        assert entries == expected


def test_failures_carry_run_context():
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "unordered-bounded", {"total_tags": 1},
                    check=False)
    with pytest.raises(DeadlockError) as exc:
        run_one(spec)
    message = str(exc.value)
    assert "workload=dmv/tiny" in message
    assert "machine=unordered-bounded" in message
    assert "total_tags=1" in message


def test_failures_never_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    wl = build_workload("dmv", "tiny")
    spec = spec_for(wl, "unordered-bounded", {"total_tags": 1},
                    check=False)
    out = run_specs([spec], cache=cache, tolerate=(DeadlockError,))
    assert isinstance(out[0], DeadlockError)
    assert cache.get(cache_key(spec)) is None


def test_tolerated_errors_in_parallel():
    wl = build_workload("dmv", "tiny")
    runs = [(wl, "unordered-bounded", {"total_tags": total}, False)
            for total in (1, 256)]
    out = run_batch(runs, jobs=2, tolerate=(DeadlockError,))
    assert isinstance(out[0], DeadlockError)
    assert isinstance(out[1], ExecutionResult) and out[1].completed


def test_untolerated_errors_propagate():
    wl = build_workload("dmv", "tiny")
    with pytest.raises(SimulationError):
        run_batch([(wl, "unordered-bounded", {"total_tags": 1}, False)])
