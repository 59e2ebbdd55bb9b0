"""Smoke test: an experiment run serially, with ``jobs=4`` and as a
cached rerun produces byte-identical reports (the tentpole guarantee
of the parallel harness), for every driver that submits a sweep."""

import io
import json

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiments import get_experiment
from repro.harness.pool import RunOptions

from tests.harness.test_experiments import FAST_KWARGS

SWEEPS = ("fig02", "fig05", "fig11", "fig15", "fig16", "fig17")


def _payload(report):
    return json.dumps(report.data, sort_keys=True), report.text


@pytest.mark.parametrize("name", SWEEPS)
def test_serial_vs_parallel_identical(name):
    run = get_experiment(name)
    serial = run(jobs=1, **FAST_KWARGS[name])
    parallel = run(jobs=4, **FAST_KWARGS[name])
    assert _payload(serial) == _payload(parallel)


@pytest.mark.parametrize("name", SWEEPS)
def test_cached_rerun_identical(name, tmp_path):
    """A warm rerun is served every result the cold run finished and
    reruns only its failures (fig11's deadlocks), which are never
    cached."""
    run = get_experiment(name)
    cache = ResultCache(str(tmp_path))
    log = io.StringIO()
    cold = run(jobs=4, cache=cache, options=RunOptions(run_log=log),
               **FAST_KWARGS[name])
    asked = cache.misses
    events = map(json.loads, log.getvalue().splitlines())
    failed = sum(1 for event in events
                 if event["event"] == "finished" and not event["ok"])
    assert cache.hits == 0 and asked > failed
    warm = run(jobs=1, cache=cache, **FAST_KWARGS[name])
    assert (cache.hits, cache.misses) == (asked - failed, asked + failed)
    assert _payload(cold) == _payload(warm)
