import json
import re

import pytest

from benchmarks.host import ROOT
from benchmarks.host.layers import TARGETS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Seconds one run may add to ``run_seconds`` (start-up, set-up probes,
#: the round that ends past the deadline) in the time budget below.
RUN_OVERHEAD = 12


def test_top_level_keys_and_paths():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/host"]
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert not any(a.startswith("/") or ".." in a for a in command)
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_sizes_names_and_units():
    workloads, e2e, layers = (SPEC["workloads"], SPEC["end_to_end"],
                              SPEC["per_layer"])
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [w["name"] for w in workloads] + [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layers:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layers:
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_setup_time_has_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_every_run_fits_the_time_cap():
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + RUN_OVERHEAD) <= 3420


@pytest.mark.parametrize("metric", [m["name"] for m in SPEC["per_layer"]])
def test_per_layer_metric_targets_an_existing_metric_and_workload(metric):
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    target, where = TARGETS[metric]
    assert target in e2e
    assert where and set(where) <= workloads


def test_targets_cover_exactly_the_declared_per_layer_metrics():
    assert set(TARGETS) == {m["name"] for m in SPEC["per_layer"]}
