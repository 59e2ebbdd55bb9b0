"""Minimum-length runs of every workload through the command line."""

import json
import os
import shutil
import subprocess

import pytest

from benchmarks.host import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd, env=None):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_outputs_and_reports_every_metric(workload):
    result = result_of(bench(workload, 0, ROOT))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, entry in metrics.items():
        assert entry["unit"] == units[name]
        assert entry["value"] > 0, name


def test_traced_run_reports_every_layer_and_writes_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    result = result_of(bench("steady", 1, tmp_path, env))
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in metrics.items():
        value = entry["value"]
        assert value is not None, name
        if name.startswith(("pool.", "result_cache.")):
            assert value == 0, name  # not on this workload's path
        elif name.endswith(("_ms", "_s")):
            assert value > 0, name
    trace = json.loads((tmp_path / "trace.json").read_text())
    entry = trace["steady"]
    assert entry["missing"] == [] and entry["missing_targets"] == []
    assert {span[0] for span in entry["spans"]["main"]} >= {
        "frontend.lower", "compiler.elaborate", "codegen.tagged.generate",
        "engine.vector.run"}


def test_fails_without_the_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = bench("steady", 0, tmp_path, env)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or not lines[-1].startswith("{")
