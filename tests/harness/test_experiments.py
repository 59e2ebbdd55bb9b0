"""Every experiment driver regenerates its figure/table at tiny scale
and reports well-formed data."""

import inspect
import io
import json

import pytest

from repro.errors import ReproError
from repro.harness.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    get_experiment,
)
from repro.harness.pool import RunOptions

# Scales small enough for unit testing; shape assertions live in
# benchmarks/ where the default scales run.
FAST_KWARGS = {
    "ext-depth": {"scale": "tiny"},
    "ext-latency": {"scale": "tiny", "latencies": (1, 4)},
    "ext-locality": {"scale": "tiny", "workloads": ("smv",),
                     "l1_sets": (4, 16)},
    "ext-store": {"scale": "tiny"},
    "fig02": {"scale": "tiny"},
    "fig05": {"scale": "tiny"},
    "fig09": {"scale": "tiny", "tag_counts": (2, 8)},
    "fig11": {"scale": "tiny", "sizes": (4, 8)},
    "fig12": {"scale": "tiny"},
    "fig13": {"scale": "tiny", "apps": ("dmv", "tc")},
    "fig14": {"scale": "tiny"},
    "fig15": {"scale": "tiny", "widths": (16, 128)},
    "fig16": {"scale": "tiny", "tag_counts": (2, 16)},
    "fig17": {"scale": "tiny", "widths": (8, 32),
              "tag_counts": (2, 8)},
    "fig18": {"scale": "small", "workload": "dmv"},
    "tab01": {},
    "tab02": {"scale": "tiny"},
}


def test_registry_covers_every_paper_artifact():
    assert set(EXPERIMENTS) == set(FAST_KWARGS)


@pytest.mark.parametrize("name", sorted(FAST_KWARGS))
def test_experiment_runs_and_reports(name):
    report = get_experiment(name)(**FAST_KWARGS[name])
    assert isinstance(report, ExperimentReport)
    assert report.name == name
    assert report.data
    assert report.text.strip()
    assert report.paper_expectation
    assert name in str(report)


@pytest.mark.parametrize("name", sorted(FAST_KWARGS))
def test_driver_rejects_unknown_keywords(name):
    """Every driver takes what the CLI passes to all of them, and a
    misspelt knob is an error instead of a silent default run."""
    driver = get_experiment(name)
    inspect.signature(driver).bind(scale="tiny", jobs=1, cache=None,
                                   options=None)
    with pytest.raises(TypeError):
        driver(scale="tiny", no_such_knob=(2,))


def test_unknown_experiment_rejected():
    with pytest.raises(ReproError, match="unknown experiment"):
        get_experiment("fig99")


def test_fig12_data_structure():
    report = get_experiment("fig12")(scale="tiny")
    assert set(report.data["cycles"])  # apps present
    for per in report.data["cycles"].values():
        assert set(per) == {"vn", "seqdf", "ordered", "unordered",
                            "tyr"}
    assert "vn" in report.data["speedups"]


def test_ext_locality_shows_tyr_advantage_at_small_scale():
    """The headline acceptance: TYR's bounded tags must sustain a
    measurably higher L1 hit rate than global-tag unordered dataflow
    on at least two irregular workloads."""
    report = get_experiment("ext-locality")(
        scale="small", workloads=("smv", "spmspv"), l1_sets=(8, 16))
    points = report.data["points"]
    winners = 0
    for name, per_machine in points.items():
        tyr = per_machine["tyr"]
        unordered = per_machine["unordered"]
        # TYR's tag bound must actually bound the live state.
        assert max(p["peak_live"] for p in tyr) < \
            max(p["peak_live"] for p in unordered)
        if all(t["hit_rate"] > u["hit_rate"] + 0.02
               for t, u in zip(tyr, unordered)):
            winners += 1
    assert winners >= 2
    assert set(report.data["advantage_smallest_l1"]) == set(points)


def test_fig11_reports_deadlock_at_tiny_scale():
    report = get_experiment("fig11")(scale="tiny", sizes=(4,))
    assert report.data["deadlocked"] is True
    assert report.data["tyr_completed"] is True
    # The wait-for-graph analyzer identifies each ablated deadlock as
    # caused by the dropped rule, not merely that a deadlock happened.
    assert report.data["ablation_verdicts"] == {"spare": "spare",
                                                "ready": "ready"}
    assert "violated rule" in report.text


def test_fig11_logs_its_bounded_global_deadlock():
    """fig11's bounded-global run goes through the pool, so at its
    default scale a run log records the analyzer's verdict on
    ``unordered-bounded`` dmv/small, not only the size sweep's."""
    log = io.StringIO()
    report = get_experiment("fig11")(sizes=(4,),
                                     options=RunOptions(run_log=log))
    assert report.data["deadlocked"] is True
    events = [json.loads(line) for line in log.getvalue().splitlines()]
    specs = [ev["spec"] for ev in events if ev["event"] == "deadlock"]
    assert any(spec.startswith("workload=dmv/small "
                               "machine=unordered-bounded ")
               for spec in specs), specs
