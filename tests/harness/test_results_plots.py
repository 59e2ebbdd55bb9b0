"""Unit tests for aggregation helpers and ASCII figure rendering."""

import math

import pytest

from repro.harness import ascii_plots as plots
from repro.harness import results as agg
from repro.sim.metrics import ExecutionResult, RLETrace


def make_result(cycles, peak):
    return ExecutionResult("m", True, cycles, cycles, (),
                           RLETrace([1] * cycles), RLETrace([peak] * cycles))


def test_gmean():
    assert agg.gmean([2, 8]) == pytest.approx(4.0)
    assert agg.gmean([5]) == pytest.approx(5.0)
    assert agg.gmean([]) == 0.0
    with pytest.raises(ValueError):
        agg.gmean([1, 0])


def test_speedup_vs():
    results = {
        "app1": {"vn": make_result(100, 5), "tyr": make_result(10, 50)},
        "app2": {"vn": make_result(400, 5), "tyr": make_result(10, 50)},
    }
    speedups = agg.speedup_vs(results, reference="tyr")
    assert speedups["vn"] == pytest.approx(math.sqrt(10 * 40))
    assert speedups["tyr"] == pytest.approx(1.0)


def test_state_reduction_vs():
    results = {
        "app": {"unordered": make_result(10, 1000),
                "tyr": make_result(12, 10)},
    }
    ratios = agg.state_reduction_vs(results, reference="tyr")
    assert ratios["unordered"] == pytest.approx(100.0)


def test_ipc_cdf_monotone():
    points = agg.histogram_cdf(RLETrace([1, 1, 2, 4, 4, 4]).histogram())
    xs = [p[0] for p in points]
    fracs = [p[1] for p in points]
    assert xs == sorted(xs)
    assert fracs == sorted(fracs)
    assert fracs[-1] == pytest.approx(1.0)
    assert points[0] == (1.0, pytest.approx(2 / 6))


def test_downsample_preserves_peaks():
    trace = [0] * 1000
    trace[513] = 99
    ds = RLETrace(trace).downsample(50)
    assert len(ds) == 50
    assert max(ds) == 99
    assert RLETrace([1, 2]).downsample(50) == [1, 2]


def test_downsample_rejects_nonpositive_points():
    for n_points in (0, -3):
        with pytest.raises(ValueError, match="n_points"):
            RLETrace([1] * 500).downsample(n_points)
        with pytest.raises(ValueError, match="n_points"):
            RLETrace([1, 2, 3]).downsample(n_points)


def test_histogram_quantile_in_range():
    hist = {1: 2, 3: 1}  # sorted trace: [1, 1, 3]
    assert agg.histogram_quantile(hist, 0) == 1
    assert agg.histogram_quantile(hist, 1) == 1
    assert agg.histogram_quantile(hist, 2) == 3


def test_histogram_quantile_rejects_out_of_range_index():
    hist = {1: 2, 3: 1}
    for index in (-1, 3, 100):
        with pytest.raises(ValueError, match="out of range"):
            agg.histogram_quantile(hist, index)
    with pytest.raises(ValueError, match="out of range"):
        agg.histogram_quantile({}, 0)


def test_table_alignment():
    text = plots.table(["a", "bb"], [[1, 2.5], [10, 0.001]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_line_chart_renders_all_series():
    text = plots.line_chart({"x": [1, 10, 100], "y": [5, 5, 5]},
                            title="t", width=20, height=6)
    assert "t" in text
    assert "x=x" not in text  # legend format uses glyphs
    assert "legend:" in text
    assert "o=x" in text and "x=y" in text


def test_line_chart_empty():
    assert "(no data)" in plots.line_chart({}, title="t")


def test_bar_chart_log_and_linear():
    rows = [("alpha", 10.0), ("beta", 1000.0)]
    linear = plots.bar_chart(rows, log=False)
    logd = plots.bar_chart(rows, log=True)
    assert "alpha" in linear and "beta" in linear
    assert "log10" in logd


def test_grouped_bar_chart():
    data = {"app": {"vn": 100.0, "tyr": 10.0}}
    text = plots.grouped_bar_chart(data, ["app"], ["vn", "tyr"])
    assert "app:" in text
    assert "vn" in text and "tyr" in text


def test_cdf_chart():
    text = plots.cdf_chart({"m": [(1.0, 0.5), (2.0, 1.0)]}, width=20,
                           height=6, title="cdf")
    assert "cdf" in text
    assert "fraction" in text
