import statistics

import pytest

from benchmarks.host.stats import classify, quartiles, spread, tail


@pytest.mark.parametrize("n", [1, 5, 10, 20])
def test_tail_is_the_maximum_when_no_percentile_above_the_median_qualifies(n):
    values = list(range(n))
    assert tail(values) == (n - 1, 100.0)


@pytest.mark.parametrize("n", [21, 100, 1000, 1234])
def test_tail_has_exactly_ten_samples_beyond_it(n):
    values = [float(v) for v in range(n)]
    values.reverse()  # order must not matter
    value, percentile = tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_at_a_thousand_samples_is_p99():
    assert tail(range(1000))[1] == pytest.approx(99.0)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def _scaled(factor, values=PARENT):
    return [v * factor for v in values]


def test_worse_beyond_the_bound_is_a_regression():
    row = classify(PARENT, _scaled(1.2), "lower", 0.1)
    assert row["verdict"] == "regression"
    assert row["ratio"] == pytest.approx(1.2, rel=1e-3)


def test_worse_within_the_bound_is_unchanged():
    assert classify(PARENT, _scaled(1.05), "lower", 0.1)["verdict"] \
        == "unchanged"


def test_consistent_improvement_beyond_the_parent_iqr_is_a_gain():
    assert classify(PARENT, _scaled(0.9), "lower", 0.1)["verdict"] == "gain"
    assert classify(PARENT, _scaled(1.1), "higher", 0.1)["verdict"] \
        == "gain"


def test_a_gain_needs_nine_wins_in_ten():
    change = _scaled(0.9)
    change[0] = change[1] = 200.0  # two lost pairs, median still better
    row = classify(PARENT, change, "lower", 0.5)
    assert row["wins"] == 8
    assert row["verdict"] == "unchanged"


def test_a_gain_needs_a_median_difference_beyond_the_parent_iqr():
    # Every pair won, but by less than the parent's own spread.
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [v - 1.0 for v in parent]
    assert classify(parent, change, "lower", 0.25)["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = [70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 75.0, 125.0,
              100.0]
    change = list(reversed(parent))
    assert classify(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_wide_spread_is_decided_when_every_change_run_is_better():
    parent = [100.0, 130.0, 110.0, 120.0, 105.0, 125.0, 115.0, 100.0,
              130.0, 110.0]
    change = [v - 60.0 for v in parent]
    assert classify(parent, change, "lower", 0.1)["verdict"] == "gain"


def test_fewer_than_ten_pairs_are_not_decided():
    row = classify(PARENT[:9], _scaled(2.0)[:9], "lower", 0.1)
    assert row == {"pairs": 9, "verdict": "too-few-pairs"}
