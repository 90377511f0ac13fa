"""The tail-percentile rule and the spread used by the acceptance check."""

import math

import pytest

import stats


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))  # 1000 samples
    value, pct, beyond = stats.tail(values)
    assert (pct, beyond) == (99.0, 10)
    assert value == 990


def test_tail_steps_down_when_ten_are_not_left():
    values = list(range(1, 1000))  # 999 samples: p99 leaves only 9 above
    value, pct, beyond = stats.tail(values)
    assert (pct, beyond) == (95.0, 49)
    assert value == 950


@pytest.mark.parametrize("n, pct", [(20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10**5, 99.0)])
def test_tail_ladder(n, pct):
    _, got, beyond = stats.tail([float(i) for i in range(n)])
    assert got == pct
    assert beyond >= 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_failed_ops_count_beyond_every_percentile():
    values = [1.0] * 90 + [math.inf] * 10
    value, pct, beyond = stats.tail(values)
    assert (pct, beyond) == (90.0, 10)
    assert value == 1.0
    assert stats.p50([1.0] + [math.inf] * 2) == math.inf
    assert stats.finite_or(math.inf, 7.0) == 7.0


def test_p50_is_nearest_rank():
    assert stats.p50([5.0, 1.0, 3.0, 2.0]) == 2.0
    assert stats.p50([4.0]) == 4.0


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0] * 10) == 0.0
    assert stats.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx((6 - 2) / 4)
