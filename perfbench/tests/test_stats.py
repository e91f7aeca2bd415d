"""The percentile picker obeys the "ten samples beyond" rule."""

import pytest

from perfbench.stats import percentile, quartiles, spread, tail_pct


@pytest.mark.parametrize("n, expected", [
    (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert tail_pct(n) == expected
    if expected is not None:
        ordered = list(range(1, n + 1))
        beyond = sum(1 for v in ordered if v > percentile(ordered, expected))
        assert beyond >= 10


def test_percentile_is_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert percentile(ordered, 50.0) == 2.0
    assert percentile(ordered, 75.0) == 3.0
    assert percentile(ordered, 100.0) == 4.0
    assert percentile(ordered, 0.0) == 1.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, q2, q3 = quartiles(values)
    assert q2 == 12.0
    assert spread(values) == pytest.approx((q3 - q1) / 12.0)
    assert spread([5.0]) == 0.0
