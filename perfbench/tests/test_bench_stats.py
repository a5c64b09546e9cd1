import statistics

import pytest

from stats import median, quartiles, spread


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [9.6, 13.8, 10.1, 11.2, 12.0, 10.7, 9.9, 12.4, 11.0, 10.3]
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == median(values)


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([0.0, 0.0]) == 0.0
