import pytest

from stats import MIN_BEYOND, min_samples, nearest_rank, tail_percentile


def test_p90_of_100_distinct_samples_has_ten_beyond():
    values = list(range(1, 101))
    value, beyond = tail_percentile(values, 90)
    assert value == 90
    assert beyond == MIN_BEYOND


def test_p90_of_99_samples_has_fewer_than_ten_beyond():
    value, beyond = tail_percentile(list(range(99)), 90)
    assert beyond == 9


def test_min_samples_is_the_smallest_run_meeting_the_rule():
    n = min_samples(90)
    assert n == 100
    assert tail_percentile(list(range(n)), 90)[1] >= MIN_BEYOND
    assert tail_percentile(list(range(n - 1)), 90)[1] < MIN_BEYOND
    assert min_samples(50) == 20


def test_ties_at_the_percentile_are_not_counted_beyond():
    values = [1.0] * 95 + [2.0] * 5
    assert tail_percentile(values, 90) == (1.0, 5)


def test_nearest_rank_is_order_independent_and_checks_its_input():
    assert nearest_rank([3, 1, 2], 50) == 2
    assert nearest_rank([3, 1, 2], 100) == 3
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1], 0)
