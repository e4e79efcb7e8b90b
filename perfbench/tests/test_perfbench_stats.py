"""The tail-percentile rule and goodput accounting."""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest  # noqa: E402

import stats  # noqa: E402


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 19])
def test_tiny_samples_have_no_tail(n):
    # p50 is the lowest rung; it needs floor(n/2) >= 10 samples beyond it
    assert stats.tail(list(range(n))) is None


@pytest.mark.parametrize(
    "n, percentile",
    [(20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_rung_with_ten_beyond(n, percentile):
    values = [float(v) for v in range(n)]
    found = stats.tail(values)
    assert found.percentile == percentile
    assert found.n_samples == n
    assert found.n_beyond >= stats.MIN_BEYOND
    assert found.n_beyond == sum(1 for v in values if v > found.value)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 30
    assert stats.tail(values) == stats.tail(sorted(values))


def test_tail_value_is_a_sample():
    values = [float(v) ** 2 for v in range(150)]
    found = stats.tail(values)
    assert found.value in values
    assert found.value == stats.percentile(values, found.percentile)


def test_percentile_nearest_rank():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_goodput_counts_only_fast_successes():
    outcomes = [
        (200, 0.010),   # good
        (200, 0.025),   # at the limit: good
        (200, 0.030),   # too slow
        (429, 0.001),   # refused: a miss however fast
        (503, 0.001),   # failed
        (None, None),   # transport error
    ]
    assert stats.goodput(outcomes, limit_s=0.025, seconds=2.0) == pytest.approx(1.0)


def test_goodput_failed_requests_do_not_count_even_if_fast():
    assert stats.goodput([(500, 0.0)] * 10, 0.025, 1.0) == 0.0
    with pytest.raises(ValueError):
        stats.goodput([], 0.025, 0.0)


def test_failed_requests_count_as_infinitely_slow():
    # a failed request misses every limit: ten of them stay beyond the tail,
    # eleven reach it
    assert math.isfinite(stats.tail([1.0] * 30 + [math.inf] * 10).value)
    assert stats.tail([1.0] * 30 + [math.inf] * 11).value == math.inf
