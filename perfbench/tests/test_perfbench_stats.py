"""Percentile, sample-count and spread rules of the benchmark."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == pytest.approx(2.5)
    assert stats.percentile(values, 90) == pytest.approx(3.7)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, p, defined",
    [(99, 90.0, False), (100, 90.0, True), (999, 99.0, False), (1000, 99.0, True), (20, 50.0, True), (19, 50.0, False)],
)
def test_tail_needs_ten_samples_beyond(n, p, defined):
    assert stats.percentile_defined(n, p) is defined


def test_quartile_spread_uses_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.quartile_spread([3.0]) == 0.0


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        stats.median([])
