"""Edge cases of :meth:`RunStatistics.percentile`."""

from __future__ import annotations

import pytest

from repro.replication import RunStatistics


def make_stats(times):
    return RunStatistics(response_times=list(times))


def test_empty_sample_yields_zero():
    assert make_stats([]).percentile(0.5) == 0.0
    assert make_stats([]).percentile(0.0) == 0.0
    assert make_stats([]).percentile(1.0) == 0.0


def test_fraction_zero_is_minimum():
    stats = make_stats([30.0, 10.0, 20.0])
    assert stats.percentile(0.0) == 10.0


def test_fraction_one_is_maximum():
    stats = make_stats([30.0, 10.0, 20.0])
    assert stats.percentile(1.0) == 30.0


def test_single_sample_is_every_percentile():
    stats = make_stats([42.0])
    for fraction in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert stats.percentile(fraction) == 42.0


def test_median_interpolates_linearly():
    stats = make_stats([0.0, 10.0])
    assert stats.percentile(0.5) == pytest.approx(5.0)
    assert stats.percentile(0.25) == pytest.approx(2.5)


def test_out_of_range_fraction_raises():
    stats = make_stats([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        stats.percentile(-0.1)
    with pytest.raises(ValueError):
        stats.percentile(1.5)
    # The validation must not depend on the sample being non-empty.
    with pytest.raises(ValueError):
        make_stats([]).percentile(2.0)
