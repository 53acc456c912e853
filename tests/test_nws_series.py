"""Tests for the NWS time-series store."""

from __future__ import annotations

import pytest

from repro.nws.series import TimeSeries


class TestTimeSeries:
    def test_append_and_read(self):
        ts = TimeSeries("cpu")
        ts.append(0.0, 0.5)
        ts.append(10.0, 0.6)
        assert len(ts) == 2
        assert ts.last_time == 10.0
        assert ts.last_value == 0.6

    def test_iteration(self):
        ts = TimeSeries()
        ts.append(1.0, 0.1)
        ts.append(2.0, 0.2)
        assert list(ts) == [(1.0, 0.1), (2.0, 0.2)]

    def test_timestamps_must_not_decrease(self):
        ts = TimeSeries()
        ts.append(5.0, 0.1)
        with pytest.raises(ValueError):
            ts.append(4.0, 0.2)

    def test_equal_timestamps_allowed(self):
        ts = TimeSeries()
        ts.append(5.0, 0.1)
        ts.append(5.0, 0.2)
        assert len(ts) == 2

    def test_bounded(self):
        ts = TimeSeries(maxlen=3)
        for i in range(10):
            ts.append(float(i), float(i))
        assert len(ts) == 3
        assert ts.values() == [7.0, 8.0, 9.0]
        assert ts.total_observations == 10

    def test_window_reads(self):
        ts = TimeSeries()
        for i in range(5):
            ts.append(float(i), float(i * 10))
        assert ts.values(2) == [30.0, 40.0]
        assert ts.times(2) == [3.0, 4.0]
        assert ts.values(100) == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_window_must_be_positive(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        with pytest.raises(ValueError):
            ts.values(0)

    def test_empty_accessors_raise(self):
        ts = TimeSeries("x")
        with pytest.raises(IndexError):
            _ = ts.last_value
        with pytest.raises(IndexError):
            _ = ts.last_time

    def test_extend_records_a_block(self):
        ts = TimeSeries(maxlen=4)
        ts.append(0.0, 0.5)
        ts.extend([1.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        ts.extend([], [])
        assert list(ts) == [(0.0, 0.5), (1.0, 0.1), (1.0, 0.2), (2.0, 0.3)]
        ts.extend((3.0, 4.0), (0.4, 0.6))
        assert ts.values() == [0.2, 0.3, 0.4, 0.6]
        assert ts.total_observations == 6

    @pytest.mark.parametrize(
        "times", [[2.0, 1.5], [0.5, 3.0], [2.0, 4.0, 3.0]],
        ids=["within", "before-last", "late-in-block"],
    )
    def test_extend_refuses_a_decreasing_block_whole(self, times):
        ts = TimeSeries()
        ts.append(1.0, 0.5)
        with pytest.raises(ValueError, match="non-decreasing"):
            ts.extend(times, [0.0] * len(times))
        assert list(ts) == [(1.0, 0.5)]
        assert ts.total_observations == 1

    def test_extend_lengths_must_match(self):
        with pytest.raises(ValueError):
            TimeSeries().extend([1.0, 2.0], [0.5])
