"""Tests for the simulation clock and timestamp helpers."""

import pytest

from repro.common.clock import (
    SECONDS_PER_DAY,
    SimulationClock,
    date_from_timestamp,
    iso_from_timestamp,
    timestamp_from_iso,
)


class TestTimestampConversion:
    def test_round_trip_date(self):
        timestamp = timestamp_from_iso("2019-10-01")
        assert date_from_timestamp(timestamp) == "2019-10-01"

    def test_round_trip_datetime(self):
        timestamp = timestamp_from_iso("2019-11-01T12:34:56")
        assert iso_from_timestamp(timestamp) == "2019-11-01T12:34:56"

    def test_day_difference(self):
        start = timestamp_from_iso("2019-10-01")
        end = timestamp_from_iso("2019-10-02")
        assert end - start == SECONDS_PER_DAY

    def test_observation_window_length(self):
        # The paper's window runs October through December 2019: 92 days.
        start = timestamp_from_iso("2019-10-01")
        end = timestamp_from_iso("2020-01-01")
        assert (end - start) / SECONDS_PER_DAY == 92

    def test_invalid_date_raises(self):
        with pytest.raises(ValueError):
            timestamp_from_iso("not-a-date")


class TestSimulationClock:
    def test_starts_at_given_time(self):
        clock = SimulationClock(100.0)
        assert clock.now == 100.0

    def test_accepts_iso_string(self):
        clock = SimulationClock("2019-10-01")
        assert clock.now == timestamp_from_iso("2019-10-01")

    def test_advance_moves_forward(self):
        clock = SimulationClock(0.0)
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now == 7.5
        assert clock.elapsed() == 7.5

    def test_advance_rejects_negative(self):
        clock = SimulationClock(0.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_advance_to_is_monotonic(self):
        clock = SimulationClock(50.0)
        clock.advance_to(80.0)
        assert clock.now == 80.0
        clock.advance_to(10.0)  # moving backwards is a no-op
        assert clock.now == 80.0
