"""Tests for the Babylon timeline and the Figure 9 vote series."""

from repro.common.clock import timestamp_from_iso
from repro.tezos.governance import (
    BabylonTimeline,
    VoteEvent,
    VotingPeriodKind,
    cumulative_vote_series,
)


class TestBabylonTimeline:
    def test_periods_are_ordered_and_non_empty(self):
        timeline = BabylonTimeline()
        previous_end = 0.0
        for period in (
            VotingPeriodKind.PROPOSAL,
            VotingPeriodKind.EXPLORATION,
            VotingPeriodKind.TESTING,
            VotingPeriodKind.PROMOTION,
        ):
            start, end = timeline.period_bounds(period)
            assert end > start
            assert start >= previous_end
            previous_end = end

    def test_promotion_ends_on_activation_date(self):
        timeline = BabylonTimeline()
        _, end = timeline.period_bounds(VotingPeriodKind.PROMOTION)
        assert end == timestamp_from_iso("2019-10-18")

    def test_period_days(self):
        timeline = BabylonTimeline()
        assert timeline.period_days(VotingPeriodKind.PROPOSAL) >= 20


class TestVoteSeries:
    def test_cumulative_series_is_monotonic(self):
        events = [
            VoteEvent(timestamp=3.0, period=VotingPeriodKind.PROPOSAL, baker="b1", rolls=2, proposal="Babylon"),
            VoteEvent(timestamp=1.0, period=VotingPeriodKind.PROPOSAL, baker="b2", rolls=1, proposal="Babylon"),
            VoteEvent(timestamp=2.0, period=VotingPeriodKind.PROPOSAL, baker="b3", rolls=4, proposal="Other"),
        ]
        series = cumulative_vote_series(events, VotingPeriodKind.PROPOSAL, "Babylon")
        assert series == [(1.0, 1), (3.0, 3)]

    def test_ballot_series_filters_by_choice(self):
        events = [
            VoteEvent(timestamp=1.0, period=VotingPeriodKind.EXPLORATION, baker="b1", rolls=1, ballot="yay"),
            VoteEvent(timestamp=2.0, period=VotingPeriodKind.EXPLORATION, baker="b2", rolls=1, ballot="nay"),
        ]
        assert cumulative_vote_series(events, VotingPeriodKind.EXPLORATION, "yay") == [(1.0, 1)]
        assert cumulative_vote_series(events, VotingPeriodKind.EXPLORATION, "nay") == [(2.0, 1)]
