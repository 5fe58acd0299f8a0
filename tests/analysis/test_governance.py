"""Tests for the Tezos governance analysis (§4.2, Figure 9)."""

import pytest

from repro.analysis.governance import (
    analyze_governance,
    figure9_series,
    summarize_period,
)
from repro.tezos.governance import VoteEvent, VotingPeriodKind


def vote(period, timestamp=0.0, rolls=1, proposal="", ballot=""):
    return VoteEvent(
        timestamp=timestamp,
        period=period,
        baker="baker",
        rolls=rolls,
        proposal=proposal,
        ballot=ballot,
    )


class TestPeriodSummary:
    def test_tally_and_rates(self):
        events = [
            vote(VotingPeriodKind.EXPLORATION, ballot="yay", rolls=8),
            vote(VotingPeriodKind.EXPLORATION, ballot="yay", rolls=2),
            vote(VotingPeriodKind.EXPLORATION, ballot="pass", rolls=1),
        ]
        summary = summarize_period(events, VotingPeriodKind.EXPLORATION, electorate_rolls=10)
        assert summary.yay == 10
        assert summary.passes == 1
        assert summary.approval_rate == 1.0
        assert summary.nay_share == 0.0
        assert 0.0 < summary.participation <= 1.0

    def test_other_period_events_ignored(self):
        events = [vote(VotingPeriodKind.PROMOTION, ballot="nay", rolls=3)]
        summary = summarize_period(events, VotingPeriodKind.EXPLORATION, 10)
        assert summary.total == 0


class TestGovernanceReport:
    def _events(self):
        events = [
            vote(VotingPeriodKind.PROPOSAL, timestamp=1.0, proposal="Babylon", rolls=10),
            vote(VotingPeriodKind.PROPOSAL, timestamp=2.0, proposal="Babylon 2.0", rolls=20),
        ]
        events += [vote(VotingPeriodKind.EXPLORATION, timestamp=3.0, ballot="yay", rolls=1) for _ in range(40)]
        events += [vote(VotingPeriodKind.EXPLORATION, timestamp=3.5, ballot="pass", rolls=1)]
        events += [vote(VotingPeriodKind.PROMOTION, timestamp=4.0, ballot="yay", rolls=1) for _ in range(34)]
        events += [vote(VotingPeriodKind.PROMOTION, timestamp=4.5, ballot="nay", rolls=1) for _ in range(6)]
        return events

    def test_report_fields(self):
        report = analyze_governance(self._events(), electorate_rolls=50)
        assert report.winning_proposal == "Babylon 2.0"
        assert report.exploration_unanimous
        assert report.could_merge_periods
        assert report.promotion.nay_share == pytest.approx(6 / 40)
        assert report.exploration.participation > report.proposal_participation

    def test_governance_operation_count_from_records(self, tezos_records, tezos_frame):
        report = analyze_governance(self._events(), frame=tezos_frame)
        governance_records = [
            record for record in tezos_records if record.type in ("Ballot", "Proposals")
        ]
        assert report.governance_operation_count == len(governance_records)
        # Governance operations are a negligible share of Tezos traffic.
        assert report.governance_operation_count < 0.01 * len(tezos_records)

    def test_generated_babylon_votes_match_paper_shape(self, tezos_generator):
        events = tezos_generator.generate_babylon_votes()
        report = analyze_governance(events, electorate_rolls=460)
        assert report.winning_proposal == "Babylon 2.0"
        assert report.exploration_unanimous
        assert report.exploration.approval_rate > 0.99
        # Promotion sees ~15% nay votes after the testing-period breakages.
        assert 0.05 < report.promotion.nay_share < 0.3
        assert report.could_merge_periods


class TestFigure9Series:
    def test_three_panels_present(self, tezos_generator):
        events = tezos_generator.generate_babylon_votes()
        panels = figure9_series(events)
        assert set(panels) == {"proposal", "exploration", "promotion"}
        assert set(panels["proposal"]) == {"Babylon", "Babylon 2.0"}
        assert set(panels["exploration"]) == {"yay", "nay", "pass"}

    def test_series_are_cumulative_and_ordered(self, tezos_generator):
        events = tezos_generator.generate_babylon_votes()
        panels = figure9_series(events)
        for panel in panels.values():
            for series in panel.values():
                timestamps = [timestamp for timestamp, _ in series]
                counts = [count for _, count in series]
                assert timestamps == sorted(timestamps)
                assert counts == sorted(counts)

    def test_babylon2_overtakes_babylon(self, tezos_generator):
        events = tezos_generator.generate_babylon_votes()
        panels = figure9_series(events)
        babylon = panels["proposal"]["Babylon"]
        babylon2 = panels["proposal"]["Babylon 2.0"]
        assert babylon2[-1][1] > babylon[-1][1] * 0.8
        # Babylon 2.0 only starts receiving votes partway into the period.
        assert babylon2[0][0] > babylon[0][0]
