"""Figure 9 — the Tezos Babylon 2.0 on-chain amendment voting process.

Regenerates the three vote-evolution panels (proposal, exploration,
promotion) and the §4.2 statistics: Babylon 2.0 overtakes Babylon during
the proposal period, the exploration vote is unanimous except for a single
explicit pass, and the promotion vote picks up ~15 % nays.  Benchmarks the
vote-series construction and the governance report.
"""

from repro.analysis.governance import analyze_governance, figure9_series
from repro.tezos.governance import VotingPeriodKind


def test_fig9_vote_series(benchmark, tezos_generator):
    events = tezos_generator.generate_babylon_votes()
    panels = benchmark(figure9_series, events)
    finals = {
        panel: {key: (series[-1][1] if series else 0) for key, series in content.items()}
        for panel, content in panels.items()
    }
    print(f"\nFigure 9 — final cumulative votes per panel: {finals}")
    # Panel (a): Babylon 2.0 ends ahead of Babylon.
    assert finals["proposal"]["Babylon 2.0"] > finals["proposal"]["Babylon"]
    # Panel (b): no nay votes during exploration, exactly one pass.
    assert finals["exploration"]["nay"] == 0
    assert finals["exploration"]["yay"] > 0
    # Panel (c): promotion gains nay votes but yay still dominates.
    assert 0 < finals["promotion"]["nay"] < finals["promotion"]["yay"]
    # Series are cumulative (monotonically non-decreasing).
    for content in panels.values():
        for series in content.values():
            counts = [count for _, count in series]
            assert counts == sorted(counts)


def test_fig9_governance_report(benchmark, tezos_generator, tezos_frame):
    events = tezos_generator.generate_babylon_votes()
    report = benchmark(analyze_governance, events, tezos_frame)
    print(
        f"\n§4.2 — winning proposal: {report.winning_proposal}; "
        f"proposal participation {report.proposal_participation:.0%}; "
        f"exploration approval {report.exploration.approval_rate:.1%}; "
        f"promotion nay share {report.promotion.nay_share:.1%}; "
        f"governance operations in window: {report.governance_operation_count}"
    )
    assert report.winning_proposal == "Babylon 2.0"
    assert report.exploration_unanimous
    assert report.exploration.approval_rate > 0.99
    assert 0.05 < report.promotion.nay_share < 0.30
    # Exploration participation exceeds proposal participation (81% vs 49%),
    # because an explicit pass counts as participating.
    assert report.exploration.participation > report.proposal_participation
    # Governance operations are a negligible share of the chain's throughput
    # (245 operations in the paper's three-month window).
    assert report.governance_operation_count < 0.005 * len(tezos_frame)
    assert report.could_merge_periods


def test_fig9_period_ordering(tezos_generator):
    events = tezos_generator.generate_babylon_votes()
    bounds = {}
    for period in (VotingPeriodKind.PROPOSAL, VotingPeriodKind.EXPLORATION, VotingPeriodKind.PROMOTION):
        timestamps = [event.timestamp for event in events if event.period is period]
        bounds[period] = (min(timestamps), max(timestamps))
    assert bounds[VotingPeriodKind.PROPOSAL][1] <= bounds[VotingPeriodKind.EXPLORATION][0]
    assert bounds[VotingPeriodKind.EXPLORATION][1] <= bounds[VotingPeriodKind.PROMOTION][0]
