"""Case study: consensus overhead and on-chain governance on Tezos (§4.2).

Generates Tezos traffic for the observation window and reports:

* the operation-kind distribution, dominated by endorsements (Figure 1);
* the consensus / governance / manager split (§2.3.2);
* the Figure 6 sender patterns (baker payouts vs one-shot airdrop fan-out);
* the Babylon 2.0 amendment voting process: the three Figure 9 panels, the
  participation rates, and the paper's "the proposal and exploration periods
  could be merged" observation.

Run with:  python examples/tezos_governance.py
"""

from __future__ import annotations

from repro.analysis.accounts import SenderReceiverPairsAccumulator
from repro.analysis.classify import distribution_as_mapping
from repro.analysis.governance import analyze_governance, figure9_series
from repro.analysis.report import full_report
from repro.common.clock import date_from_timestamp
from repro.common.columns import TxFrame
from repro.common.records import ChainId, iter_transactions
from repro.tezos.workload import TezosWorkloadConfig, TezosWorkloadGenerator


def main() -> None:
    config = TezosWorkloadConfig(
        start_date="2019-09-29",
        end_date="2019-12-31",
        blocks_per_day=16,
        baker_count=12,
        user_account_count=200,
        seed=11,
    )
    print(f"Generating Tezos traffic {config.start_date} -> {config.end_date} ...")
    generator = TezosWorkloadGenerator(config)
    blocks = generator.generate()
    records = list(iter_transactions(blocks))
    print(f"  {len(blocks)} blocks, {len(records)} operations")
    frame = TxFrame.from_records(records)
    figures = full_report(frame).chains[ChainId.TEZOS]

    print("\nOperation kinds (Figure 1, Tezos column):")
    shares = distribution_as_mapping(figures["type_distribution"], ChainId.TEZOS)
    for kind, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"  {kind:24s} {share:6.1%}")
    categories = figures["tezos_category_distribution"]
    print("Consensus / governance / manager split:")
    for category, share in sorted(categories.items(), key=lambda item: -item[1]):
        print(f"  {category:12s} {share:6.1%}")

    print("\nTop senders and their fan-out (Figure 6):")
    transactions = TxFrame.from_records(
        [record for record in records if record.type == "Transaction"]
    )
    for profile in SenderReceiverPairsAccumulator(limit_senders=5).run(transactions):
        print(
            f"  {profile.sender[:22]:24s} sent {profile.sent_count:6d} to "
            f"{profile.unique_receivers:5d} receivers "
            f"(mean {profile.mean_per_receiver:5.2f}, stdev {profile.stdev_per_receiver:5.2f})"
        )

    print("\nBabylon 2.0 amendment (Figure 9, §4.2):")
    events = generator.generate_babylon_votes()
    report = analyze_governance(events, frame)
    print(f"  proposal-period votes: {report.proposal_votes}")
    print(f"  winning proposal:      {report.winning_proposal}")
    print(f"  proposal participation:   {report.proposal_participation:.0%}")
    print(
        f"  exploration: yay={report.exploration.yay} nay={report.exploration.nay}"
        f" pass={report.exploration.passes}"
        f" (approval {report.exploration.approval_rate:.1%})"
    )
    print(
        f"  promotion:   yay={report.promotion.yay} nay={report.promotion.nay}"
        f" pass={report.promotion.passes}"
        f" (nay share {report.promotion.nay_share:.1%})"
    )
    print(f"  governance operations in the window: {report.governance_operation_count}")
    print(f"  'merge proposal and exploration periods' applies: {report.could_merge_periods}")

    panels = figure9_series(events)
    print("\nVote-evolution series (Figure 9), final cumulative counts:")
    for panel_name, panel in panels.items():
        finals = {key: (series[-1][1] if series else 0) for key, series in panel.items()}
        print(f"  {panel_name:12s} {finals}")
    first_vote = min(event.timestamp for event in events)
    last_vote = max(event.timestamp for event in events)
    print(
        f"  voting spans {date_from_timestamp(first_vote)} -> {date_from_timestamp(last_vote)}"
    )


if __name__ == "__main__":
    main()
