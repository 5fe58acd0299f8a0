"""Figure 6 — Tezos accounts with the highest number of sent transactions.

Regenerates the Figure 6 fan-out statistics over Tezos Transaction
operations: baker-payout-style senders pay the same delegators repeatedly
(mean transactions per receiver well above 1), while airdrop-style
distributors send exactly one transaction to each of thousands of distinct
addresses (mean ~1, stdev ~0).  Benchmarks the aggregation pass.
"""

from repro.analysis.accounts import SenderReceiverPairsAccumulator
from repro.common.columns import TxFrame


def _transactions_only(tezos_records):
    return [record for record in tezos_records if record.type == "Transaction"]


def test_fig6_top_senders_fanout(benchmark, tezos_records, tezos_generator):
    transactions = TxFrame.from_records(_transactions_only(tezos_records))
    profiles = benchmark(SenderReceiverPairsAccumulator(6, 3).run, transactions)
    print("\nFigure 6 — Tezos top senders (Transaction operations only):")
    for profile in profiles:
        print(
            f"  {profile.sender[:24]:26s} sent {profile.sent_count:>6d}  "
            f"unique receivers {profile.unique_receivers:>6d}  "
            f"mean/receiver {profile.mean_per_receiver:6.2f}  stdev {profile.stdev_per_receiver:6.2f}"
        )
    by_sender = {profile.sender: profile for profile in profiles}
    distributors = [address for address in tezos_generator.distributors if address in by_sender]
    payouts = [address for address in tezos_generator.payout_accounts if address in by_sender]
    assert distributors, "an airdrop-style distributor must rank among the top senders"
    assert payouts, "a payout-style sender must rank among the top senders"
    for address in distributors:
        profile = by_sender[address]
        # The tz1Mzpyj... pattern: one transaction per unique receiver.
        assert profile.mean_per_receiver < 1.5
    for address in payouts:
        profile = by_sender[address]
        # The baker-payout pattern: tens of transactions per receiver.
        assert profile.mean_per_receiver > 2.0
        assert profile.stdev_per_receiver > 0.0


def test_fig6_top_senders_are_a_small_set(tezos_records):
    transactions = _transactions_only(tezos_records)
    frame = TxFrame.from_records(transactions)
    profiles = SenderReceiverPairsAccumulator(limit_senders=5).run(frame)
    top_share = sum(profile.sent_count for profile in profiles) / len(transactions)
    # A handful of automated senders account for a large share of manager
    # transactions (the paper's Figure 6 observation).
    assert top_share > 0.3
