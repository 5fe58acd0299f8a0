"""Figure 5 — EOS account pairs with the highest number of sent transactions.

Regenerates the Figure 5 view over the organic (pre-EIDOS) traffic, where
the application operator accounts dominate: ``betdicegroup`` sends the bulk
of its actions to ``betdicetasks``, ``mykeypostman`` relays transfers to
``eosio.token``.  Benchmarks the sender/receiver-pair aggregation.
"""

from repro.analysis.accounts import SenderReceiverPairsAccumulator
from repro.common.columns import TxFrame


def _organic_frame(eos_records, bench_scenario):
    launch = bench_scenario.eos.eidos_launch_timestamp
    return TxFrame.from_records([record for record in eos_records if record.timestamp < launch])


def test_fig5_top_sender_pairs(benchmark, eos_records, bench_scenario):
    organic = _organic_frame(eos_records, bench_scenario)
    profiles = benchmark(SenderReceiverPairsAccumulator(8, 5).run, organic)
    print("\nFigure 5 — EOS top senders (pre-launch organic traffic):")
    for profile in profiles:
        top_receiver, count, share = profile.top_receivers[0]
        print(
            f"  {profile.sender:14s} sent {profile.sent_count:>7d} to {profile.unique_receivers:>4d} receivers; "
            f"top: {top_receiver} ({share:.1%})"
        )
    senders = {profile.sender: profile for profile in profiles}
    assert "betdicegroup" in senders
    betdice = senders["betdicegroup"]
    # Paper: 68.9% of betdicegroup's transactions go to betdicetasks.
    assert betdice.top_receivers[0][0] == "betdicetasks"
    assert betdice.top_receivers[0][2] > 0.5
    # mykeypostman relays the vast majority of its actions to eosio.token.
    if "mykeypostman" in senders:
        assert senders["mykeypostman"].top_receivers[0][0] == "eosio.token"


def test_fig5_operator_accounts_concentrate_on_few_receivers(eos_records, bench_scenario):
    organic = _organic_frame(eos_records, bench_scenario)
    profiles = SenderReceiverPairsAccumulator(limit_senders=8).run(organic)
    operators = [profile for profile in profiles if profile.sender in ("betdicegroup", "mykeypostman")]
    assert operators
    for profile in operators:
        # Unlike the Tezos airdrop distributors, these senders talk to a
        # handful of counterparties (Figure 5: 34 and 7 unique receivers).
        assert profile.unique_receivers <= 40
