"""Tests for top-account tables (Figures 4, 5, 6, 8)."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
    single_transaction_account_share,
    traffic_concentration,
)
from tests.support import run_on_records


def record(sender, receiver, type_="transfer"):
    return TransactionRecord(
        chain=ChainId.EOS,
        transaction_id=f"{sender}-{receiver}-{type_}",
        block_height=1,
        timestamp=0.0,
        type=type_,
        sender=sender,
        receiver=receiver,
    )


SIMPLE = (
    [record("a", "token") for _ in range(5)]
    + [record("b", "token") for _ in range(3)]
    + [record("b", "dex", "trade") for _ in range(3)]
    + [record("c", "dex", "trade")]
)


class TestTopReceivers:
    def test_ranking_and_shares(self):
        receivers = run_on_records(AccountActivityAccumulator("receiver", 2), SIMPLE)
        assert receivers[0].account == "token"
        assert receivers[0].total == 8
        assert receivers[0].share_of_chain == pytest.approx(8 / 12)
        assert receivers[1].account == "dex"

    def test_type_breakdown(self):
        receivers = run_on_records(AccountActivityAccumulator("receiver", 1), SIMPLE)
        name, count, share = receivers[0].top_type()
        assert name == "transfer"
        assert count == 8
        assert share == 1.0

    def test_empty(self):
        assert run_on_records(AccountActivityAccumulator("receiver"), []) == []

    def test_generated_eos_top_receivers_match_figure4(self, eos_frame):
        top = AccountActivityAccumulator("receiver", 6).run(eos_frame)
        receivers = [activity.account for activity in top]
        assert "eosio.token" in receivers[:3]
        assert "betdicetasks" in receivers
        assert "eidosonecoin" in receivers


class TestTopSenders:
    def test_ranking(self):
        senders = run_on_records(AccountActivityAccumulator("sender", 2), SIMPLE)
        assert senders[0].account == "b"
        assert senders[0].total == 6

    def test_generated_xrp_top_senders_are_offer_bots(self, xrp_frame, xrp_generator):
        senders = AccountActivityAccumulator("sender", 6).run(xrp_frame)
        bots = set(xrp_generator.offer_bots)
        assert sum(1 for activity in senders if activity.account in bots) >= 3
        for activity in senders:
            if activity.account in bots:
                name, _, share = activity.top_type()
                assert name == "OfferCreate"
                assert share > 0.9


class TestSenderReceiverPairs:
    def test_profiles_report_fanout_statistics(self):
        records = [record("payer", f"user{i}") for i in range(10)]
        records += [record("payer", "user0") for _ in range(10)]
        profiles = run_on_records(SenderReceiverPairsAccumulator(1), records)
        profile = profiles[0]
        assert profile.sender == "payer"
        assert profile.sent_count == 20
        assert profile.unique_receivers == 10
        assert profile.mean_per_receiver == pytest.approx(2.0)
        assert profile.stdev_per_receiver > 0.0
        assert profile.top_receivers[0][0] == "user0"

    def test_airdrop_pattern_has_unit_mean(self):
        records = [record("airdrop", f"user{i}") for i in range(50)]
        profile = run_on_records(SenderReceiverPairsAccumulator(1), records)[0]
        assert profile.mean_per_receiver == pytest.approx(1.0)
        assert profile.stdev_per_receiver == pytest.approx(0.0)

    def test_generated_eos_top_pairs_match_figure5(self, eos_records, scenario):
        # The organic (pre-EIDOS) traffic is where the Figure 5 senders
        # dominate; after the launch the claimer accounts swamp the ranking.
        launch = scenario.eos.eidos_launch_timestamp
        organic = [record for record in eos_records if record.timestamp < launch]
        profiles = run_on_records(SenderReceiverPairsAccumulator(5), organic)
        betdice = next((p for p in profiles if p.sender == "betdicegroup"), None)
        assert betdice is not None
        assert betdice.top_receivers[0][0] == "betdicetasks"


class TestConcentration:
    def test_traffic_concentration(self):
        records = [record("whale", "x") for _ in range(90)]
        records += [record(f"small{i}", "x") for i in range(10)]
        counts = run_on_records(SenderCountsAccumulator(), records)
        assert traffic_concentration(counts, top_n=1) == pytest.approx(0.9)

    def test_single_transaction_share(self):
        records = [record("once", "x"), record("twice", "x"), record("twice", "y")]
        counts = run_on_records(SenderCountsAccumulator(), records)
        assert single_transaction_account_share(counts) == pytest.approx(0.5)

    def test_distribution(self):
        records = [record("a", "x"), record("a", "y"), record("b", "x")]
        assert run_on_records(SenderCountsAccumulator(), records) == {"a": 2, "b": 1}

    def test_empty_inputs(self):
        assert run_on_records(SenderCountsAccumulator(), []) == {}
        assert traffic_concentration({}) == 0.0
        assert single_transaction_account_share({}) == 0.0

    def test_generated_xrp_traffic_is_concentrated(self, xrp_frame):
        # The paper: the 18 most active accounts produce half the traffic.
        counts = SenderCountsAccumulator().run(xrp_frame)
        assert traffic_concentration(counts, top_n=18) > 0.4
