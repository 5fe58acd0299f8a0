"""Tests for the EIDOS airdrop / boomerang analysis (§4.1)."""

import pytest

from repro.common.clock import timestamp_from_iso
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.airdrop import (
    AirdropAccumulator,
    BoomerangClaimsAccumulator,
    analyze_congestion,
)
from repro.eos.resources import CongestionSample
from tests.support import run_on_records


def transfer(tx_id, sender, receiver_contract, amount, timestamp, currency="EOS", inline=False, transfer_to=None):
    metadata = {}
    if inline:
        metadata["inline"] = True
    if transfer_to is not None:
        metadata["transfer_to"] = transfer_to
    return TransactionRecord(
        chain=ChainId.EOS,
        transaction_id=tx_id,
        block_height=1,
        timestamp=timestamp,
        type="transfer",
        sender=sender,
        receiver=receiver_contract,
        contract=receiver_contract,
        amount=amount,
        currency=currency,
        metadata=metadata,
    )


def boomerang_claim(tx_id, claimer, timestamp):
    """The four transfer records one EIDOS claim produces."""
    return [
        transfer(tx_id, claimer, "eosio.token", 0.0001, timestamp, transfer_to="eidosonecoin"),
        transfer(tx_id, claimer, "eidosonecoin", 0.0001, timestamp, transfer_to="eidosonecoin"),
        transfer(tx_id, "eidosonecoin", "eosio.token", 0.0001, timestamp, inline=True, transfer_to=claimer),
        transfer(tx_id, "eidosonecoin", "eidosonecoin", 50.0, timestamp, currency="EIDOS", inline=True, transfer_to=claimer),
    ]


LAUNCH = timestamp_from_iso("2019-11-01")


class TestDetection:
    def test_detects_synthetic_boomerang(self):
        records = boomerang_claim("claim1", "alice", LAUNCH + 10.0)
        claims = run_on_records(BoomerangClaimsAccumulator(), records)
        assert len(claims) == 1
        claim = claims[0]
        assert claim.claimer == "alice"
        assert claim.eos_amount == pytest.approx(0.0001)
        assert claim.eidos_granted == pytest.approx(50.0)

    def test_ordinary_transfer_not_a_claim(self):
        records = [transfer("tx1", "alice", "eosio.token", 5.0, LAUNCH, transfer_to="bob")]
        assert run_on_records(BoomerangClaimsAccumulator(), records) == []

    def test_refund_amount_must_match(self):
        records = [
            transfer("tx1", "alice", "eosio.token", 1.0, LAUNCH, transfer_to="eidosonecoin"),
            transfer("tx1", "eidosonecoin", "eosio.token", 0.5, LAUNCH, inline=True, transfer_to="alice"),
        ]
        assert run_on_records(BoomerangClaimsAccumulator(), records) == []

    def test_detects_claims_in_generated_traffic(self, eos_frame, eos_generator):
        claims = BoomerangClaimsAccumulator().run(eos_frame)
        assert claims
        # Every detected claim corresponds to a contract-recorded claim.
        assert len(claims) <= eos_generator.chain.contracts.get("eidosonecoin").claims


class TestAirdropReport:
    def test_synthetic_report(self):
        pre = [transfer(f"pre{i}", "alice", "eosio.token", 1.0, LAUNCH - 1_000.0 - i, transfer_to="bob") for i in range(5)]
        post = []
        for index in range(20):
            post.extend(boomerang_claim(f"claim{index}", "alice", LAUNCH + index))
        report = run_on_records(AirdropAccumulator(), pre + post)
        assert report.claim_count == 20
        assert report.boomerang_action_share_post_launch == 1.0
        assert report.dominates_post_launch_traffic
        assert report.unique_claimers == 1

    def test_generated_traffic_report(self, eos_frame, scenario):
        report = AirdropAccumulator(scenario.eos.eidos_launch_date).run(eos_frame)
        assert report.claim_count > 0
        assert report.boomerang_action_share_post_launch > 0.6
        assert report.traffic_multiplier > 3.0
        assert report.unique_claimers > 1
        assert report.dominates_post_launch_traffic

    def test_empty_stream(self):
        report = run_on_records(AirdropAccumulator(), [])
        assert report.claim_count == 0
        assert report.total_actions == 0


class TestCongestion:
    def test_congestion_report_from_history(self):
        history = [
            CongestionSample(timestamp=LAUNCH - 10, utilization=0.05, congested=False, cpu_price=0.0001),
            CongestionSample(timestamp=LAUNCH + 10, utilization=0.95, congested=True, cpu_price=0.5),
            CongestionSample(timestamp=LAUNCH + 20, utilization=0.99, congested=True, cpu_price=1.0),
        ]
        report = analyze_congestion(history, LAUNCH)
        assert report.congested_share == pytest.approx(1.0)
        assert report.cpu_price_increase == pytest.approx(1.0 / 0.0001)

    def test_empty_history(self):
        report = analyze_congestion([], LAUNCH)
        assert report.samples == 0
        assert report.congested_share == 0.0

    def test_generated_market_enters_congestion(self, eos_generator, scenario):
        history = eos_generator.chain.resources.history()
        report = analyze_congestion(history, scenario.eos.eidos_launch_timestamp)
        assert report.congested_samples > 0
        # The paper reports the CPU price spiking by orders of magnitude.
        assert report.cpu_price_increase > 100.0
