"""Tests for the calibrated XRP workload generator."""

import pytest

from repro.common.clock import timestamp_from_iso
from repro.common.records import ChainId, iter_transactions
from repro.xrp.workload import (
    HUOBI_DESTINATION_TAG,
    LIQUID_LINKED_ISSUER,
    MYRONE_ACCOUNT,
    RIPPLE_ACCOUNT,
    SPAM_PARENT,
    XrpWorkloadConfig,
    XrpWorkloadGenerator,
)


class TestConfigValidation:
    def test_defaults_cover_the_paper_window(self):
        config = XrpWorkloadConfig()
        assert config.start_date == "2019-10-01"
        assert config.total_days == pytest.approx(92.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ledgers_per_day": 0},
            {"transactions_per_day": 0},
            {"start_date": "2019-12-01", "end_date": "2019-11-01"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            XrpWorkloadConfig(**kwargs)


class TestGeneratedTraffic:
    def test_blocks_are_ordered_and_within_window(self, xrp_blocks, scenario):
        assert xrp_blocks
        timestamps = [block.timestamp for block in xrp_blocks]
        assert timestamps == sorted(timestamps)
        assert timestamps[-1] < scenario.xrp.end_timestamp

    def test_all_records_are_xrp(self, xrp_records):
        assert all(record.chain is ChainId.XRP for record in xrp_records)

    def test_failure_share_is_roughly_ten_percent(self, xrp_records):
        failed = sum(1 for record in xrp_records if not record.success)
        share = failed / len(xrp_records)
        assert 0.05 <= share <= 0.20

    def test_expected_failure_codes_present(self, xrp_records):
        codes = {record.error_code for record in xrp_records if not record.success}
        assert "tecPATH_DRY" in codes
        assert "tecUNFUNDED_OFFER" in codes

    def test_payment_and_offercreate_dominate(self, xrp_records):
        payments = sum(1 for record in xrp_records if record.type == "Payment")
        offers = sum(1 for record in xrp_records if record.type == "OfferCreate")
        assert (payments + offers) / len(xrp_records) > 0.85

    def test_offer_bots_are_huobi_descendants_with_offercreate_bias(
        self, xrp_generator, xrp_records
    ):
        registry = xrp_generator.ledger.accounts
        for bot in xrp_generator.offer_bots:
            assert registry.cluster_identifier(bot) == "Huobi Global -- descendant"
            own = [record for record in xrp_records if record.sender == bot]
            offers = sum(1 for record in own if record.type == "OfferCreate")
            assert offers / len(own) > 0.9

    def test_bot_payments_share_destination_tag(self, xrp_records, xrp_generator):
        bots = set(xrp_generator.offer_bots)
        tagged = [
            record
            for record in xrp_records
            if record.sender in bots and record.type == "Payment"
        ]
        if tagged:
            assert all(
                record.metadata.get("destination_tag") == HUOBI_DESTINATION_TAG
                for record in tagged
            )

    def test_spam_wave_amplifies_payment_traffic(self, xrp_blocks, scenario):
        wave_start = timestamp_from_iso(scenario.xrp.spam_waves[0][0])
        wave_end = timestamp_from_iso(scenario.xrp.spam_waves[0][1])
        inside = [block.action_count for block in xrp_blocks if wave_start <= block.timestamp < wave_end]
        outside = [block.action_count for block in xrp_blocks if block.timestamp >= wave_end]
        if inside and outside:
            assert sum(inside) / len(inside) > 1.3 * (sum(outside) / len(outside))

    def test_spam_accounts_descend_from_single_parent(self, xrp_generator):
        registry = xrp_generator.ledger.accounts
        assert xrp_generator.spam_accounts
        for address in xrp_generator.spam_accounts:
            assert registry.get(address).parent == SPAM_PARENT

    def test_spam_payments_use_worthless_btc_iou(self, xrp_records, xrp_generator):
        spam = set(xrp_generator.spam_accounts)
        spam_payments = [
            record
            for record in xrp_records
            if record.sender in spam and record.type == "Payment" and record.success
        ]
        assert spam_payments
        assert all(record.currency == "BTC" for record in spam_payments)
        # The spam swarm's BTC IOU is issued by its own parent account and
        # never trades on the DEX, so it is valueless per the §4.3 oracle.
        assert all(record.issuer == SPAM_PARENT for record in spam_payments)

    def test_ripple_and_exchanges_present(self, xrp_records):
        senders = {record.sender for record in xrp_records}
        assert RIPPLE_ACCOUNT in senders

    def test_valued_assets_have_positive_dex_rates(self, xrp_generator):
        book = xrp_generator.ledger.orderbook
        for asset in xrp_generator._valued_ious:
            assert book.average_rate_vs_xrp(asset.currency, asset.issuer) > 0.0

    def test_worthless_btc_never_traded_against_xrp_before_myrone(self, xrp_generator, scenario):
        # In the two-week test window (before mid-December) the Liquid-linked
        # BTC IOU has no executed rate, so it is valueless per the oracle.
        if scenario.xrp.end_timestamp < timestamp_from_iso("2019-12-14"):
            book = xrp_generator.ledger.orderbook
            assert book.average_rate_vs_xrp("BTC", LIQUID_LINKED_ISSUER) == 0.0

    def test_determinism(self):
        config = XrpWorkloadConfig(
            start_date="2019-10-20",
            end_date="2019-10-24",
            transactions_per_day=150,
            ledgers_per_day=4,
            ordinary_account_count=30,
            spam_accounts_per_wave=5,
            seed=77,
        )
        first = [record.type for record in iter_transactions(XrpWorkloadGenerator(config).generate())]
        second = [record.type for record in iter_transactions(XrpWorkloadGenerator(config).generate())]
        assert first == second


class TestMyroneScheme:
    def test_self_dealt_trade_occurs_in_december(self):
        config = XrpWorkloadConfig(
            start_date="2019-12-12",
            end_date="2019-12-16",
            transactions_per_day=100,
            ledgers_per_day=4,
            ordinary_account_count=20,
            spam_accounts_per_wave=5,
            seed=13,
        )
        generator = XrpWorkloadGenerator(config)
        blocks = generator.generate()
        records = list(iter_transactions(blocks))
        myrone_offers = [
            record
            for record in records
            if record.sender == MYRONE_ACCOUNT and record.type == "OfferCreate"
        ]
        assert myrone_offers
        rate = generator.ledger.orderbook.average_rate_vs_xrp("BTC", LIQUID_LINKED_ISSUER)
        assert rate == pytest.approx(30_500.0, rel=0.01)
        issuance = [
            record
            for record in records
            if record.sender == LIQUID_LINKED_ISSUER
            and record.receiver == MYRONE_ACCOUNT
            and record.type == "Payment"
        ]
        assert issuance and issuance[0].amount == pytest.approx(config.myrone_btc_amount)
