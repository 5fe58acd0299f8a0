"""Equivalence: every accumulator matches its record-based seed predecessor.

Each figure is computed by one single-pass accumulator over a frame;
:mod:`tests.support.legacy` keeps the seed's dedicated-pass implementations
over record lists.  These tests drive both over the same generated small
scenario (plus synthetic edge cases) and require identical results.
"""

import pytest

from tests.support import legacy
from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
    single_transaction_account_share,
    traffic_concentration,
)
from repro.analysis.airdrop import AirdropAccumulator
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
    classify_eos_category,
)
from repro.analysis.clustering import AccountClusterer
from repro.analysis.flows import ValueFlowAccumulator
from repro.analysis.report import FIGURE3_CATEGORIZERS, full_report
from repro.analysis.throughput import DEFAULT_BIN_SECONDS, ThroughputSeriesAccumulator
from repro.analysis.value import ExchangeRateOracle, XrpDecompositionAccumulator
from repro.analysis.washtrading import WashTradeAccumulator
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from tests.support import run_on_records


@pytest.fixture(scope="module")
def all_records(eos_records, tezos_records, xrp_records):
    return eos_records + tezos_records + xrp_records


def by_type(frame):
    """Key columns that label a row with its type."""
    return (frame.type_code,), frame.types.values.__getitem__


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


class TestClassifyEquivalence:
    def test_type_distribution_mixed_chains(self, all_records):
        assert run_on_records(
            TypeDistributionAccumulator(), all_records
        ) == legacy.type_distribution(all_records)

    def test_category_distribution(self, eos_frame, eos_records):
        assert CategoryDistributionAccumulator().run(
            eos_frame
        ) == legacy.category_distribution(eos_records)

    def test_category_distribution_custom_labels(self, eos_frame, eos_records):
        table = {"eosio.token": "X", "betdicetasks": "Y"}
        assert CategoryDistributionAccumulator(table).run(
            eos_frame
        ) == legacy.category_distribution(eos_records, table)

    def test_tezos_category_distribution(self, tezos_frame, tezos_records):
        assert TezosCategoryAccumulator().run(
            tezos_frame
        ) == legacy.tezos_category_distribution(tezos_records)


class TestThroughputEquivalence:
    def test_bin_throughput_eos_categories(self, eos_frame, eos_records):
        accumulator = ThroughputSeriesAccumulator(
            FIGURE3_CATEGORIZERS[ChainId.EOS],
            DEFAULT_BIN_SECONDS,
            eos_frame.min_timestamp(),
            eos_frame.max_timestamp(),
        )
        new = accumulator.run(eos_frame)
        old = legacy.bin_throughput(eos_records, classify_eos_category, DEFAULT_BIN_SECONDS)
        assert new == old

    def test_bin_throughput_with_explicit_window(self, xrp_frame, xrp_records):
        categorizer = lambda record: record.type
        start = min(record.timestamp for record in xrp_records) + 3 * DEFAULT_BIN_SECONDS
        end = start + 20 * DEFAULT_BIN_SECONDS
        new = ThroughputSeriesAccumulator(by_type, DEFAULT_BIN_SECONDS, start, end).run(xrp_frame)
        old = legacy.bin_throughput(xrp_records, categorizer, DEFAULT_BIN_SECONDS, start, end)
        assert new == old


class TestAccountsEquivalence:
    def test_top_receivers(self, eos_frame, eos_records):
        assert AccountActivityAccumulator("receiver", 10).run(
            eos_frame
        ) == legacy.top_receivers(eos_records, limit=10)

    def test_top_senders(self, xrp_frame, xrp_records):
        assert AccountActivityAccumulator("sender", 10).run(
            xrp_frame
        ) == legacy.top_senders(xrp_records, limit=10)

    def test_top_senders_tezos(self, tezos_frame, tezos_records):
        assert AccountActivityAccumulator("sender", 8).run(
            tezos_frame
        ) == legacy.top_senders(tezos_records, limit=8)

    def test_top_sender_receiver_pairs(self, eos_frame, eos_records):
        assert SenderReceiverPairsAccumulator().run(
            eos_frame
        ) == legacy.top_sender_receiver_pairs(eos_records)

    def test_concentration_and_singles(self, xrp_frame, xrp_records):
        counts = SenderCountsAccumulator().run(xrp_frame)
        assert traffic_concentration(counts) == pytest.approx(
            legacy.traffic_concentration(xrp_records)
        )
        assert single_transaction_account_share(counts) == pytest.approx(
            legacy.single_transaction_account_share(xrp_records)
        )
        assert counts == legacy.transactions_per_account_distribution(xrp_records)


class TestValueEquivalence:
    def test_decomposition(self, xrp_frame, xrp_records, xrp_oracle):
        assert XrpDecompositionAccumulator(xrp_oracle).run(xrp_frame) == legacy.decompose(
            xrp_records, xrp_oracle
        )

    def test_value_flows(self, xrp_frame, xrp_records, xrp_generator, xrp_oracle):
        clusterer = AccountClusterer(xrp_generator.ledger.accounts)
        new = ValueFlowAccumulator(clusterer, xrp_oracle).run(xrp_frame)
        old = legacy.aggregate_value_flows(xrp_records, clusterer, xrp_oracle)
        assert new.flows == old.flows
        assert new.total_xrp_value == pytest.approx(old.total_xrp_value)
        assert new.by_sender == old.by_sender
        assert new.by_receiver == old.by_receiver
        assert new.by_currency == old.by_currency
        assert new.currency_face_value == old.currency_face_value

    def test_value_flows_include_valueless(self, xrp_frame, xrp_records, xrp_generator, xrp_oracle):
        clusterer = AccountClusterer(xrp_generator.ledger.accounts)
        new = ValueFlowAccumulator(clusterer, xrp_oracle, True).run(xrp_frame)
        old = legacy.aggregate_value_flows(xrp_records, clusterer, xrp_oracle, include_valueless=True)
        assert new.by_currency == old.by_currency
        assert sorted(
            (flow.sender_cluster, flow.receiver_cluster, flow.currency, flow.payment_count)
            for flow in new.flows
        ) == sorted(
            (flow.sender_cluster, flow.receiver_cluster, flow.currency, flow.payment_count)
            for flow in old.flows
        )


class TestCaseStudyEquivalence:
    def test_wash_trading(self, eos_frame, eos_records):
        assert WashTradeAccumulator().run(eos_frame) == legacy.analyze_wash_trading(
            eos_records
        )

    def test_airdrop(self, eos_frame, eos_records):
        assert AirdropAccumulator().run(eos_frame) == legacy.analyze_airdrop(eos_records)

    def test_airdrop_empty(self):
        assert run_on_records(AirdropAccumulator(), []) == legacy.analyze_airdrop([])

    def test_wash_trading_unknown_contract(self, eos_frame, eos_records):
        assert WashTradeAccumulator("nonexistent11").run(
            eos_frame
        ) == legacy.analyze_wash_trading(eos_records, contract="nonexistent11")


def _seed_stats_scans(records):
    """The seed report's dedicated scans: window bounds + distinct tx ids."""
    timestamps = [record.timestamp for record in records]
    duration = (max(timestamps) - min(timestamps)) if timestamps else 0.0
    transactions = len({record.transaction_id for record in records})
    return duration, transactions


def _xrp_categorizer(record):
    if not record.success:
        return "Unsuccessful"
    if record.type in ("Payment", "OfferCreate"):
        return record.type
    return "Others"


class TestFullReportEquivalence:
    """The one-pass report reproduces the seed's per-figure passes."""

    def test_eos_figures(self, eos_records):
        eos = full_report(TxFrame.from_records(eos_records)).chains[ChainId.EOS]
        assert eos["type_distribution"] == legacy.type_distribution(eos_records)
        assert eos["category_distribution"] == legacy.category_distribution(
            eos_records
        )
        assert eos["top_senders"] == legacy.top_senders(eos_records, 10)
        assert eos["top_receivers"] == legacy.top_receivers(eos_records, 10)
        assert eos["wash_trading"] == legacy.analyze_wash_trading(eos_records)
        assert eos["throughput_series"] == legacy.bin_throughput(
            eos_records, classify_eos_category
        )
        duration, transactions = _seed_stats_scans(eos_records)
        assert eos["tx_stats"].duration_seconds == duration
        assert eos["tx_stats"].transaction_count == transactions

    def test_xrp_figures(self, xrp_records, xrp_oracle):
        frame = TxFrame.from_records(xrp_records)
        xrp = full_report(frame, oracle=xrp_oracle).chains[ChainId.XRP]
        assert xrp["xrp_decomposition"] == legacy.decompose(xrp_records, xrp_oracle)
        assert xrp["throughput_series"] == legacy.bin_throughput(
            xrp_records, _xrp_categorizer
        )
