"""Equivalence over whole chains: every kernel answers its plain reference.

Each figure is computed by one single-pass accumulator over a frame;
:mod:`tests.support.reference` holds each figure's meaning as a plain loop
over the records.  These tests drive both over the session's generated
``small`` chains (plus an empty input) in the configurations a report uses
and in the ones it does not, and require identical results — bit for bit
for the float sums.  ``tests/properties/test_kernel_parity.py`` compares
the same pairs on random slices and ragged blocks.
"""

from collections import Counter

import pytest

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
)
from repro.analysis.clustering import AccountClusterer, ClusterCountsAccumulator
from repro.analysis.flows import ValueFlowAccumulator
from repro.analysis.report import (
    FIGURE3_CATEGORIZERS,
    FIGURES,
    FigureConfig,
    tezos_figure3_key_columns,
)
from repro.analysis.throughput import DEFAULT_BIN_SECONDS, ThroughputSeriesAccumulator
from repro.analysis.value import ExchangeRateOracle, XrpDecompositionAccumulator
from repro.analysis.washtrading import WashTradeAccumulator
from repro.common.records import ChainId
from tests.support import reference, run_on_records
from tests.support.reference import reference_of


@pytest.fixture(scope="module")
def all_records(eos_records, tezos_records, xrp_records):
    return eos_records + tezos_records + xrp_records


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def agrees(accumulator, frame, records):
    """The kernel's figure over ``frame`` equals the reference over ``records``."""
    return accumulator.run(frame) == reference_of(accumulator)(records)


class TestClassifyEquivalence:
    def test_type_distribution_mixed_chains(self, all_records):
        assert run_on_records(
            TypeDistributionAccumulator(), all_records
        ) == reference.type_distribution(all_records)

    def test_category_distribution(self, eos_frame, eos_records):
        assert CategoryDistributionAccumulator().run(
            eos_frame
        ) == reference.category_distribution(eos_records)

    def test_category_distribution_custom_labels(self, eos_frame, eos_records):
        table = {"eosio.token": "X", "betdicetasks": "Y"}
        assert CategoryDistributionAccumulator(table).run(
            eos_frame
        ) == reference.category_distribution(eos_records, table)

    def test_tezos_category_distribution(self, tezos_frame, tezos_records):
        assert TezosCategoryAccumulator().run(
            tezos_frame
        ) == reference.tezos_category_distribution(tezos_records)


class TestThroughputEquivalence:
    def test_bin_throughput_eos_categories(self, eos_frame, eos_records):
        accumulator = ThroughputSeriesAccumulator(
            FIGURE3_CATEGORIZERS[ChainId.EOS],
            DEFAULT_BIN_SECONDS,
            eos_frame.min_timestamp(),
            eos_frame.max_timestamp(),
        )
        assert accumulator.run(eos_frame) == reference.throughput_series(
            eos_records,
            reference.eos_figure3_category,
            DEFAULT_BIN_SECONDS,
            eos_frame.min_timestamp(),
            eos_frame.max_timestamp(),
        )

    def test_bin_throughput_with_explicit_window(self, xrp_frame, xrp_records):
        """The type categorizer on XRP, over a window inside the data."""
        start = min(record.timestamp for record in xrp_records) + 3 * DEFAULT_BIN_SECONDS
        end = start + 20 * DEFAULT_BIN_SECONDS
        accumulator = ThroughputSeriesAccumulator(
            tezos_figure3_key_columns, DEFAULT_BIN_SECONDS, start, end
        )
        assert accumulator.run(xrp_frame) == reference.throughput_series(
            xrp_records, lambda record: record.type, DEFAULT_BIN_SECONDS, start, end
        )


class TestAccountsEquivalence:
    def test_top_receivers(self, eos_frame, eos_records):
        for limit in (10, 3):
            assert AccountActivityAccumulator("receiver", limit).run(
                eos_frame
            ) == reference.top_accounts(eos_records, "receiver", limit)

    def test_top_senders(self, xrp_frame, xrp_records):
        assert AccountActivityAccumulator("sender", 10).run(
            xrp_frame
        ) == reference.top_accounts(xrp_records, "sender", 10)

    def test_top_senders_tezos(self, tezos_frame, tezos_records):
        assert AccountActivityAccumulator("sender", 8).run(
            tezos_frame
        ) == reference.top_accounts(tezos_records, "sender", 8)

    def test_top_sender_receiver_pairs(self, eos_frame, eos_records):
        assert agrees(SenderReceiverPairsAccumulator(), eos_frame, eos_records)

    def test_concentration_and_singles(self, xrp_frame, xrp_records):
        counts = SenderCountsAccumulator().run(xrp_frame)
        assert counts == reference.sender_counts(xrp_records)
        # §3.3's two shares, counted straight from the rows.
        senders = Counter(record.sender for record in xrp_records if record.sender)
        per_sender = sorted(senders.values(), reverse=True)
        assert traffic_concentration(counts) == pytest.approx(
            sum(per_sender[:18]) / sum(per_sender)
        )
        assert single_transaction_account_share(counts) == pytest.approx(
            per_sender.count(1) / len(per_sender)
        )

    def test_cluster_counts_by_receiver(self, xrp_frame, xrp_records, xrp_clusterer):
        assert agrees(ClusterCountsAccumulator(xrp_clusterer, "receiver"), xrp_frame, xrp_records)


class TestValueEquivalence:
    def test_decomposition(self, xrp_frame, xrp_records, xrp_oracle):
        assert XrpDecompositionAccumulator(xrp_oracle).run(
            xrp_frame
        ) == reference.xrp_decomposition(xrp_records, xrp_oracle)

    def test_value_flows(self, xrp_frame, xrp_records, xrp_clusterer, xrp_oracle):
        assert ValueFlowAccumulator(xrp_clusterer, xrp_oracle).run(
            xrp_frame
        ) == reference.value_flows(xrp_records, xrp_clusterer.cluster_of, xrp_oracle, False)

    def test_value_flows_include_valueless(
        self, xrp_frame, xrp_records, xrp_clusterer, xrp_oracle
    ):
        assert ValueFlowAccumulator(xrp_clusterer, xrp_oracle, True).run(
            xrp_frame
        ) == reference.value_flows(xrp_records, xrp_clusterer.cluster_of, xrp_oracle, True)


class TestCaseStudyEquivalence:
    def test_wash_trading(self, eos_frame, eos_records):
        assert agrees(WashTradeAccumulator(), eos_frame, eos_records)

    def test_airdrop(self, eos_frame, eos_records):
        assert agrees(AirdropAccumulator(), eos_frame, eos_records)

    def test_airdrop_empty(self, tezos_frame, tezos_records):
        """No rows, and rows of a chain with no EOS action."""
        assert run_on_records(AirdropAccumulator(), []) == reference.airdrop(
            [], AirdropAccumulator().launch_timestamp, AirdropAccumulator().contract
        )
        assert agrees(AirdropAccumulator(), tezos_frame, tezos_records)

    def test_wash_trading_unknown_contract(self, eos_frame, eos_records):
        accumulator = WashTradeAccumulator("nonexistent11")
        assert accumulator.run(eos_frame) == reference.wash_trading(
            eos_records, "nonexistent11", accumulator.top_n
        )


class TestFullReportEquivalence:
    """Every figure of ``full_report`` over one chain (the session
    fixtures) is its reference over that chain's records."""

    def _check(self, chain, frame, records, figures, oracle=None, clusterer=None):
        config = FigureConfig(frame.chain_bounds(chain), oracle, clusterer)
        compared = set()
        for spec in FIGURES:
            if chain in spec.chains:
                accumulator = spec.factory(chain, config)
                assert figures[spec.name] == reference_of(accumulator)(records), spec.name
                compared.add(spec.name)
        assert compared == set(figures)

    def test_eos_figures(self, eos_frame, eos_records, eos_figures):
        self._check(ChainId.EOS, eos_frame, eos_records, eos_figures)

    def test_tezos_figures(self, tezos_frame, tezos_records, tezos_figures):
        self._check(ChainId.TEZOS, tezos_frame, tezos_records, tezos_figures)

    def test_xrp_figures(self, xrp_frame, xrp_records, xrp_figures, xrp_oracle, xrp_clusterer):
        self._check(ChainId.XRP, xrp_frame, xrp_records, xrp_figures, xrp_oracle, xrp_clusterer)
