"""Shard/fold equivalence: folded shard states reproduce the serial engine.

Partial states combine one way — ``export_state`` payloads folded by
``restore_state`` through :func:`repro.analysis.parallel.fold_states`; these
tests require that scanning a frame in contiguous shards and folding the
shard states (in shard order) produces exactly the result of one serial
pass — for every accumulator in all nine analysis modules, at arbitrary cut
points.  (The cross-process identity of the chunk engine, which cuts only at
chunk boundaries, lives in ``tests/analysis/test_out_of_core.py``.)

Floating-point caveat: ``ValueFlowAccumulator`` sums XRP values, and folding
adds shard subtotals; counts, keys and orderings must match exactly, while
the value sums are compared to within strict relative tolerance (the serial
row-order sum and the shard-subtotal sum may differ in the last ulps).
"""

from __future__ import annotations

import pytest

from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.airdrop import AirdropAccumulator, BoomerangClaimsAccumulator
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    ContractBreakdownAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
)
from repro.analysis.clustering import (
    AccountClusterer,
    ClusterCountsAccumulator,
    StaticAccountClusterer,
)
from repro.analysis.engine import AnalysisEngine, EngineResult, TxStatsAccumulator
from repro.analysis.flows import ValueFlowAccumulator
from repro.analysis.governance import GovernanceOpsAccumulator
from repro.analysis.parallel import _bound_base, export_states, fold_states
from repro.analysis.report import FIGURE3_CATEGORIZERS
from repro.analysis.throughput import ThroughputSeriesAccumulator
from repro.analysis.value import (
    ExchangeRateOracle,
    FailureCodeAccumulator,
    XrpDecompositionAccumulator,
)
from repro.analysis.washtrading import TradeExtractionAccumulator, WashTradeAccumulator
from repro.common.columns import TxFrame, TxView, view_of
from repro.common.errors import AnalysisError
from repro.common.records import ChainId


@pytest.fixture(scope="module")
def combined_frame(eos_records, tezos_records, xrp_records):
    return TxFrame.from_records(eos_records + tezos_records + xrp_records)


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _serial(factory, source):
    return AnalysisEngine(list(factory())).run(source)


def run_sharded(source, factory, shards):
    """Scan ``source`` in contiguous shards, fold in shard order, finalise."""
    view = view_of(source)
    rows = view.rows
    base = _bound_base(factory, view.frame)
    # ``shards`` near-equal contiguous cuts of the view's rows, in row order.
    cuts = [len(rows) * index // shards for index in range(shards + 1)]
    for start, stop in zip(cuts, cuts[1:]):
        if stop == start:
            continue
        accumulators = list(factory())
        AnalysisEngine(accumulators).run(TxView(view.frame, rows[start:stop]))
        fold_states({"shard": export_states(accumulators)}, {"shard": base})
    return EngineResult(
        {accumulator.name: accumulator.finalize() for accumulator in base},
        rows_processed=len(view),
    )


def _assert_results_equal(serial, sharded):
    assert serial.rows_processed == sharded.rows_processed
    assert set(serial.keys()) == set(sharded.keys())
    for name in serial.keys():
        assert sharded[name] == serial[name], name


class TestShardMergeEquivalence:
    """Folded shard scans == one serial pass, for every accumulator."""

    SHARD_COUNTS = (2, 3, 7)

    def _check(self, factory, source, shards=3):
        serial = _serial(factory, source)
        sharded = run_sharded(source, factory, shards=shards)
        _assert_results_equal(serial, sharded)

    def test_tx_stats(self, combined_frame):
        for shards in self.SHARD_COUNTS:
            self._check(lambda: [TxStatsAccumulator()], combined_frame, shards)

    def test_type_distribution(self, combined_frame):
        self._check(lambda: [TypeDistributionAccumulator()], combined_frame)

    def test_category_distribution(self, combined_frame):
        self._check(lambda: [CategoryDistributionAccumulator()], combined_frame)

    def test_tezos_category_distribution(self, combined_frame):
        self._check(lambda: [TezosCategoryAccumulator()], combined_frame)

    def test_contract_breakdown(self, combined_frame):
        self._check(
            lambda: [ContractBreakdownAccumulator("eosio.token")], combined_frame
        )

    def test_throughput_series_key_columns(self, combined_frame):
        bounds = combined_frame.chain_bounds(ChainId.EOS)
        view = combined_frame.chain_view(ChainId.EOS)
        factory = lambda: [
            ThroughputSeriesAccumulator(
                key_columns=FIGURE3_CATEGORIZERS[ChainId.EOS],
                start=bounds[0],
                end=bounds[1],
            )
        ]
        self._check(factory, view)

    def test_throughput_series_tezos_type_keys(self, combined_frame):
        bounds = combined_frame.chain_bounds(ChainId.TEZOS)
        view = combined_frame.chain_view(ChainId.TEZOS)
        factory = lambda: [
            ThroughputSeriesAccumulator(
                key_columns=FIGURE3_CATEGORIZERS[ChainId.TEZOS],
                start=bounds[0],
                end=bounds[1],
            )
        ]
        self._check(factory, view)

    def test_account_activity_both_sides(self, combined_frame):
        self._check(
            lambda: [
                AccountActivityAccumulator("sender", 10),
                AccountActivityAccumulator("receiver", 10),
            ],
            combined_frame,
        )

    def test_sender_receiver_pairs(self, combined_frame):
        self._check(lambda: [SenderReceiverPairsAccumulator()], combined_frame)

    def test_sender_counts(self, combined_frame):
        self._check(lambda: [SenderCountsAccumulator()], combined_frame)

    def test_xrp_decomposition(self, combined_frame, xrp_oracle):
        self._check(
            lambda: [XrpDecompositionAccumulator(xrp_oracle)], combined_frame
        )

    def test_failure_codes(self, combined_frame):
        self._check(lambda: [FailureCodeAccumulator()], combined_frame)

    def test_wash_trading_and_trades(self, combined_frame):
        self._check(
            lambda: [WashTradeAccumulator(), TradeExtractionAccumulator()],
            combined_frame,
        )

    def test_airdrop_and_boomerangs(self, combined_frame):
        self._check(
            lambda: [AirdropAccumulator(), BoomerangClaimsAccumulator()],
            combined_frame,
        )

    def test_cluster_counts(self, combined_frame, xrp_clusterer):
        self._check(
            lambda: [ClusterCountsAccumulator(xrp_clusterer, "sender")],
            combined_frame,
        )

    def test_governance_ops(self, combined_frame):
        self._check(lambda: [GovernanceOpsAccumulator()], combined_frame)

    def test_value_flows(self, combined_frame, xrp_oracle, xrp_clusterer):
        factory = lambda: [ValueFlowAccumulator(xrp_clusterer, xrp_oracle)]
        serial = _serial(factory, combined_frame)["value_flows"]
        sharded = run_sharded(combined_frame, factory, shards=3)["value_flows"]
        # Counts, keys and orderings fold exactly.
        assert [
            (flow.sender_cluster, flow.receiver_cluster, flow.currency, flow.payment_count)
            for flow in sharded.flows
        ] == [
            (flow.sender_cluster, flow.receiver_cluster, flow.currency, flow.payment_count)
            for flow in serial.flows
        ]
        assert sharded.by_sender.keys() == serial.by_sender.keys()
        # XRP-value sums add shard subtotals: equal to within rounding.
        assert sharded.total_xrp_value == pytest.approx(
            serial.total_xrp_value, rel=1e-9
        )
        for cluster, value in serial.by_sender.items():
            assert sharded.by_sender[cluster] == pytest.approx(value, rel=1e-9)
        for currency, value in serial.currency_face_value.items():
            assert sharded.currency_face_value[currency] == pytest.approx(
                value, rel=1e-9
            )


class TestMergeProtocol:
    def test_mismatched_accumulator_sets_rejected(self, combined_frame):
        """States that do not fit are rejected whole, before any restore."""
        scanned = [TxStatsAccumulator(), TypeDistributionAccumulator()]
        AnalysisEngine(scanned).run(combined_frame)
        stats_state, types_state = export_states(scanned)
        targets = {
            "eos": _bound_base(lambda: [TxStatsAccumulator()], combined_frame),
            "xrp": _bound_base(lambda: [TxStatsAccumulator()], combined_frame),
        }
        for states in (
            {"eos": []},  # wrong length
            {"eos": [stats_state, types_state]},
            {"eos": [types_state]},  # wrong accumulator class
            {"tezos": [stats_state]},  # no target for the chain
            # a fitting chain ahead of a mismatched one is not applied either
            {"eos": [stats_state], "xrp": [types_state]},
        ):
            with pytest.raises(AnalysisError):
                fold_states(states, targets)
        for (target,) in targets.values():
            assert target.finalize().action_count == 0
        fold_states({"eos": [stats_state]}, targets)
        assert targets["eos"][0].finalize() == scanned[0].finalize()

    def test_run_sharded_empty_frame(self):
        result = run_sharded(TxFrame(), lambda: [TxStatsAccumulator()], shards=4)
        assert result.rows_processed == 0
        assert result["tx_stats"].action_count == 0

    def test_static_clusterer_matches_live(self, combined_frame, xrp_clusterer):
        addresses = [
            combined_frame.accounts.values[code]
            for code in set(combined_frame.sender_code)
        ]
        static = StaticAccountClusterer.from_clusterer(xrp_clusterer, addresses)
        for address in addresses:
            assert static.cluster_of(address) == xrp_clusterer.cluster_of(address)
        assert static.cluster_of("rUnknownAddress") == "rUnknownAddress"
