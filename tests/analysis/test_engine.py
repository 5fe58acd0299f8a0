"""Tests for the single-pass analysis engine and its orchestration."""

import pytest

from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    TypeDistributionAccumulator,
)
from repro.analysis.engine import Accumulator, AnalysisEngine, TxStatsAccumulator
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle


def _record(chain=ChainId.EOS, tx="tx1", ts=100.0, **overrides):
    values = dict(
        chain=chain,
        transaction_id=tx,
        block_height=1,
        timestamp=ts,
        type="transfer",
        sender="alice",
        receiver="bob",
        contract="eosio.token",
    )
    values.update(overrides)
    return TransactionRecord(**values)


class CountingAccumulator(Accumulator):
    """Counts rows and how many times bind() ran (pass-count witness)."""

    def __init__(self, name):
        self.name = name
        self.bind_calls = 0

    def bind(self, frame):
        self.bind_calls += 1
        self._rows = []
        return self._rows.append

    def finalize(self):
        return list(self._rows)


class TestAnalysisEngine:
    def test_requires_accumulators(self):
        with pytest.raises(AnalysisError):
            AnalysisEngine([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(AnalysisError):
            AnalysisEngine([TxStatsAccumulator(), TxStatsAccumulator()])

    def test_single_iteration_feeds_every_accumulator(self):
        frame = TxFrame.from_records(
            [_record(tx=f"tx{i}", ts=float(i)) for i in range(5)]
        )
        first = CountingAccumulator("first")
        second = CountingAccumulator("second")
        third = CountingAccumulator("third")
        result = AnalysisEngine([first, second, third]).run(frame)
        assert result.rows_processed == 5
        assert result["first"] == result["second"] == result["third"] == list(range(5))
        assert (first.bind_calls, second.bind_calls, third.bind_calls) == (1, 1, 1)

    def test_runs_on_views(self):
        records = [_record(tx=f"e{i}", ts=float(i)) for i in range(4)] + [
            _record(chain=ChainId.XRP, tx=f"x{i}", ts=float(i), type="Payment")
            for i in range(3)
        ]
        frame = TxFrame.from_records(records)
        engine = AnalysisEngine([TxStatsAccumulator()])
        result = engine.run(frame.chain_view(ChainId.XRP))
        assert result["tx_stats"].action_count == 3

    def test_combined_result_matches_individual_runs(self):
        records = [
            _record(tx=f"tx{i}", ts=float(i), contract="betdicetasks" if i % 2 else "eosio.token")
            for i in range(20)
        ]
        frame = TxFrame.from_records(records)
        combined = AnalysisEngine(
            [TypeDistributionAccumulator(), CategoryDistributionAccumulator(), TxStatsAccumulator()]
        ).run(frame)
        assert combined["type_distribution"] == TypeDistributionAccumulator().run(frame)
        assert combined["category_distribution"] == CategoryDistributionAccumulator().run(frame)
        assert combined["tx_stats"] == TxStatsAccumulator().run(frame)

    def test_tx_stats_distinguishes_transactions_from_actions(self):
        frame = TxFrame.from_records(
            [
                _record(tx="shared", ts=0.0),
                _record(tx="shared", ts=5.0),
                _record(tx="solo", ts=10.0),
            ]
        )
        stats = TxStatsAccumulator().run(frame)
        assert stats.action_count == 3
        assert stats.transaction_count == 2
        assert stats.duration_seconds == 10.0
        assert stats.tps() == pytest.approx(0.2)
        assert stats.tps(count_actions=True) == pytest.approx(0.3)


class TestChainFigures:
    @pytest.fixture(scope="class")
    def small_frames(self, eos_records, tezos_records, xrp_records):
        return (
            TxFrame.from_records(eos_records),
            TxFrame.from_records(tezos_records),
            TxFrame.from_records(xrp_records),
        )

    def test_eos_figures_in_one_pass(self, small_frames, eos_records):
        figures = full_report(small_frames[0]).chains[ChainId.EOS]
        assert figures["tx_stats"].action_count == len(eos_records)
        assert figures.tps > 0
        assert figures["throughput_series"].bin_count > 0
        categories = figures["category_distribution"]
        assert categories["Tokens"] == max(categories.values())
        assert "wash_trading" in figures
        assert figures["top_receivers"] and figures["top_senders"]

    def test_xrp_figures_include_decomposition(self, small_frames, xrp_generator):
        oracle = ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)
        figures = full_report(small_frames[2], oracle=oracle).chains[ChainId.XRP]
        decomposition = figures["xrp_decomposition"]
        assert 0.0 < decomposition.economic_value_share < 0.2
        summary = figures.to_summary()
        assert summary.value_share == pytest.approx(
            decomposition.economic_value_share
        )

    def test_full_report_on_chain_view_excludes_other_chains(
        self, eos_records, tezos_records
    ):
        mixed = TxFrame()
        mixed.extend(eos_records)
        mixed.extend(tezos_records)
        report = full_report(mixed.chain_view(ChainId.EOS))
        assert set(report.chains) == {ChainId.EOS}

    def test_time_window_view_anchors_throughput_to_the_window(self, small_frames):
        frame = small_frames[0]
        bounds = frame.chain_bounds(ChainId.EOS)
        mid = (bounds[0] + bounds[1]) / 2
        window = frame.time_window(mid, bounds[1] + 1.0)
        figures = full_report(window).chains[ChainId.EOS]
        # The series starts at the window's first row, not the frame's, so
        # there are no leading phantom bins diluting per-bin averages.
        assert figures["throughput_series"].start >= mid
        assert figures["throughput_series"].bins[0]
        assert figures["tx_stats"].action_count == len(window)

    def test_full_report_summary_matches_per_chain_reports(
        self, small_frames, eos_records, tezos_records, xrp_records, xrp_generator
    ):
        oracle = ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)
        mixed = TxFrame()
        for records in (eos_records, tezos_records, xrp_records):
            mixed.extend(records)
        report = full_report(mixed, oracle=oracle)
        assert set(report.chains) == {ChainId.EOS, ChainId.TEZOS, ChainId.XRP}
        # A chain's headline row does not depend on what else shares the frame.
        expected = [
            row
            for frame in small_frames
            for row in full_report(frame, oracle=oracle).summary().to_rows()
        ]
        assert report.summary().to_rows() == expected
