"""Tests for throughput binning and TPS (Figure 3)."""

import pytest

from repro.common.clock import SECONDS_PER_HOUR, timestamp_from_iso
from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.engine import Accumulator
from repro.analysis.report import FIGURE3_CATEGORIZERS
from repro.analysis.throughput import (
    _SESSION_TOKEN,
    DEFAULT_BIN_SECONDS,
    ThroughputSeries,
    ThroughputSeriesAccumulator,
    _categorizer_id,
    scaled_tps,
    spike_ratio,
    transactions_per_second,
)
from tests.support import run_on_records


def record_at(timestamp, type_="transfer", chain=ChainId.EOS):
    return TransactionRecord(
        chain=chain,
        transaction_id=f"tx{timestamp}",
        block_height=1,
        timestamp=timestamp,
        type=type_,
        sender="alice",
        receiver="bob",
    )


def one_category(frame):
    """Key columns that put every row in one category, ``all``."""
    return (frame.chain_code,), lambda code: "all"


def by_type(frame):
    """Key columns that label a row with its type."""
    return (frame.type_code,), frame.types.values.__getitem__


def binned(records, bin_seconds, start, end=None, key_columns=one_category):
    accumulator = ThroughputSeriesAccumulator(key_columns, bin_seconds, start, end)
    return run_on_records(accumulator, records)


class TestBinning:
    def test_default_bin_is_six_hours(self):
        assert DEFAULT_BIN_SECONDS == 6 * SECONDS_PER_HOUR

    def test_counts_fall_into_correct_bins(self):
        records = [record_at(0.0), record_at(10.0), record_at(7_000.0)]
        series = binned(records, 3_600.0, start=0.0, end=7_000.0)
        assert series.bin_count == 2
        assert series.total_series() == [2, 1]
        assert series.bin_start(1) == 3_600.0

    def test_categories_tracked_separately(self):
        records = [record_at(0.0, "a"), record_at(1.0, "b"), record_at(2.0, "a")]
        series = binned(records, 10.0, start=0.0, end=2.0, key_columns=by_type)
        assert series.series_for("a") == [2]
        assert series.series_for("b") == [1]
        assert series.totals() == {"a": 2, "b": 1}

    def test_records_outside_window_ignored(self):
        records = [record_at(5.0), record_at(500.0)]
        series = binned(records, 10.0, start=0.0, end=20.0)
        assert sum(series.total_series()) == 1

    def test_peak_bin(self):
        records = [record_at(1.0), record_at(2.0), record_at(100.0)]
        series = binned(records, 10.0, start=1.0, end=100.0)
        index, count = series.peak_bin()
        assert index == 0
        assert count == 2

    def test_average_per_bin(self):
        records = [record_at(t) for t in (0.0, 1.0, 11.0)]
        series = binned(records, 10.0, start=0.0, end=11.0)
        assert series.average_per_bin() == pytest.approx(1.5)
        assert series.average_per_bin("all") == pytest.approx(1.5)

    def test_empty_input_rejected(self):
        # No rows and no window end: a series of no bins, which has no peak.
        series = binned([], DEFAULT_BIN_SECONDS, start=0.0)
        assert series == ThroughputSeries(DEFAULT_BIN_SECONDS, 0.0, ())
        with pytest.raises(AnalysisError):
            series.peak_bin()

    def test_invalid_bin_size(self):
        with pytest.raises(AnalysisError):
            ThroughputSeriesAccumulator(one_category, bin_seconds=0.0)
        with pytest.raises(AnalysisError):
            ThroughputSeriesAccumulator(one_category, start=10.0, end=5.0)


class TestCategoryOrder:
    """``categories`` is first-seen order over bins in *time* order.

    Regression: the row-step kernel used to record categories in row order,
    so on a scan that is not time-sorted it disagreed with the key-columns
    kernel (and a shard merge could reorder the tuple).
    """

    # Rows arrive late-bin first: row order says (c, a, b), time order (a, b, c).
    UNSORTED = [
        record_at(7_300.0, "c"),
        record_at(10.0, "a"),
        record_at(3_700.0, "b"),
        record_at(20.0, "b"),
        record_at(7_400.0, "a"),
    ]

    def test_unsorted_records_list_categories_in_time_order(self):
        series = binned(self.UNSORTED, 3_600.0, 10.0, 7_400.0, key_columns=by_type)
        assert series.categories == ("a", "b", "c")
        assert series.bins == [{"a": 1, "b": 1}, {"b": 1}, {"c": 1, "a": 1}]

    def test_both_kernels_agree_when_unsorted(self):
        frame = TxFrame.from_records(self.UNSORTED)
        assert not frame.timestamps_sorted
        results = []
        for bind in (
            ThroughputSeriesAccumulator.bind_batch,
            Accumulator.bind_batch,  # the row-step reference
        ):
            accumulator = ThroughputSeriesAccumulator(
                by_type, bin_seconds=3_600.0, start=10.0, end=7_400.0
            )
            bind(accumulator, frame)(range(len(frame)))
            results.append(accumulator.finalize())
        assert results[0] == results[1]
        assert results[0].categories == ("a", "b", "c")

    def test_merge_order_does_not_reorder_categories(self):
        frame = TxFrame.from_records(self.UNSORTED)

        def scan(rows):
            accumulator = ThroughputSeriesAccumulator(
                by_type, bin_seconds=3_600.0, start=10.0, end=7_400.0
            )
            accumulator.bind_batch(frame)(rows)
            return accumulator

        head, tail = scan(range(0, 2)), scan(range(2, 5))
        head.restore_state(tail.export_state())
        assert head.finalize() == scan(range(5)).finalize()


class TestCategorizerIdentity:
    """A series' config signature names its key-columns factory."""

    def test_a_module_level_factory_is_its_qualified_name(self):
        assert _categorizer_id(by_type) == f"{__name__}.by_type"
        identities = {
            chain.value: _categorizer_id(factory)
            for chain, factory in FIGURE3_CATEGORIZERS.items()
        }
        assert identities == {
            "eos": "repro.analysis.report.eos_figure3_key_columns",
            "tezos": "repro.analysis.report.tezos_figure3_key_columns",
            "xrp": "repro.analysis.report.xrp_figure3_key_columns",
        }

    def test_two_closures_from_one_maker_get_distinct_session_ids(self):
        def labelled(label):
            def key_columns(frame):
                return (frame.chain_code,), lambda code: label

            return key_columns

        first, second = labelled("a"), labelled("b")
        assert first.__qualname__ == second.__qualname__
        identities = {_categorizer_id(first), _categorizer_id(second)}
        assert len(identities) == 2
        for identity in identities:
            assert identity.startswith(f"unprovable:{__name__}.")
            assert identity.endswith(f":{_SESSION_TOKEN}")
        # So their series never fold into each other's state.
        assert (
            ThroughputSeriesAccumulator(first).config_signature()
            != ThroughputSeriesAccumulator(second).config_signature()
        )


class TestTps:
    def test_basic_tps(self):
        assert transactions_per_second(1_000, 100.0) == 10.0

    def test_scaled_tps(self):
        # At 1% of real volume, measured 0.2 TPS corresponds to 20 TPS.
        assert scaled_tps(1_728, 86_400.0, scale_factor=0.001) == pytest.approx(20.0)

    def test_invalid_inputs(self):
        with pytest.raises(AnalysisError):
            transactions_per_second(10, 0.0)
        with pytest.raises(AnalysisError):
            scaled_tps(10, 10.0, 0.0)


class TestSpikeRatio:
    def test_detects_traffic_increase(self):
        records = [record_at(float(t)) for t in range(10)]
        records += [record_at(100.0 + t * 0.1) for t in range(100)]
        series = binned(records, 50.0, start=0.0, end=109.9)
        assert spike_ratio(series, split_timestamp=50.0) >= 5.0

    def test_requires_both_sides(self):
        records = [record_at(float(t)) for t in range(10)]
        series = binned(records, 5.0, start=0.0, end=9.0)
        with pytest.raises(AnalysisError):
            spike_ratio(series, split_timestamp=-100.0)


class TestFigure3Shapes:
    def test_eos_token_category_spikes_after_eidos_launch(self, eos_figures, scenario):
        series = eos_figures["throughput_series"]
        launch = scenario.eos.eidos_launch_timestamp
        ratio = spike_ratio(series, launch)
        assert ratio > 5.0

    def test_tezos_endorsement_series_is_stable(self, tezos_figures):
        series = tezos_figures["throughput_series"]
        endorsements = series.series_for("Endorsement")
        interior = endorsements[1:-1]  # first/last bins may be partial
        assert interior
        assert max(interior) <= 2 * min(value for value in interior if value > 0)

    def test_xrp_payment_series_shows_spam_wave(self, xrp_figures, scenario):
        series = xrp_figures["throughput_series"]
        payments = series.series_for("Payment")
        wave_end = timestamp_from_iso(scenario.xrp.spam_waves[0][1])
        inside = [
            count
            for index, count in enumerate(payments)
            if series.bin_start(index) < wave_end
        ]
        outside = [
            count
            for index, count in enumerate(payments)
            if series.bin_start(index) >= wave_end
        ]
        if inside and outside:
            assert max(inside) > max(outside)
