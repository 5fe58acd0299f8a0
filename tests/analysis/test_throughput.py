"""Tests for throughput binning and TPS (Figure 3)."""

import pytest

from repro.common.clock import SECONDS_PER_HOUR, timestamp_from_iso
from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId, TransactionRecord
from repro.analysis.classify import classify_eos_category
from repro.analysis.engine import Accumulator
from repro.analysis.throughput import (
    DEFAULT_BIN_SECONDS,
    ThroughputSeriesAccumulator,
    bin_throughput,
    scaled_tps,
    spike_ratio,
    transactions_per_second,
)


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


class TestBinning:
    def test_default_bin_is_six_hours(self):
        assert DEFAULT_BIN_SECONDS == 6 * SECONDS_PER_HOUR

    def test_counts_fall_into_correct_bins(self):
        records = [record_at(0.0), record_at(10.0), record_at(7_000.0)]
        series = bin_throughput(records, lambda record: "all", bin_seconds=3_600.0)
        assert series.bin_count == 2
        assert series.total_series() == [2, 1]
        assert series.bin_start(1) == 3_600.0

    def test_categories_tracked_separately(self):
        records = [record_at(0.0, "a"), record_at(1.0, "b"), record_at(2.0, "a")]
        series = bin_throughput(records, lambda record: record.type, bin_seconds=10.0)
        assert series.series_for("a") == [2]
        assert series.series_for("b") == [1]
        assert series.totals() == {"a": 2, "b": 1}

    def test_records_outside_window_ignored(self):
        records = [record_at(5.0), record_at(500.0)]
        series = bin_throughput(records, lambda record: "all", bin_seconds=10.0, start=0.0, end=20.0)
        assert sum(series.total_series()) == 1

    def test_peak_bin(self):
        records = [record_at(1.0), record_at(2.0), record_at(100.0)]
        series = bin_throughput(records, lambda record: "all", bin_seconds=10.0)
        index, count = series.peak_bin()
        assert index == 0
        assert count == 2

    def test_average_per_bin(self):
        records = [record_at(t) for t in (0.0, 1.0, 11.0)]
        series = bin_throughput(records, lambda record: "all", bin_seconds=10.0)
        assert series.average_per_bin() == pytest.approx(1.5)
        assert series.average_per_bin("all") == pytest.approx(1.5)

    def test_empty_input_rejected(self):
        with pytest.raises(AnalysisError):
            bin_throughput([], lambda record: "all")

    def test_invalid_bin_size(self):
        with pytest.raises(AnalysisError):
            bin_throughput([record_at(0.0)], lambda record: "all", bin_seconds=0.0)


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
        series = bin_throughput(
            self.UNSORTED, lambda record: record.type, bin_seconds=3_600.0
        )
        assert series.categories == ("a", "b", "c")
        assert series.bins == [{"a": 1, "b": 1}, {"b": 1}, {"c": 1, "a": 1}]

    def test_both_kernels_and_both_categorizer_forms_agree_when_unsorted(self):
        frame = TxFrame.from_records(self.UNSORTED)
        assert not frame.timestamps_sorted

        def key_columns(frame):
            return (frame.type_code,), frame.types.values.__getitem__

        def row_categorizer(frame):
            return lambda row: frame.types.values[frame.type_code[row]]

        results = []
        for form in ({"key_columns": key_columns}, {"categorizer": row_categorizer}):
            for bind in (
                ThroughputSeriesAccumulator.bind_batch,
                Accumulator.bind_batch,  # the row-step reference
            ):
                accumulator = ThroughputSeriesAccumulator(
                    bin_seconds=3_600.0, start=10.0, end=7_400.0, **form
                )
                bind(accumulator, frame)(range(len(frame)))
                results.append(accumulator.finalize())
        assert all(result == results[0] for result in results)
        assert results[0].categories == ("a", "b", "c")

    def test_merge_order_does_not_reorder_categories(self):
        frame = TxFrame.from_records(self.UNSORTED)

        def key_columns(frame):
            return (frame.type_code,), frame.types.values.__getitem__

        def scan(rows):
            accumulator = ThroughputSeriesAccumulator(
                key_columns=key_columns, bin_seconds=3_600.0, start=10.0, end=7_400.0
            )
            accumulator.bind_batch(frame)(rows)
            return accumulator

        head, tail = scan(range(0, 2)), scan(range(2, 5))
        head.restore_state(tail.export_state())
        assert head.finalize() == scan(range(5)).finalize()


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
        series = bin_throughput(records, lambda record: "all", bin_seconds=50.0)
        assert spike_ratio(series, split_timestamp=50.0) >= 5.0

    def test_requires_both_sides(self):
        records = [record_at(float(t)) for t in range(10)]
        series = bin_throughput(records, lambda record: "all", bin_seconds=5.0)
        with pytest.raises(AnalysisError):
            spike_ratio(series, split_timestamp=-100.0)


class TestFigure3Shapes:
    def test_eos_token_category_spikes_after_eidos_launch(self, eos_records, scenario):
        series = bin_throughput(
            eos_records,
            classify_eos_category,
            bin_seconds=DEFAULT_BIN_SECONDS,
        )
        launch = scenario.eos.eidos_launch_timestamp
        ratio = spike_ratio(series, launch)
        assert ratio > 5.0

    def test_tezos_endorsement_series_is_stable(self, tezos_records):
        series = bin_throughput(
            tezos_records,
            lambda record: "Endorsement" if record.type == "Endorsement" else "Other",
            bin_seconds=DEFAULT_BIN_SECONDS,
        )
        endorsements = series.series_for("Endorsement")
        interior = endorsements[1:-1]  # first/last bins may be partial
        assert interior
        assert max(interior) <= 2 * min(value for value in interior if value > 0)

    def test_xrp_payment_series_shows_spam_wave(self, xrp_records, scenario):
        series = bin_throughput(
            xrp_records,
            lambda record: record.type if record.success else "Unsuccessful",
            bin_seconds=DEFAULT_BIN_SECONDS,
        )
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
