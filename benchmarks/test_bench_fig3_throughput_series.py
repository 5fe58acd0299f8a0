"""Figure 3 — throughput across time (6-hour bins) for the three chains.

Regenerates the three time-series panels: (a) EOS by application category
with the EIDOS explosion on 2019-11-01, (b) Tezos dominated by a flat
endorsement floor, (c) XRP Payment/OfferCreate with the two payment-spam
waves.  Benchmarks the binning pass over the full benchmark-scale streams.
"""

from repro.analysis.report import FIGURE3_CATEGORIZERS
from repro.analysis.throughput import (
    DEFAULT_BIN_SECONDS,
    ThroughputSeriesAccumulator,
    spike_ratio,
)
from repro.common.clock import date_from_timestamp, timestamp_from_iso
from repro.common.columns import TxFrame
from repro.common.records import ChainId


def figure3_over(frame, key_columns):
    """A Figure 3 series accumulator anchored to ``frame``'s time window."""
    return ThroughputSeriesAccumulator(
        key_columns, DEFAULT_BIN_SECONDS, frame.min_timestamp(), frame.max_timestamp()
    )


def tezos_endorsement_keys(frame):
    """Endorsement / Transaction / Others, by operation kind."""
    kinds = frame.types.values

    def label(code):
        kind = kinds[code]
        return kind if kind in ("Endorsement", "Transaction") else "Others"

    return (frame.type_code,), label


def test_fig3a_eos_throughput_series(benchmark, eos_frame, eos_records, bench_scenario):
    figure = figure3_over(eos_frame, FIGURE3_CATEGORIZERS[ChainId.EOS])
    series = benchmark(figure.run, eos_frame)
    launch = bench_scenario.eos.eidos_launch_timestamp
    ratio = spike_ratio(series, launch)
    peak_index, peak_count = series.peak_bin()
    print(
        f"\nFigure 3a — EOS: {series.bin_count} bins, categories {series.categories};"
        f" post/pre-launch ratio {ratio:.1f}x; peak bin {peak_count} actions on"
        f" {date_from_timestamp(series.bin_start(peak_index))}"
    )
    # Paper: the launch increased traffic by more than an order of magnitude
    # and the peak lies after the launch.
    assert ratio > 8.0
    assert series.bin_start(peak_index) >= launch
    totals = series.totals()
    assert totals["Tokens"] == max(totals.values())
    # Before the launch, betting is the largest category (Figure 3a).
    organic = TxFrame.from_records(
        [record for record in eos_records if record.timestamp < launch]
    )
    pre_launch = figure3_over(organic, FIGURE3_CATEGORIZERS[ChainId.EOS]).run(organic)
    pre_totals = pre_launch.totals()
    assert pre_totals["Betting"] == max(pre_totals.values())


def test_fig3b_tezos_throughput_series(benchmark, tezos_frame):
    figure = figure3_over(tezos_frame, tezos_endorsement_keys)
    series = benchmark(figure.run, tezos_frame)
    totals = series.totals()
    print(f"\nFigure 3b — Tezos totals per category: {totals}")
    assert totals["Endorsement"] > totals["Transaction"] > totals["Others"]
    # The endorsement floor is stable: interior bins never deviate wildly.
    endorsements = series.series_for("Endorsement")[1:-1]
    positive = [count for count in endorsements if count > 0]
    assert positive and max(positive) <= 2 * min(positive)


def test_fig3c_xrp_throughput_series(benchmark, xrp_frame, bench_scenario):
    figure = figure3_over(xrp_frame, FIGURE3_CATEGORIZERS[ChainId.XRP])
    series = benchmark(figure.run, xrp_frame)
    totals = series.totals()
    print(f"\nFigure 3c — XRP totals per category: {totals}")
    assert totals["OfferCreate"] > 0 and totals["Payment"] > 0
    assert totals["Unsuccessful"] > 0
    # The Payment series peaks inside a spam wave; OfferCreate stays flatter.
    payments = series.series_for("Payment")
    peak_index = max(range(len(payments)), key=payments.__getitem__)
    peak_time = series.bin_start(peak_index)
    in_wave = any(
        timestamp_from_iso(start) <= peak_time < timestamp_from_iso(end)
        for start, end, _ in bench_scenario.xrp.spam_waves
    )
    assert in_wave
    offers = series.series_for("OfferCreate")
    interior_offers = [count for count in offers[1:-1] if count > 0]
    assert max(interior_offers) < 6 * (sum(interior_offers) / len(interior_offers))
