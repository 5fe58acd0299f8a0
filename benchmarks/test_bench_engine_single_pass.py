"""The engine's headline claim: every figure in one pass per chain.

The seed computed each figure with its own full iteration over the record
list.  This benchmark measures, at ``medium_scenario`` scale, the seed's
**sum of individual analysis passes** (the frozen implementations in
:mod:`tests.support.legacy`) against the streaming engine's combined
report (:func:`repro.analysis.report.full_report`, one iteration per chain
over the columnar frame) producing the same figure set — Figure 1 types,
Figure 2 counts/window/TPS, Figure 3 throughput series, top accounts and
the per-chain case studies.  The acceptance bar is a ≥ 2× speed-up.
"""

from __future__ import annotations

import time

from tests.support import legacy
from repro.analysis.classify import classify_eos_category
from repro.analysis.report import full_report
from repro.common.records import ChainId

#: Number of timed rounds; the minimum is reported (steady-state cost).
ROUNDS = 3


def _seed_stats_scans(records):
    """The seed report's dedicated scans: window bounds + distinct tx ids."""
    timestamps = [record.timestamp for record in records]
    duration = (max(timestamps) - min(timestamps)) if timestamps else 0.0
    transactions = len({record.transaction_id for record in records})
    return duration, transactions


def _legacy_eos_passes(records):
    return (
        legacy.type_distribution(records),
        legacy.category_distribution(records),
        legacy.bin_throughput(records, classify_eos_category),
        legacy.top_senders(records, 10),
        legacy.top_receivers(records, 10),
        legacy.analyze_wash_trading(records),
        _seed_stats_scans(records),
    )


def _legacy_tezos_passes(records):
    return (
        legacy.type_distribution(records),
        legacy.tezos_category_distribution(records),
        legacy.bin_throughput(records, lambda record: record.type),
        legacy.top_senders(records, 10),
        _seed_stats_scans(records),
    )


def _xrp_categorizer(record):
    if not record.success:
        return "Unsuccessful"
    if record.type in ("Payment", "OfferCreate"):
        return record.type
    return "Others"


def _legacy_xrp_passes(records, oracle, clusterer):
    return (
        legacy.type_distribution(records),
        legacy.bin_throughput(records, _xrp_categorizer),
        legacy.top_senders(records, 10),
        legacy.decompose(records, oracle),
        legacy.aggregate_value_flows(records, clusterer, oracle),
        _seed_stats_scans(records),
    )


def _time(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_engine_single_pass_beats_seed_passes_2x(
    eos_records,
    tezos_records,
    xrp_records,
    eos_frame,
    tezos_frame,
    xrp_frame,
    xrp_oracle,
    xrp_clusterer,
):
    def legacy_combined():
        _legacy_eos_passes(eos_records)
        _legacy_tezos_passes(tezos_records)
        _legacy_xrp_passes(xrp_records, xrp_oracle, xrp_clusterer)

    def engine_combined():
        return (
            full_report(eos_frame),
            full_report(tezos_frame),
            full_report(xrp_frame, oracle=xrp_oracle, clusterer=xrp_clusterer),
        )

    legacy_seconds = _time(legacy_combined)
    engine_seconds = _time(engine_combined)
    rows = len(eos_frame) + len(tezos_frame) + len(xrp_frame)
    speedup = legacy_seconds / engine_seconds
    print(
        f"\nCombined report over {rows:,} rows: "
        f"seed sum-of-passes {legacy_seconds:.3f}s, "
        f"single-pass engine {engine_seconds:.3f}s, speed-up {speedup:.2f}x"
    )
    assert speedup >= 2.0, (
        f"single-pass engine must be >= 2x faster than the seed's sum of "
        f"individual passes, got {speedup:.2f}x"
    )


def test_engine_report_matches_legacy_figures(
    eos_records, eos_frame, xrp_records, xrp_frame, xrp_oracle
):
    """The one-pass report reproduces the seed's per-figure results."""
    eos = full_report(eos_frame).chains[ChainId.EOS]
    assert eos["type_distribution"] == legacy.type_distribution(eos_records)
    assert eos["category_distribution"] == legacy.category_distribution(eos_records)
    assert eos["top_senders"] == legacy.top_senders(eos_records, 10)
    assert eos["top_receivers"] == legacy.top_receivers(eos_records, 10)
    assert eos["wash_trading"] == legacy.analyze_wash_trading(eos_records)
    assert eos["throughput_series"] == legacy.bin_throughput(
        eos_records, classify_eos_category
    )
    duration, transactions = _seed_stats_scans(eos_records)
    assert eos["tx_stats"].duration_seconds == duration
    assert eos["tx_stats"].transaction_count == transactions

    xrp = full_report(xrp_frame, oracle=xrp_oracle).chains[ChainId.XRP]
    assert xrp["xrp_decomposition"] == legacy.decompose(xrp_records, xrp_oracle)
    assert xrp["throughput_series"] == legacy.bin_throughput(
        xrp_records, _xrp_categorizer
    )


def test_engine_combined_report_benchmark(
    benchmark, eos_frame, tezos_frame, xrp_frame, xrp_oracle, xrp_clusterer
):
    """Tracked wall time of the full single-pass report across all chains."""

    def combined():
        return (
            full_report(eos_frame),
            full_report(tezos_frame),
            full_report(xrp_frame, oracle=xrp_oracle, clusterer=xrp_clusterer),
        )

    reports = benchmark(combined)
    assert set(reports[0].chains) == {ChainId.EOS}
    summary = reports[2].summary().chains[ChainId.XRP]
    assert summary.value_share is not None and 0.0 < summary.value_share < 0.2
