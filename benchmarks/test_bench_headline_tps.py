"""Headline throughput numbers — 20 TPS (EOS), 0.08 TPS (Tezos), 19 TPS (XRP).

The introduction quotes the average transactions-per-second each chain
actually carried during the observation window.  The workloads run at a
known fraction of the real per-day volume (the scenario's scale factor), so
the measured TPS scaled back up must land near the paper's numbers, and the
ordering EOS ≈ XRP >> Tezos must hold even before scaling.
"""

from repro.analysis.throughput import scaled_tps, transactions_per_second


def _window_seconds(records):
    timestamps = [record.timestamp for record in records]
    return max(timestamps) - min(timestamps)


def _transaction_count(records):
    return len({record.transaction_id for record in records})


def test_headline_tps_eos(benchmark, eos_records, bench_scenario):
    count = _transaction_count(eos_records)
    duration = _window_seconds(eos_records)
    scale = bench_scenario.scale_factors["eos"]
    tps = benchmark(transactions_per_second, count, duration)
    extrapolated = scaled_tps(count, duration, scale)
    print(f"\nEOS: measured {tps:.4f} TPS at scale {scale:.2e} -> {extrapolated:.1f} TPS full scale (paper: ~20, congestion-limited)")
    assert tps > 0
    # The paper reports ~20 TPS; congestion-mode rejections in the simulated
    # resource market pull the included-transaction rate somewhat below the
    # submitted rate, so accept a band around the target.
    assert 5.0 <= extrapolated <= 45.0


def test_headline_tps_tezos(benchmark, tezos_records, bench_scenario):
    count = len(tezos_records)
    duration = _window_seconds(tezos_records)
    scale = bench_scenario.scale_factors["tezos"]
    tps = benchmark(transactions_per_second, count, duration)
    extrapolated = scaled_tps(count, duration, scale)
    print(f"\nTezos: measured {tps:.5f} TPS at scale {scale:.2e} -> {extrapolated:.3f} TPS full scale (paper: 0.08... 0.45 incl. endorsements)")
    # Figure 2 implies ~0.42 total operations per second (3.3M over 93 days);
    # the 0.08 TPS headline excludes consensus operations.  Accept the band.
    assert 0.05 <= extrapolated <= 1.0


def test_headline_tps_xrp(benchmark, xrp_records, bench_scenario):
    count = len(xrp_records)
    duration = _window_seconds(xrp_records)
    scale = bench_scenario.scale_factors["xrp"]
    tps = benchmark(transactions_per_second, count, duration)
    extrapolated = scaled_tps(count, duration, scale)
    print(f"\nXRP: measured {tps:.4f} TPS at scale {scale:.2e} -> {extrapolated:.1f} TPS full scale (paper: ~19)")
    assert 8.0 <= extrapolated <= 40.0


def test_headline_ordering(eos_records, tezos_records, xrp_records):
    eos_tps = _transaction_count(eos_records) / _window_seconds(eos_records)
    tezos_tps = len(tezos_records) / _window_seconds(tezos_records)
    xrp_tps = len(xrp_records) / _window_seconds(xrp_records)
    # Within the common simulation scale, EOS and XRP are within an order of
    # magnitude of each other and both far above Tezos — the paper's ordering.
    assert eos_tps > tezos_tps
    assert xrp_tps > tezos_tps
