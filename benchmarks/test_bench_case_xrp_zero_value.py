"""§4.3 case study — zero-value transactions on the XRP ledger.

Regenerates the spam-wave statistics: a single parent account activates a
swarm of accounts that shuffle a worthless BTC IOU among themselves, the
Payment series spikes during the waves while carrying no value, and only a
tiny fraction of payments move tokens with a positive XRP exchange rate.
Benchmarks the per-payment value attribution over the full stream.
"""

from repro.analysis.throughput import DEFAULT_BIN_SECONDS, ThroughputSeriesAccumulator
from repro.analysis.value import ValueDistributionAccumulator, XrpDecompositionAccumulator
from repro.common.clock import timestamp_from_iso
from repro.common.columns import TxFrame
from repro.xrp.workload import SPAM_PARENT


def test_case_spam_wave_payments_carry_no_value(benchmark, xrp_records, xrp_generator, xrp_oracle):
    spam_accounts = set(xrp_generator.spam_accounts)
    spam_payments = [
        record
        for record in xrp_records
        if record.type == "Payment" and record.success and record.sender in spam_accounts
    ]

    # The per-payment value attribution: a payment is counted when its asset
    # has a positive XRP rate.
    valued = benchmark(
        ValueDistributionAccumulator(xrp_oracle).run, TxFrame.from_records(spam_payments)
    ).count
    print("\n§4.3 — XRP payment spam:")
    print(f"  spam swarm size:                   {len(spam_accounts)} accounts")
    print(f"  spam payments recorded:            {len(spam_payments)}")
    print(f"  spam payments carrying value:      {valued}")
    assert len(spam_payments) > 500
    assert valued == 0
    # Every swarm account was activated by the same parent (§4.3).
    registry = xrp_generator.ledger.accounts
    assert all(registry.get(address).parent == SPAM_PARENT for address in spam_accounts)


def payment_keys(frame):
    """Every row of a payments-only frame is one category, ``Payment``."""
    return (frame.type_code,), lambda code: "Payment"


def test_case_spam_waves_visible_in_payment_series(xrp_records, bench_scenario):
    frame = TxFrame.from_records([record for record in xrp_records if record.type == "Payment"])
    series = ThroughputSeriesAccumulator(
        payment_keys, DEFAULT_BIN_SECONDS, frame.min_timestamp(), frame.max_timestamp()
    ).run(frame)
    payments = series.series_for("Payment")
    wave_bins = []
    calm_bins = []
    for index, count in enumerate(payments):
        start = series.bin_start(index)
        in_wave = any(
            timestamp_from_iso(wave_start) <= start < timestamp_from_iso(wave_end)
            for wave_start, wave_end, _ in bench_scenario.xrp.spam_waves
        )
        (wave_bins if in_wave else calm_bins).append(count)
    wave_avg = sum(wave_bins) / len(wave_bins)
    calm_avg = sum(calm_bins) / len(calm_bins)
    print(f"\n§4.3 — Payment rate inside vs outside spam waves: {wave_avg:.1f} vs {calm_avg:.1f} per bin")
    # Payments per bin at least double during the waves (Figure 3c's spikes).
    assert wave_avg > 1.8 * calm_avg


def test_case_one_in_n_payments_with_value(benchmark, xrp_frame, xrp_oracle):
    decomposition = benchmark(XrpDecompositionAccumulator(xrp_oracle).run, xrp_frame)
    one_in_n = (
        1.0 / decomposition.value_bearing_payment_fraction
        if decomposition.value_bearing_payment_fraction
        else float("inf")
    )
    print(f"\n§4.3 — 1 in {one_in_n:.0f} successful payments involves valued tokens (paper: 1 in 19)")
    assert 8.0 <= one_in_n <= 60.0
