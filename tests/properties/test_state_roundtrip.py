"""Property test: export_state → codec → restore_state ≡ one serial pass.

For every accumulator across the nine analysis modules, Hypothesis drives
random row selections and split points: scanning the selection's prefix,
round-tripping the pre-finalize state through the snapshot codec
(:mod:`repro.common.statecodec`), restoring it into freshly bound
accumulators and scanning the suffix must produce figures identical to one
uninterrupted pass — bit-for-bit for the float-summing figures (the serial
Figure 12 contract).  Both scan kernels initialise one state shape, so the
prefix may be scanned by either (the vectorized ``bind_batch`` or the
row-step reference) and restore into the other.

This is the end-to-end guarantee the versioned checkpoint format rests on;
the checkpoint store tests cover the durable-file half.  The accumulators
whose state is a function of the scanned multiset are also dealt into
random shards and restored in *shuffled* order — the process-sharding
contract of the parallel engine and the out-of-core chunk folds.
"""

from __future__ import annotations

import math
from array import array
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.clustering import AccountClusterer
from repro.analysis.engine import (
    BLOCK_ROWS,
    Accumulator,
    TxStatsAccumulator,
    bind_scan,
    scan_blocks,
)
from repro.analysis.value import ExchangeRateOracle, ValueDistributionAccumulator
from repro.common import statecodec
from repro.common.columns import TxFrame

from tests.properties.test_kernel_parity import (
    _all_accumulators,
    _select_view,
    selections,
)

#: How a test binds an accumulator: the shipped kernel, or the reference
#: reached through the unbound base-class default.
KERNELS = {
    "batch": lambda accumulator, frame: accumulator.bind_batch(frame),
    "rowstep": lambda accumulator, frame: Accumulator.bind_batch(accumulator, frame),
}


@pytest.fixture(scope="module")
def parity_frame(eos_records, tezos_records, xrp_records):
    """Strided multi-chain sample (same shape the parity sweep uses)."""
    records = eos_records[::40] + tezos_records[::10] + xrp_records[::20]
    return TxFrame.from_records(records)


@pytest.fixture(scope="module")
def parity_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def parity_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)

ROUNDTRIP_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

@st.composite
def roundtrip_cases(draw):
    return {
        "selection": draw(selections()),
        "split": draw(st.floats(0.0, 1.0)),
        "prefix_kernel": draw(st.sampled_from(sorted(KERNELS))),
    }


def _scan(accumulators, frame, rows, kernel="batch") -> None:
    """Scan ``rows`` without finalizing — snapshots must be pre-finalize."""
    consumers = [KERNELS[kernel](accumulator, frame) for accumulator in accumulators]
    for block in scan_blocks(rows, BLOCK_ROWS):
        for consume in consumers:
            consume(block)


def _snapshot(accumulators):
    """Export every state through the full codec: export → bytes → decode.

    Always pre-finalize — the only shape a payload has; that ``finalize``
    leaves ``export_state()`` alone is ``tests/test_one_fold.py``'s guard.
    """
    return statecodec.decode(
        statecodec.encode([accumulator.export_state() for accumulator in accumulators])
    )


@ROUNDTRIP_SETTINGS
@given(case=roundtrip_cases())
def test_codec_roundtrip_equals_serial_pass(
    parity_frame, parity_oracle, parity_clusterer, case
):
    def fresh():
        return _all_accumulators(parity_frame, parity_oracle, parity_clusterer)

    rows = _select_view(parity_frame, case["selection"]).rows
    split = int(len(rows) * case["split"])
    serial = fresh()
    _scan(serial, parity_frame, rows)
    prefix = fresh()
    _scan(prefix, parity_frame, rows[:split], case["prefix_kernel"])
    base = fresh()
    drive = bind_scan(base, parity_frame)
    for target, payload in zip(base, _snapshot(prefix)):
        target.restore_state(payload)
    drive(rows[split:])
    for accumulator, expected in zip(base, serial):
        assert accumulator.finalize() == expected.finalize(), (accumulator.name, case)


@ROUNDTRIP_SETTINGS
@given(case=roundtrip_cases())
def test_double_restore_equals_serial_pass(
    parity_frame, parity_oracle, parity_clusterer, case
):
    """Two restored segments (the parallel catch-up shape) replay serially."""

    def fresh():
        return _all_accumulators(parity_frame, parity_oracle, parity_clusterer)

    rows = _select_view(parity_frame, case["selection"]).rows
    split = int(len(rows) * case["split"])
    serial = fresh()
    _scan(serial, parity_frame, rows)
    segments = []
    for segment_rows in (rows[:split], rows[split:]):
        scanned = fresh()
        _scan(scanned, parity_frame, segment_rows, case["prefix_kernel"])
        segments.append(_snapshot(scanned))
    base = fresh()
    for accumulator in base:
        accumulator.bind_batch(parity_frame)
    for payloads in segments:  # restore strictly in row order
        for target, payload in zip(base, payloads):
            target.restore_state(payload)
    for accumulator, reference in zip(base, serial):
        result = accumulator.finalize()
        expected = reference.finalize()
        if accumulator.name == "value_flows":
            # Restoring two independently scanned segments adds segment
            # subtotals — the documented shard-merge float caveat.
            assert [
                (f.sender_cluster, f.receiver_cluster, f.currency, f.payment_count)
                for f in result.flows
            ] == [
                (f.sender_cluster, f.receiver_cluster, f.currency, f.payment_count)
                for f in expected.flows
            ]
            assert result.total_xrp_value == pytest.approx(
                expected.total_xrp_value, rel=1e-9
            )
        elif accumulator.name == "airdrop":
            # Rates divide float sums; compare the exact integer parts.
            assert result.claim_count == expected.claim_count
            assert result.total_actions == expected.total_actions
            assert result.post_launch_actions == expected.post_launch_actions
            assert result.unique_claimers == expected.unique_claimers
        else:
            assert result == expected, (accumulator.name, case)


SHARD_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _multiset_accumulators(oracle):
    # The pair profiler keeps every receiver (no top-k cut): equal-count
    # receivers rank by first-seen scan order, which random sharding is
    # free to permute, so the cut boundary is the one shard-order-sensitive
    # output here.  With no cut, ``_canonical`` sorting makes the profiles
    # a pure function of the pair multiset.
    return [
        TxStatsAccumulator(),
        AccountActivityAccumulator("sender", 10),
        AccountActivityAccumulator("receiver", 10),
        SenderReceiverPairsAccumulator(5, 1 << 20),
        SenderCountsAccumulator(),
        ValueDistributionAccumulator(oracle),
    ]


def _canonical(accumulator, figures):
    if isinstance(accumulator, SenderReceiverPairsAccumulator):
        # Recompute the fan-out stdev over *sorted* counts: the production
        # finalizer sums squared deviations in dict-iteration order, which
        # sharding permutes, moving the float result by an ULP.
        canonical = []
        for profile in figures:
            counts = sorted(count for _, count, _ in profile.top_receivers)
            mean = profile.mean_per_receiver
            variance = (
                sum((count - mean) ** 2 for count in counts) / len(counts)
                if counts
                else 0.0
            )
            canonical.append(
                profile._replace(
                    stdev_per_receiver=math.sqrt(variance),
                    top_receivers=tuple(sorted(profile.top_receivers)),
                )
            )
        return canonical
    return figures


@SHARD_SETTINGS
@given(seed=st.integers(0, 2**31 - 1), shard_count=st.integers(1, 5))
def test_random_shards_restored_in_shuffled_order_equal_serial_pass(
    parity_frame, parity_oracle, seed, shard_count
):
    rng = Random(seed)
    total = len(parity_frame)
    shard_rows = [[] for _ in range(shard_count)]
    for row in range(total):
        shard_rows[rng.randrange(shard_count)].append(row)
    serial = _multiset_accumulators(parity_oracle)
    _scan(serial, parity_frame, range(total))
    expected = [
        _canonical(accumulator, accumulator.finalize()) for accumulator in serial
    ]

    payload_sets = []
    for rows in shard_rows:
        shard = _multiset_accumulators(parity_oracle)
        _scan(shard, parity_frame, array("q", rows))
        payload_sets.append(_snapshot(shard))
    rng.shuffle(payload_sets)  # restore order must not matter
    merged = _multiset_accumulators(parity_oracle)
    for accumulator in merged:
        accumulator.bind_batch(parity_frame)
    for payloads in payload_sets:
        for accumulator, payload in zip(merged, payloads):
            accumulator.restore_state(payload)
    for accumulator, expect in zip(merged, expected):
        assert _canonical(accumulator, accumulator.finalize()) == expect, (
            accumulator.name
        )
