"""Satellite property: sharded codec round-trips ≡ one serial pass.

For every sketch-backed accumulator, Hypothesis deals the frame's rows
into random shards, scans each shard independently, round-trips every
shard's pre-finalize state through the snapshot codec
(:mod:`repro.common.statecodec`), and restores the shards into one fresh
accumulator in a *shuffled* order — the figures must equal a single
uninterrupted pass, in both stats modes.

This is the process-sharding contract the parallel engine and the
out-of-core chunk folds rely on: sketch state is a pure function of the
scanned multiset (HLL hash set, quantile buckets) or exact below capacity
(heavy hitters at paper scale), so shard order must never show through.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import replace
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.engine import BLOCK_ROWS, TxStatsAccumulator, scan_blocks
from repro.analysis.value import ExchangeRateOracle, ValueDistributionAccumulator
from repro.common import statecodec, statsmode
from repro.common.columns import TxFrame

SHARD_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def shard_frame(eos_records, tezos_records, xrp_records):
    records = eos_records[::40] + tezos_records[::10] + xrp_records[::20]
    return TxFrame.from_records(records)


@pytest.fixture(scope="module")
def shard_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


def _sketch_backed_accumulators(oracle, mode):
    # The pair profiler keeps every receiver (no top-k cut): equal-count
    # receivers rank by first-seen scan order, which random sharding is
    # free to permute, so the cut boundary is the one shard-order-sensitive
    # output in the suite.  With no cut, ``_canonical`` sorting makes the
    # profiles a pure function of the pair multiset.
    return [
        TxStatsAccumulator(stats=mode),
        AccountActivityAccumulator("sender", 10, stats=mode),
        AccountActivityAccumulator("receiver", 10, stats=mode),
        SenderReceiverPairsAccumulator(5, 1 << 20, stats=mode),
        SenderCountsAccumulator(stats=mode),
        ValueDistributionAccumulator(oracle, stats=mode),
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
                replace(
                    profile,
                    stdev_per_receiver=math.sqrt(variance),
                    top_receivers=tuple(sorted(profile.top_receivers)),
                )
            )
        return canonical
    return figures


def _scan(accumulators, frame, rows):
    consumers = [accumulator.bind_batch(frame) for accumulator in accumulators]
    for block in scan_blocks(rows, BLOCK_ROWS):
        for consume in consumers:
            consume(block)


@SHARD_SETTINGS
@given(
    seed=st.integers(0, 2**31 - 1),
    shard_count=st.integers(1, 5),
    mode=st.sampled_from([statsmode.EXACT, statsmode.SKETCH]),
)
def test_random_shard_order_roundtrip_equals_serial(
    shard_frame, shard_oracle, seed, shard_count, mode
):
    rng = Random(seed)
    total = len(shard_frame)
    shard_rows = [[] for _ in range(shard_count)]
    for row in range(total):
        shard_rows[rng.randrange(shard_count)].append(row)
    serial = _sketch_backed_accumulators(shard_oracle, mode)
    _scan(serial, shard_frame, range(total))
    expected = [
        _canonical(accumulator, accumulator.finalize())
        for accumulator in serial
    ]

    payload_sets = []
    for rows in shard_rows:
        shard = _sketch_backed_accumulators(shard_oracle, mode)
        _scan(shard, shard_frame, array("q", rows))
        payload_sets.append(
            statecodec.decode(
                statecodec.encode(
                    [accumulator.export_state() for accumulator in shard]
                )
            )
        )
    rng.shuffle(payload_sets)  # restore order must not matter
    merged = _sketch_backed_accumulators(shard_oracle, mode)
    for accumulator in merged:
        accumulator.bind_batch(shard_frame)
    for payloads in payload_sets:
        for accumulator, payload in zip(merged, payloads):
            accumulator.restore_state(payload)
    for accumulator, expect in zip(merged, expected):
        assert _canonical(accumulator, accumulator.finalize()) == expect, (
            accumulator.name,
            mode,
        )
