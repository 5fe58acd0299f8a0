"""Bounded-memory guarantee: sketch accumulator state is O(1) in rows.

The tentpole claim of sketch mode, asserted with ``tracemalloc``: growing
the workload 4x leaves the traced allocation peak of a sketch-mode
accumulator pass essentially flat, while exact mode's peak grows with the
distinct-key count.  The frame itself and its lazily materialised caches
(ndarray views, the transaction-id hash column) are O(rows) by design and
prewarmed *outside* the traced window — the contract covers accumulator
state, not the dataset.
"""

from __future__ import annotations

import tracemalloc
from random import Random

import pytest

from repro.analysis.accounts import AccountActivityAccumulator, SenderCountsAccumulator
from repro.analysis.engine import TxStatsAccumulator, scan
from repro.analysis.value import ExchangeRateOracle, ValueDistributionAccumulator
from repro.common import statecodec, statsmode
from repro.common.columns import TxFrame
from repro.common.records import ChainId, TransactionRecord

#: 4x row growth with every transaction id and sender distinct (80k and
#: 320k senders x 2 types), so the exact accumulators' O(distinct) state
#: actually grows 4x.
SMALL_ROWS = 80_000
LARGE_ROWS = 320_000


def _synthetic_records(rows: int, seed: int = 0):
    rng = Random(seed)
    records = []
    for index in range(rows):
        if index % 8 == 7:
            records.append(
                TransactionRecord(
                    chain=ChainId.XRP,
                    transaction_id=f"x{index}",
                    block_height=index // 64,
                    timestamp=1.5e9 + index,
                    type="Payment",
                    sender=f"xs{index}",
                    receiver=f"xr{index}",
                    amount=rng.uniform(0.1, 10_000.0),
                    currency="XRP",
                )
            )
        else:
            records.append(
                TransactionRecord(
                    chain=ChainId.EOS,
                    transaction_id=f"e{index}",
                    block_height=index // 64,
                    timestamp=1.5e9 + index,
                    type="transfer",
                    sender=f"s{index}",
                    receiver=f"r{index % 97}",
                    contract="eosio.token",
                )
            )
    return records


def _accumulators(oracle):
    return [
        TxStatsAccumulator(),
        AccountActivityAccumulator("sender", 10),
        SenderCountsAccumulator(),
        ValueDistributionAccumulator(oracle),
    ]


def _scan(frame: TxFrame, oracle, mode: str) -> None:
    """Scan, then observe the state the way every real pass does.

    Export and finalize are inside the traced window on purpose: a kernel
    that defers per-key work to the first observation (a dense histogram
    materialised at export) is flat while scanning and O(distinct) after.
    """
    with statsmode.use_mode(mode):
        accumulators = _accumulators(oracle)
        scan(accumulators, frame, range(len(frame)))
        for accumulator in accumulators:
            accumulator.export_state()
            accumulator.finalize()


def _traced_peak(frame: TxFrame, oracle, mode: str) -> int:
    tracemalloc.start()
    try:
        _scan(frame, oracle, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def memory_frames():
    oracle = ExchangeRateOracle({})
    frames = {}
    for rows in (SMALL_ROWS, LARGE_ROWS):
        frame = TxFrame.from_records(_synthetic_records(rows))
        frame.transaction_id_hashes()  # prewarm the O(rows) hash column
        # Prewarm the lazily cached ndarray views (and interning tables)
        # with a throwaway pass, so the traced window sees only state.
        _scan(frame, oracle, statsmode.SKETCH)
        frames[rows] = frame
    return frames, oracle


def test_sketch_peak_is_flat_under_4x_growth(memory_frames):
    frames, oracle = memory_frames
    small = _traced_peak(frames[SMALL_ROWS], oracle, statsmode.SKETCH)
    large = _traced_peak(frames[LARGE_ROWS], oracle, statsmode.SKETCH)
    # "Flat": bounded by the sketches' fixed capacities, not by rows.  The
    # 2.0 allowance absorbs allocator noise around the HLL's sparse-to-
    # dense conversion, which only the larger workload crosses.
    assert large <= 2.0 * small, (small, large)


def test_exact_peak_grows_with_rows(memory_frames):
    """The contrast that proves the probe measures what it claims to."""
    frames, oracle = memory_frames
    small = _traced_peak(frames[SMALL_ROWS], oracle, statsmode.EXACT)
    large = _traced_peak(frames[LARGE_ROWS], oracle, statsmode.EXACT)
    assert large >= 2.0 * small, (small, large)


def test_sketch_peak_beats_exact_at_scale(memory_frames):
    """At 320k distinct keys sketch state is a small fraction of exact.

    The sketch side's peak is dominated by the bounded scratch tallies at
    their fold threshold — a constant — while exact grows with every
    distinct key, so this margin only widens at larger scales.
    """
    frames, oracle = memory_frames
    exact = _traced_peak(frames[LARGE_ROWS], oracle, statsmode.EXACT)
    sketch = _traced_peak(frames[LARGE_ROWS], oracle, statsmode.SKETCH)
    assert sketch <= exact / 2, (sketch, exact)


def test_exact_tx_stats_state_does_not_grow_with_rows(memory_frames):
    """The transaction count is a run counter: O(1) state at any row count."""
    frames, _ = memory_frames
    sizes = {}
    for rows, frame in frames.items():
        accumulator = TxStatsAccumulator(stats=statsmode.EXACT)
        scan([accumulator], frame, range(rows))
        assert accumulator.finalize().transaction_count == rows
        payload = accumulator.export_state()
        # The only row-dependent bytes are the digits of the ids it quotes.
        quoted = len(payload["first_id"]) + len(payload["last_id"])
        sizes[rows] = len(statecodec.encode(payload)) - quoted
        assert sizes[rows] + quoted <= 256
    assert sizes[SMALL_ROWS] == sizes[LARGE_ROWS]
