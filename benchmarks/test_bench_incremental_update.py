"""Incremental update vs full re-scan at stress scale.

The incremental pipeline's acceptance bar: after a small batch of fresh
rows lands on a large archive, ``update`` (fold the checkpointed
accumulator states, scan only the chunks past its watermark, re-finalize)
must beat a full serial re-scan of the archive at ``medium_scenario`` scale
— while remaining figure-for-figure identical to the from-scratch report.

The timed update is a cold one, from a freshly opened pipeline, with its
real overheads: opening the store, loading the checkpoint, decoding and
scanning the new chunks, writing their state entries, saving the new
checkpoint and finalising every figure.  Each round restores the
checkpoint and clears the chunk-state cache first, so every round scans
the delta.  The vectorized full re-scan is itself fast, so the bar is a
modest ≥ 1.2× — it asserts the checkpoint round-trip does not eat the
delta-scan win, not a ratio against a retired baseline.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache
from repro.common.columns import TxFrame
from repro.pipeline import Pipeline
from tests.support.reports import assert_reports_identical

#: Number of timed rounds; the minimum is reported (steady-state cost).
ROUNDS = 3

#: Acceptance bar for an update covering a small appended batch (the
#: checkpoint round-trip used to dominate here; the snapshot codec removed
#: that ceiling).
REQUIRED_SPEEDUP = 1.2

#: Fraction of each chain's rows arriving as the "fresh" batch.
DELTA_FRACTION = 0.02


@pytest.fixture(scope="module")
def staged_workload(
    tmp_path_factory, eos_records, tezos_records, xrp_records, xrp_oracle, xrp_clusterer
):
    """(pipeline root with a checkpoint covering all but the delta and the
    delta committed, the checkpoint's bytes, the frame of all rows, delta
    size) — the full figure slate, Figure 12 included."""
    prefix = []
    delta = []
    for records in (eos_records, tezos_records, xrp_records):
        split = int(len(records) * (1.0 - DELTA_FRACTION))
        prefix.extend(records[:split])
        delta.extend(records[split:])
    root = str(tmp_path_factory.mktemp("incremental-bench"))
    pipeline = Pipeline(root)
    addresses = {r.sender for r in prefix + delta} | {r.receiver for r in prefix + delta}
    pipeline.set_analysis_config(
        xrp_oracle, StaticAccountClusterer.from_clusterer(xrp_clusterer, sorted(addresses))
    )
    pipeline.ingest_records(prefix)
    pipeline.update()
    with open(pipeline.checkpoints.path, "rb") as handle:
        checkpoint = handle.read()
    pipeline.ingest_records(delta)
    return root, checkpoint, TxFrame.from_records(prefix + delta), len(delta)


def _cold_update(root, checkpoint):
    """Restore the prefix checkpoint, forget every chunk state, update cold."""
    pipeline = Pipeline(root)
    with open(pipeline.checkpoints.path, "wb") as handle:
        handle.write(checkpoint)
    ChunkStateCache.for_store(pipeline.frames_dir).clear()
    return pipeline, pipeline.update()


def _time(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_incremental_update_identical_to_full_rescan(staged_workload):
    root, checkpoint, frame, delta_rows = staged_workload
    pipeline, (report, stats) = _cold_update(root, checkpoint)
    assert stats.rows_scanned == delta_rows < stats.rows_total
    assert stats.incremental
    expected = full_report(frame, *pipeline.analysis_config())
    # The delta's Figure 12 sums fold in as one subtotal per chunk.
    assert_reports_identical(report, expected, exact_flows=False)


def test_incremental_update_beats_full_rescan(staged_workload):
    root, checkpoint, frame, delta_rows = staged_workload
    oracle, clusterer = Pipeline(root).analysis_config()
    incremental_seconds = _time(lambda: _cold_update(root, checkpoint))
    rescan_seconds = _time(
        lambda: full_report(frame, oracle=oracle, clusterer=clusterer)
    )
    speedup = rescan_seconds / incremental_seconds
    print(
        f"\nUpdate over {len(frame):,} rows (+{delta_rows:,} fresh): "
        f"full re-scan {rescan_seconds:.3f}s, incremental "
        f"{incremental_seconds:.3f}s, speed-up {speedup:.2f}x"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental update must stay >= {REQUIRED_SPEEDUP}x faster than a "
        f"full re-scan, got {speedup:.2f}x"
    )
