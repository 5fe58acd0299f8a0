"""Incremental update vs full re-scan at stress scale.

The incremental pipeline's acceptance bar: after a small batch of fresh
rows lands on a large archive, ``update`` (restore the checkpointed
accumulator states, scan only the delta, re-finalize) must beat a full
serial re-scan of the archive at ``medium_scenario`` scale — while
remaining figure-for-figure identical to the from-scratch report.

The timed incremental path includes its real overheads: restoring the
snapshot payloads, scanning the delta, snapshotting the new checkpoint and
finalising every figure.  The vectorized full re-scan is itself fast, so
the bar is a modest ≥ 1.2× — it asserts the checkpoint round-trip does not
eat the delta-scan win, not a ratio against a retired baseline.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.report import full_report
from repro.common.columns import TxFrame
from repro.pipeline import incremental_report
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
def staged_workload(eos_records, tezos_records, xrp_records, xrp_oracle, xrp_clusterer):
    """(frame with all rows, checkpoint covering all but the delta, delta
    size, oracle, clusterer) — the full figure slate, Figure 12 included."""
    prefix = []
    delta = []
    for records in (eos_records, tezos_records, xrp_records):
        split = int(len(records) * (1.0 - DELTA_FRACTION))
        prefix.extend(records[:split])
        delta.extend(records[split:])
    frame = TxFrame.from_records(prefix)
    _, checkpoint, _ = incremental_report(
        frame, None, oracle=xrp_oracle, clusterer=xrp_clusterer
    )
    frame.extend(delta)
    return frame, checkpoint, len(delta), xrp_oracle, xrp_clusterer


def _time(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_incremental_update_identical_to_full_rescan(staged_workload):
    frame, checkpoint, _, oracle, clusterer = staged_workload
    report, _, stats = incremental_report(
        frame, checkpoint, oracle=oracle, clusterer=clusterer
    )
    assert stats.rows_scanned < stats.rows_total
    assert not stats.chains_rescanned
    expected = full_report(frame, oracle=oracle, clusterer=clusterer)
    assert_reports_identical(report, expected)


def _measure(frame, checkpoint, oracle, clusterer):
    incremental_seconds = _time(
        lambda: incremental_report(
            frame, checkpoint, oracle=oracle, clusterer=clusterer
        )
    )
    rescan_seconds = _time(
        lambda: full_report(frame, oracle=oracle, clusterer=clusterer)
    )
    return rescan_seconds, incremental_seconds


def test_incremental_update_beats_full_rescan(staged_workload):
    frame, checkpoint, delta_rows, oracle, clusterer = staged_workload
    rescan_seconds, incremental_seconds = _measure(frame, checkpoint, oracle, clusterer)
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
