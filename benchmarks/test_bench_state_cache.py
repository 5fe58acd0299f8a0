"""Chunk-state cache gates: warm speedup, O(new-data) appends, identity.

The chunk-state aggregate cache memoizes each committed chunk's folded
accumulator states so a repeat report folds states instead of rescanning
history.  Four layers, at ``medium_scenario`` scale:

* **warm speedup gate** — a warm cached out-of-core ``full_report`` must
  beat the cold *uncached* scan of the same store by ≥ 5×.  Both sides run
  in-process (``workers=1``), see :func:`bench_report_cache`;
* **O(new data)** — after appending rows to a warmed store, a cached
  report hits every pre-existing chunk and misses exactly the appended
  ones (hit/miss counters asserted), i.e. only new data is scanned;
* **result identity** — the cached report (cold populating pass and warm
  memoized pass alike) is figure-for-figure identical to the serial
  in-memory ``full_report``;
* **corruption degradation** — with the ``store.cache_read`` faultpoint
  flipping bits in every entry read (and with entries truncated or made
  stale on disk), the report silently degrades to a per-chunk rescan:
  every lookup counts as a miss and no figure changes.
"""

from __future__ import annotations

import os
import time
from itertools import chain
from typing import Callable, Dict

import pytest

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache, parse_entry_name
from repro.collection.store import FrameStore
from repro.common import faults
from repro.common.columns import TxFrame

from tests.support.reports import assert_reports_identical

ROUNDS = 3

#: Warm memoized report vs the cold uncached scan of the same store.
REQUIRED_WARM_SPEEDUP = 5.0

#: Matches the out-of-core benchmark's partitioning headroom.
CHUNK_ROWS = 25_000


@pytest.fixture(scope="module")
def combined_frame(eos_records, tezos_records, xrp_records):
    return TxFrame.from_records(chain(eos_records, tezos_records, xrp_records))


@pytest.fixture(scope="module")
def serial_report(combined_frame, xrp_oracle, xrp_clusterer):
    return full_report(combined_frame, oracle=xrp_oracle, clusterer=xrp_clusterer)


@pytest.fixture()
def store_dir(tmp_path, combined_frame):
    directory = tmp_path / "state-cache-store"
    store = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(directory))
    store.add_frame(combined_frame)
    return str(directory)


def _best_of(fn: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(max(repeat, 1)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_report_cache(
    directory: str,
    oracle,
    clusterer,
    repeat: int,
) -> Dict[str, object]:
    """Time the chunk-state aggregate cache: cold populate vs warm report.

    Three in-process (``workers=1``) out-of-core passes over the same
    store, so the comparison isolates the cache effect from pool
    scheduling: an *uncached* reference scan, the *cold* cache-populating
    scan (every chunk misses, scans, and persists its states), and the
    *warm* memoized pass (every chunk hits; no chunk is decompressed at
    all).  Hit/miss counters come from the passes themselves, cache bytes
    from the directory afterwards.  The store's cache is cleared first and
    left warm after.
    """
    store = FrameStore.open(directory)
    counters = {"hits": 0, "misses": 0}

    def run(with_cache: bool) -> None:
        cache = ChunkStateCache.for_store(directory) if with_cache else None
        parallel_report_from_store(
            directory,
            oracle=oracle,
            clusterer=clusterer,
            workers=1,
            cache=cache,
            store=store,
        )
        if cache is not None:
            counters["hits"], counters["misses"] = cache.hits, cache.misses

    uncached_seconds = _best_of(lambda: run(False), repeat)
    ChunkStateCache.for_store(directory).clear()
    started = time.perf_counter()
    run(True)
    cold_seconds = time.perf_counter() - started
    cold_hits, cold_misses = counters["hits"], counters["misses"]
    warm_seconds = _best_of(lambda: run(True), repeat)
    stat = ChunkStateCache.for_store(directory).stat()
    return {
        "chunks": store.committed_chunk_count,
        "uncached_seconds": round(uncached_seconds, 6),
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_hits": cold_hits,
        "cold_misses": cold_misses,
        "warm_hits": counters["hits"],
        "warm_misses": counters["misses"],
        "cache_entries": stat["entries"],
        "cache_bytes": stat["bytes"],
        "speedup_warm_vs_cold": round(cold_seconds / warm_seconds, 3)
        if warm_seconds
        else None,
        "speedup_warm_vs_uncached": round(uncached_seconds / warm_seconds, 3)
        if warm_seconds
        else None,
    }


def _cached_report(store_dir, oracle, clusterer, cache):
    return parallel_report_from_store(
        store_dir, oracle=oracle, clusterer=clusterer, workers=1, cache=cache
    )


def test_warm_cached_report_beats_cold_uncached(
    store_dir, xrp_oracle, xrp_clusterer
):
    stanza = bench_report_cache(store_dir, xrp_oracle, xrp_clusterer, ROUNDS)
    assert stanza["cold_misses"] == stanza["chunks"]
    assert stanza["warm_hits"] == stanza["chunks"]
    assert stanza["warm_misses"] == 0
    assert stanza["cache_entries"] == stanza["chunks"]
    assert stanza["cache_bytes"] > 0
    assert stanza["speedup_warm_vs_uncached"] >= REQUIRED_WARM_SPEEDUP, (
        f"warm cached report is only {stanza['speedup_warm_vs_uncached']}x the "
        f"uncached scan (need >= {REQUIRED_WARM_SPEEDUP}x): "
        f"uncached {stanza['uncached_seconds']}s, warm {stanza['warm_seconds']}s"
    )


def test_append_scans_only_new_chunks(
    store_dir, combined_frame, xrp_oracle, xrp_clusterer
):
    store = FrameStore.open(store_dir)
    chunks_before = store.committed_chunk_count
    warm = ChunkStateCache.for_store(store_dir)
    _cached_report(store_dir, xrp_oracle, xrp_clusterer, warm)
    assert warm.misses == chunks_before

    # Append a tail of rows (recycled medium-scale rows make a ragged,
    # multi-chunk append) — committed chunks are immutable, so their
    # entries must keep hitting.
    tail = combined_frame.to_payload(range(0, 2 * CHUNK_ROWS + 137))
    appended = TxFrame.from_payload(tail)
    store.add_frame(appended)
    chunks_after = store.committed_chunk_count
    assert chunks_after > chunks_before

    cache = ChunkStateCache.for_store(store_dir)
    _cached_report(store_dir, xrp_oracle, xrp_clusterer, cache)
    assert cache.hits == chunks_before
    assert cache.misses == chunks_after - chunks_before

    # And the next report is all hits again.
    rewarmed = ChunkStateCache.for_store(store_dir)
    _cached_report(store_dir, xrp_oracle, xrp_clusterer, rewarmed)
    assert (rewarmed.hits, rewarmed.misses) == (chunks_after, 0)


def test_cached_report_identity(store_dir, serial_report, xrp_oracle, xrp_clusterer):
    uncached = parallel_report_from_store(
        store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer, workers=1
    )
    cold = ChunkStateCache.for_store(store_dir)
    cold_report = _cached_report(store_dir, xrp_oracle, xrp_clusterer, cold)
    warm = ChunkStateCache.for_store(store_dir)
    warm_report = _cached_report(store_dir, xrp_oracle, xrp_clusterer, warm)
    assert cold.misses > 0 and warm.hits == cold.misses and warm.misses == 0
    # Bit-for-bit against the uncached chunk engine (same fold order); the
    # serial in-memory engine differs only in the Figure 12 float sum order
    # (the documented chunk-fold caveat), hence exact_flows=False there.
    assert_reports_identical(cold_report, uncached, exact_flows=True)
    assert_reports_identical(warm_report, uncached, exact_flows=True)
    assert_reports_identical(cold_report, serial_report, exact_flows=False)
    assert_reports_identical(warm_report, serial_report, exact_flows=False)


def test_corrupt_and_stale_entries_degrade_to_rescan(
    store_dir, serial_report, xrp_oracle, xrp_clusterer
):
    warm = ChunkStateCache.for_store(store_dir)
    _cached_report(store_dir, xrp_oracle, xrp_clusterer, warm)
    chunk_count = warm.misses

    # Injected bit flips on every cache read: every lookup must degrade to
    # a plain rescan (all misses) without changing a single figure.
    plan = faults.FaultPlan.parse(
        "seed=3;store.cache_read:mode=bitflip:p=1.0:times=1000000"
    )
    flipped = ChunkStateCache.for_store(store_dir)
    with faults.use_plan(plan):
        report = _cached_report(store_dir, xrp_oracle, xrp_clusterer, flipped)
    assert (flipped.hits, flipped.misses) == (0, chunk_count)
    assert_reports_identical(report, serial_report, exact_flows=False)

    # On-disk damage: truncate one entry, stale-key another.  Both count as
    # misses, everything else still hits, figures never move.
    cache_dir = ChunkStateCache.for_store(store_dir).directory
    entries = sorted(
        name for name in os.listdir(cache_dir) if parse_entry_name(name)
    )
    truncated, staled = entries[0], entries[1]
    with open(os.path.join(cache_dir, truncated), "r+b") as handle:
        handle.truncate(7)
    key = parse_entry_name(staled)
    stale_name = staled.replace(key.prefix, "00000000")
    os.rename(
        os.path.join(cache_dir, staled), os.path.join(cache_dir, stale_name)
    )
    damaged = ChunkStateCache.for_store(store_dir)
    report = _cached_report(store_dir, xrp_oracle, xrp_clusterer, damaged)
    assert (damaged.hits, damaged.misses) == (chunk_count - 2, 2)
    assert_reports_identical(report, serial_report, exact_flows=False)
