"""fsck awareness of the chunk-state aggregate cache.

The doctor must classify every kind of cache damage — corrupt entries,
entries keyed to superseded chunk bytes or to a mode token nothing reads
(stale), unrecognisable files in
``cache/`` (orphaned) — report them without mutating anything, and
quarantine them under ``--repair``.  Chunk repair and cache checking
compose: quarantining a damaged chunk in the same walk must turn that
chunk's cache entries stale.  And because every one of these states
degrades to a cache miss, none of them may ever change a figure.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.statecache import ChunkStateCache, parse_entry_name
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore, state_cache_dir
from repro.pipeline import run_fsck
from repro.pipeline.fsck import QUARANTINE_DIR

CHUNK_ROWS = 1_000


@pytest.fixture(scope="module")
def frozen_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture
def warm_store(tmp_path, eos_records, xrp_records, frozen_oracle):
    """A committed store with a fully-populated chunk-state cache."""
    directory = str(tmp_path / "store")
    store = FrameStore(chunk_rows=CHUNK_ROWS, directory=directory)
    store.add_records(eos_records[:3000] + xrp_records[:3000])
    store.flush()
    cache = ChunkStateCache.for_store(directory)
    parallel_report_from_store(
        directory, oracle=frozen_oracle, workers=1, cache=cache
    )
    assert cache.misses == store.committed_chunk_count
    return directory


def _entries(directory):
    cache_dir = state_cache_dir(directory)
    return cache_dir, sorted(
        name for name in os.listdir(cache_dir) if parse_entry_name(name)
    )


def _issues_of(report, kind):
    return [issue for issue in report.issues if issue.kind == kind]


def test_clean_cache_passes(warm_store):
    report = run_fsck(warm_store)
    assert report.clean
    assert report.cache_entries_checked > 0
    assert report.cache_entries_ok == report.cache_entries_checked


def test_corrupt_entry_detected_and_quarantined(warm_store):
    cache_dir, entries = _entries(warm_store)
    victim = os.path.join(cache_dir, entries[0])
    with open(victim, "r+b") as handle:
        handle.seek(12)
        byte = handle.read(1)
        handle.seek(12)
        handle.write(bytes([byte[0] ^ 0xFF]))

    report = run_fsck(warm_store)
    assert not report.clean
    assert len(_issues_of(report, "cache_entry_corrupt")) == 1
    assert os.path.exists(victim)  # detection never mutates

    repaired = run_fsck(warm_store, repair=True)
    issue = _issues_of(repaired, "cache_entry_corrupt")[0]
    assert issue.repair == "quarantined"
    assert not os.path.exists(victim)
    assert os.path.dirname(issue.path).endswith(QUARANTINE_DIR)
    assert run_fsck(warm_store).clean


def test_stale_entry_detected_and_quarantined(warm_store):
    cache_dir, entries = _entries(warm_store)
    key = parse_entry_name(entries[0])
    stale = entries[0].replace(key.chunk_checksum, "00000000")
    os.rename(os.path.join(cache_dir, entries[0]), os.path.join(cache_dir, stale))

    report = run_fsck(warm_store)
    stale_issues = _issues_of(report, "cache_entry_stale")
    assert len(stale_issues) == 1
    assert "00000000" in stale_issues[0].detail

    repaired = run_fsck(warm_store, repair=True)
    assert _issues_of(repaired, "cache_entry_stale")[0].repair == "quarantined"
    assert run_fsck(warm_store).clean


def test_sketch_mode_entry_detected_as_stale_and_quarantined(warm_store):
    """An entry an earlier build wrote in its sketch statistics mode.

    It decodes and its chunk is committed, but nothing reads its mode token.
    """
    cache_dir, entries = _entries(warm_store)
    dead = entries[0].replace("-exact-", "-sketch-")
    dead_path = os.path.join(cache_dir, dead)
    os.rename(os.path.join(cache_dir, entries[0]), dead_path)

    report = run_fsck(warm_store)
    stale_issues = _issues_of(report, "cache_entry_stale")
    assert len(stale_issues) == 1
    assert "'sketch'" in stale_issues[0].detail
    assert os.path.exists(dead_path)  # detection never mutates

    repaired = run_fsck(warm_store, repair=True)
    assert _issues_of(repaired, "cache_entry_stale")[0].repair == "quarantined"
    assert not os.path.exists(dead_path)
    assert run_fsck(warm_store).clean


def test_orphaned_file_detected_and_quarantined(warm_store):
    cache_dir, _ = _entries(warm_store)
    leftover = os.path.join(cache_dir, "state-aa-bb-exact-v2.state.tmp.x1")
    with open(leftover, "wb") as handle:
        handle.write(b"half a write")

    report = run_fsck(warm_store)
    assert len(_issues_of(report, "cache_entry_orphaned")) == 1

    repaired = run_fsck(warm_store, repair=True)
    assert _issues_of(repaired, "cache_entry_orphaned")[0].repair == "quarantined"
    assert not os.path.exists(leftover)
    assert run_fsck(warm_store).clean


def test_chunk_repair_turns_entries_stale_in_same_walk(warm_store):
    """Quarantining a damaged chunk strands its cache entries as stale."""
    import json

    from repro.collection.store import MANIFEST_NAME

    with open(os.path.join(warm_store, MANIFEST_NAME)) as handle:
        manifest = json.load(handle)
    _cache_dir, entries = _entries(warm_store)
    chunk_path = os.path.join(warm_store, manifest["chunks"][0]["file"])
    with open(chunk_path, "r+b") as handle:
        handle.truncate(max(os.path.getsize(chunk_path) // 2, 1))

    repaired = run_fsck(warm_store, repair=True)
    assert _issues_of(repaired, "chunk_size_mismatch") or _issues_of(
        repaired, "chunk_corrupt"
    )
    # The truncated chunk was quarantined first, so its (now chunk-less)
    # cache entry is stale within the same pass — and so are the entries of
    # every chunk after it, whose string codes moved with it.
    stale = _issues_of(repaired, "cache_entry_stale")
    assert len(stale) == len(entries) == len(manifest["chunks"])
    assert all(issue.repair == "quarantined" for issue in stale)
    assert run_fsck(warm_store).clean

    # The surviving store still reports, repopulating only what was lost.
    report = parallel_report_from_store(
        warm_store, workers=1, cache=ChunkStateCache.for_store(warm_store)
    )
    assert report.chains


def test_fsck_json_counts_cache_entries(warm_store):
    payload = run_fsck(warm_store).to_dict()
    assert payload["cache_entries_checked"] == payload["cache_entries_ok"] > 0
