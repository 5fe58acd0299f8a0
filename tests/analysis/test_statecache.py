"""Chunk-state aggregate cache: entries, keying, faults, invalidation.

The cache contract under test, layer by layer:

* **entry codec** — encode/decode round-trips per-chain shipped states;
  every corruption class (short blob, wrong magic, checksum mismatch,
  codec garbage, wrong shape or version) decodes to ``None``, never
  raises;
* **keying** — the file-name key misses cleanly on any drift: a different
  accumulator configuration (oracle, clusterer), rewritten chunk bytes, a
  migrated archive; the store's key chain moves every key from a dropped
  or rewritten chunk on, and every process derives the same keys (an
  all-hit report reads only chunk headers for them);
* **writes** — entries commit atomically; injected ``store.cache_write``
  faults (torn, bitflip, truncate) leave only undecodable entries — which
  read back as misses — and an injected crash propagates without
  committing the entry;
* **consumers** — cached and uncached out-of-core reports are
  figure-for-figure identical, hit/miss counters account for exactly the
  chunks skipped and rescanned, appends rescan only appended chunks,
  ``migrate_format`` drops the whole cache, and a task ships the same
  bytes whether its chunks hit or missed;
* **partitioning** — ``row_balanced_ranges`` always covers the chunk index
  space exactly while cutting at cumulative-row boundaries.
"""

from __future__ import annotations

import builtins
import glob
import io
import json
import os
import shutil

import pytest

from repro.analysis.clustering import AccountClusterer
from repro.analysis.parallel import (
    _scan_chunk_range,
    chunk_ranges,
    chunk_scan_tasks,
    parallel_report_from_store,
    row_balanced_ranges,
)
from repro.analysis.report import figure_factory
from repro.analysis.statecache import (
    ENTRY_MAGIC,
    ENTRY_MODE,
    ChunkStateCache,
    EntryKey,
    decode_entry,
    encode_entry,
    factories_digest,
    parse_entry_name,
)
from repro.analysis.value import ExchangeRateOracle
from repro.analysis.report import full_report
from repro.collection.store import (
    CHAIN_ROOT,
    MANIFEST_NAME,
    FrameStore,
    chain_link,
    state_cache_dir,
)
from repro.cli import main
from repro.cli.dataset import cached_store
from repro.common import faults
from repro.common.records import ChainId
from repro.common.statecodec import encode

from repro.pipeline import run_fsck

from tests.fixtures import V2_STORE, legacy_frame
from tests.support.reports import assert_reports_identical

CHUNK_ROWS = 977

SAMPLE_STATES = {
    "xrp": [("TxStatsAccumulator", {"count": 7}), ("Other", {"values": [1, 2]})],
    "eos": [("TxStatsAccumulator", {"count": 1})],
}


@pytest.fixture(scope="module")
def sample_records(eos_records, xrp_records):
    return eos_records[:4000] + xrp_records[:4000]


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


@pytest.fixture
def store_dir(tmp_path, sample_records):
    directory = str(tmp_path / "store")
    store = FrameStore(chunk_rows=CHUNK_ROWS, directory=directory)
    store.add_records(sample_records)
    store.flush()
    return directory


def _report(directory, oracle, clusterer, cache=None):
    return parallel_report_from_store(
        directory, oracle=oracle, clusterer=clusterer, workers=1, cache=cache
    )


# -- entry codec ------------------------------------------------------------------------


def test_entry_roundtrip():
    blob = encode_entry(SAMPLE_STATES)
    assert blob.startswith(ENTRY_MAGIC)
    decoded = decode_entry(blob)
    assert decoded == {
        chain: [tuple(pair) for pair in shipped]
        for chain, shipped in SAMPLE_STATES.items()
    }


@pytest.mark.parametrize(
    "mutate",
    [
        lambda blob: b"",
        lambda blob: blob[:3],
        lambda blob: b"XXXX" + blob[4:],
        lambda blob: blob[:-1],
        lambda blob: blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:],
        lambda blob: blob + b"trailing",
    ],
    ids=["empty", "short", "bad-magic", "truncated", "bitflip", "trailing"],
)
def test_corrupt_entries_decode_to_none(mutate):
    assert decode_entry(mutate(encode_entry(SAMPLE_STATES))) is None


def test_wrong_shapes_decode_to_none():
    import struct
    import zlib

    from repro.common import statecodec

    for payload in (
        [],
        {"version": 99, "chains": {}},
        {"version": 1, "chains": ["not", "a", "dict"]},
        {"version": 1, "chains": {"xrp": [("qualname-but-no-payload",)]}},
        {"version": 1, "chains": {"xrp": [(7, {"payload": 1})]}},
    ):
        body = statecodec.encode(payload)
        blob = ENTRY_MAGIC + struct.pack(">I", zlib.adler32(body) & 0xFFFFFFFF) + body
        assert decode_entry(blob) is None


def test_entry_name_roundtrip_and_rejects():
    key = EntryKey("0a1b2c3d", "0123456789abcdef", "exact", "v2")
    assert parse_entry_name(key.filename()) == key
    for name in (
        "state-aa-bb-exact-v2.state.tmp",  # crashed-write temp
        "state-aa-bb-exact.state",  # missing a part
        "state-aa-bb-exact-v2-extra.state",  # too many parts
        "state-aa--exact-v2.state",  # empty part
        "manifest.json",
        "frame-chunk-000001.bin",
    ):
        assert parse_entry_name(name) is None


# -- cache reads/writes -----------------------------------------------------------------


def test_store_load_clear_stat(tmp_path):
    cache = ChunkStateCache(str(tmp_path / "cache"))
    key = EntryKey("0a1b2c3d", "0123456789abcdef", "exact", "v2")
    assert cache.load(key) is None  # absent directory is a clean miss
    cache.store(key, SAMPLE_STATES)
    assert cache.load(key) is not None
    stat = cache.stat()
    assert stat["entries"] == 1 and stat["bytes"] > 0 and stat["other_files"] == 0
    assert cache.clear() == 1
    assert cache.load(key) is None
    assert cache.stat()["entries"] == 0


def test_an_entry_gets_the_mode_of_the_chunk_beside_it(store_dir):
    """Not ``mkstemp``'s 0600: a shared or CI-restored cache must be readable."""
    cache = ChunkStateCache.for_store(store_dir)
    key = EntryKey("0a1b2c3d", "0123456789abcdef", "exact", "v2")
    cache.store(key, SAMPLE_STATES)
    (chunk_path, *_rest) = sorted(
        os.path.join(store_dir, name)
        for name in os.listdir(store_dir)
        if name.startswith("frame-chunk-")
    )
    entry_mode = os.stat(cache.entry_path(key)).st_mode & 0o777
    assert entry_mode == os.stat(chunk_path).st_mode & 0o777
    assert cache.stat()["other_files"] == 0  # the temp name is gone


@pytest.mark.parametrize("mode", ["torn", "bitflip", "truncate"])
def test_injected_write_corruption_reads_as_miss(tmp_path, mode):
    cache = ChunkStateCache(str(tmp_path / "cache"))
    key = EntryKey("0a1b2c3d", "0123456789abcdef", "exact", "v2")
    plan = faults.FaultPlan.parse(f"seed=5;store.cache_write:mode={mode}:nth=1")
    with faults.use_plan(plan):
        cache.store(key, SAMPLE_STATES)
    assert cache.load(key) is None  # damaged entry == absent entry
    cache.store(key, SAMPLE_STATES)  # rescan path overwrites it
    assert cache.load(key) is not None


def test_injected_write_crash_commits_nothing(tmp_path):
    cache = ChunkStateCache(str(tmp_path / "cache"))
    key = EntryKey("0a1b2c3d", "0123456789abcdef", "exact", "v2")
    plan = faults.FaultPlan.parse("seed=5;store.cache_write:mode=crash:nth=1")
    with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
        cache.store(key, SAMPLE_STATES)
    assert cache.load(key) is None
    assert cache.stat()["entries"] == 0  # the temp leftover is not an entry
    leftovers = cache.stat()["other_files"]
    assert leftovers == 1  # fsck flags it as orphaned; stat reports it


# -- cached reports ---------------------------------------------------------------------


def test_cached_report_identity_and_counters(store_dir, xrp_oracle, xrp_clusterer):
    uncached = _report(store_dir, xrp_oracle, xrp_clusterer)
    chunks = FrameStore.open(store_dir).committed_chunk_count

    cold = ChunkStateCache.for_store(store_dir)
    cold_report = _report(store_dir, xrp_oracle, xrp_clusterer, cache=cold)
    assert (cold.hits, cold.misses) == (0, chunks)

    warm = ChunkStateCache.for_store(store_dir)
    warm_report = _report(store_dir, xrp_oracle, xrp_clusterer, cache=warm)
    assert (warm.hits, warm.misses) == (chunks, 0)

    assert_reports_identical(cold_report, uncached, exact_flows=True)
    assert_reports_identical(warm_report, uncached, exact_flows=True)


def test_a_task_ships_the_same_bytes_from_a_cold_and_a_warm_cache(
    live_tail_cache, tmp_path
):
    """Hit or miss, a chunk's states reach the carry through one fold.

    With a second fold (accumulator ``merge`` on the miss leg) the shipped
    payloads once differed in bytes, though never in figures.
    """
    stored = cached_store("live_tail", 7, live_tail_cache)
    store = stored.store
    factories = {
        chain.value: figure_factory(
            chain, store.time_bounds(chain), stored.oracle, stored.clusterer
        )
        for chain in ChainId
    }
    # A private cache directory: the shared dataset's own stays untouched.
    cache = ChunkStateCache(str(tmp_path / "cache"))
    context = cache.context(factories_digest(factories))
    (task,) = chunk_scan_tasks(store, factories, 1, cache=context)
    _tag, cold, info = _scan_chunk_range(task)
    assert (info["hits"], info["misses"]) == (0, 3)
    for key, states in info["fresh"]:
        cache.store(key, states)
    # O(accounts + bins), not O(rows): 938,921 B with the id set.
    assert cache.stat()["bytes"] <= 150_000
    _tag, warm, info = _scan_chunk_range(task)
    assert (info["hits"], info["misses"]) == (3, 0)
    assert list(cold) == list(warm) == [chain.value for chain in ChainId]
    for chain, shipped in cold.items():
        assert [(name, encode(payload)) for name, payload in shipped] == [
            (name, encode(payload)) for name, payload in warm[chain]
        ], chain


def test_append_rescans_only_new_chunks(
    store_dir, xrp_records, xrp_oracle, xrp_clusterer
):
    store = FrameStore.open(store_dir)
    before = store.committed_chunk_count
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=ChunkStateCache.for_store(store_dir))

    store.add_records(xrp_records[4000:7000])
    store.flush()
    after = store.committed_chunk_count
    assert after > before

    cache = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=cache)
    assert (cache.hits, cache.misses) == (before, after - before)


def test_new_chain_append_invalidates_wholesale(
    store_dir, tezos_records, xrp_oracle, xrp_clusterer
):
    """A first-seen chain changes the factory set, hence the config digest.

    Every old entry then misses — the deliberate safe behavior: the digest
    covers the whole per-chain factory configuration, so entries can never
    be half-compatible.  The rescan rebuilds the cache under the new digest
    and subsequent reports are all-hit again.
    """
    store = FrameStore.open(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=ChunkStateCache.for_store(store_dir))
    store.add_records(tezos_records[:3000])
    store.flush()
    total = store.committed_chunk_count

    cache = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=cache)
    assert (cache.hits, cache.misses) == (0, total)
    rewarmed = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=rewarmed)
    assert (rewarmed.hits, rewarmed.misses) == (total, 0)


def test_config_drift_misses_cleanly(store_dir, xrp_oracle, xrp_clusterer):
    chunks = FrameStore.open(store_dir).committed_chunk_count
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=ChunkStateCache.for_store(store_dir))

    # A different oracle configuration digests differently: every chunk
    # misses, is rescanned, and the report still matches its own engine.
    other_oracle = ExchangeRateOracle({})
    drifted = ChunkStateCache.for_store(store_dir)
    drifted_report = _report(store_dir, other_oracle, xrp_clusterer, cache=drifted)
    assert (drifted.hits, drifted.misses) == (0, chunks)
    assert_reports_identical(
        drifted_report, _report(store_dir, other_oracle, xrp_clusterer), exact_flows=True
    )

    # And the original config still hits its own entries.
    original = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=original)
    assert (original.hits, original.misses) == (chunks, 0)


def test_an_entry_under_another_mode_token_is_never_read(
    store_dir, xrp_oracle, xrp_clusterer
):
    """What an earlier build's sketch statistics mode left in ``cache/``.

    Entries are read only under :data:`ENTRY_MODE`: a well-formed entry filed
    under another token misses, the chunk is rescanned into its ``-exact-``
    twin, and the foreign file is left for fsck to report.
    """
    chunks = FrameStore.open(store_dir).committed_chunk_count
    written = ChunkStateCache.for_store(store_dir)
    expected = _report(store_dir, xrp_oracle, xrp_clusterer, cache=written)
    names = sorted(os.listdir(written.directory))
    assert len(names) == chunks and all(f"-{ENTRY_MODE}-" in name for name in names)
    foreign = [name.replace(f"-{ENTRY_MODE}-", "-sketch-") for name in names]
    for name, renamed in zip(names, foreign):
        os.rename(
            os.path.join(written.directory, name), os.path.join(written.directory, renamed)
        )

    cold = ChunkStateCache.for_store(store_dir)
    report = _report(store_dir, xrp_oracle, xrp_clusterer, cache=cold)
    assert (cold.hits, cold.misses) == (0, chunks)
    assert_reports_identical(report, expected, exact_flows=True)
    assert sorted(os.listdir(written.directory)) == sorted(names + foreign)
    warm = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=warm)
    assert (warm.hits, warm.misses) == (chunks, 0)


def test_migrate_format_invalidates_cache(v1_store_dir, store_dir):
    """State entries beside an archive (another store's, standing in for
    those a version that still read archives wrote) leave with the chunk
    bytes the migration rewrites."""
    before = full_report(legacy_frame(v1_store_dir))
    with open(os.path.join(v1_store_dir, MANIFEST_NAME), encoding="utf-8") as handle:
        chunks = len(json.load(handle)["chunks"])
    _report(store_dir, None, None, cache=ChunkStateCache.for_store(store_dir))
    shutil.copytree(state_cache_dir(store_dir), state_cache_dir(v1_store_dir))
    assert ChunkStateCache.for_store(v1_store_dir).stat()["entries"] > 0

    assert FrameStore.migrate_format(v1_store_dir).migrated == chunks
    assert ChunkStateCache.for_store(v1_store_dir).stat()["entries"] == 0

    # Post-migration reports rebuild the cache under the new format's keys.
    rebuilt = ChunkStateCache.for_store(v1_store_dir)
    report = _report(v1_store_dir, None, None, cache=rebuilt)
    assert rebuilt.misses == chunks
    assert_reports_identical(report, before, exact_flows=True)


# -- the key chain -------------------------------------------------------------------


def _flip_middle_byte(path):
    with open(path, "r+b") as handle:
        blob = handle.read()
        handle.seek(len(blob) // 2)
        handle.write(bytes([blob[len(blob) // 2] ^ 0xFF]))


def _keys(store):
    return [store.prefix(n) for n in range(store.committed_chunk_count + 1)]


def test_every_process_derives_the_same_keys(tmp_path, sample_records):
    """The writer links from the blobs in hand, a reopened store from 8-byte
    header reads, a second store of the same rows from its own blobs."""
    directory = str(tmp_path / "store")
    writer = FrameStore(chunk_rows=CHUNK_ROWS, directory=directory)
    writer.add_records(sample_records)
    writer.flush()
    second = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(tmp_path / "second"))
    second.add_records(sample_records)
    second.flush()
    keys = _keys(writer)
    assert keys[0] == CHAIN_ROOT and len(set(keys)) == len(keys) > 3
    assert all(len(key) == 16 for key in keys)
    reopened = FrameStore.open(directory)
    assert _keys(reopened) == _keys(second) == keys


def test_a_repair_that_drops_a_chunk_moves_every_later_key(store_dir):
    keys = _keys(FrameStore.open(store_dir))
    dropped = 2
    _flip_middle_byte(sorted(glob.glob(os.path.join(store_dir, "frame-chunk-*")))[dropped])
    run_fsck(store_dir, repair=True)
    kept = _keys(FrameStore.open(store_dir))
    assert len(kept) == len(keys) - 1
    assert kept[: dropped + 1] == keys[: dropped + 1]  # chunks before the dropped one
    assert not set(kept[dropped + 1 :]) & set(keys)  # every chunk kept after it


def test_migration_moves_every_key_from_the_first_rewritten_chunk_on(store_dir):
    """A v3 store that took on two v2 archive chunks.  Their keys before the
    migration link their headers, as a version that still read v2 did."""
    manifest_path = os.path.join(store_dir, MANIFEST_NAME)
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    with open(os.path.join(V2_STORE, MANIFEST_NAME), encoding="utf-8") as handle:
        archived = json.load(handle)["chunks"][:2]
    before = _keys(FrameStore.open(store_dir))
    first = len(manifest["chunks"])
    for index, entry in enumerate(archived, start=first):
        name = f"frame-chunk-{index:06d}.bin"
        shutil.copy(os.path.join(V2_STORE, entry["file"]), os.path.join(store_dir, name))
        with open(os.path.join(store_dir, name), "rb") as handle:
            before.append(chain_link(before[-1], handle.read(), entry["compressed_bytes"]))
        manifest["chunks"].append(dict(entry, file=name))
        manifest["row_count"] += entry["rows"]
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    assert FrameStore.migrate_format(store_dir).migrated == 2
    after = _keys(FrameStore.open(store_dir))
    assert after[: first + 1] == before[: first + 1]
    assert len(after) == len(before) == first + 3
    assert not set(after[first + 1 :]) & set(before)


def test_a_pool_worker_keys_exactly_as_the_parent(store_dir, xrp_oracle, xrp_clusterer):
    """Entries a pooled scan writes are the ones a serial report looks up."""
    pooled = ChunkStateCache.for_store(store_dir)
    parallel_report_from_store(
        store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer, workers=2, cache=pooled
    )
    store = FrameStore.open(store_dir)
    chunks = store.committed_chunk_count
    assert pooled.misses == chunks
    names = sorted(parse_entry_name(name).prefix for name in os.listdir(pooled.directory))
    assert names == sorted(_keys(store)[1:])
    serial = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, xrp_clusterer, cache=serial)
    assert (serial.hits, serial.misses) == (chunks, 0)


def test_a_chunk_links_by_its_header_alone(store_dir):
    """A chunk's key reads its header only, whose checksum the decoder
    checks the body by: a flipped body byte moves no key."""
    keys = _keys(FrameStore.open(store_dir))
    _flip_middle_byte(sorted(glob.glob(os.path.join(store_dir, "frame-chunk-*")))[0])
    assert _keys(FrameStore.open(store_dir)) == keys


class _CountedFile:
    """A file handle that adds every byte read through it to ``counts``."""

    def __init__(self, handle, counts, name):
        self._handle, self._counts, self._name = handle, counts, name

    def read(self, *args):
        data = self._handle.read(*args)
        self._counts[self._name] = self._counts.get(self._name, 0) + len(data)
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


def test_an_all_hit_report_reads_only_chunk_headers(live_tail_cache, monkeypatch, capsys):
    """The keys cost an 8-byte read per chunk file; nothing else reads one
    (each was read whole, ≈1.0 MB in all, for its adler32)."""
    argv = ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
    main(argv, out=io.StringIO())  # populates the state cache if no test did yet
    counts = {}
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        handle = real_open(file, *args, **kwargs)
        name = os.path.basename(os.fspath(file))
        return _CountedFile(handle, counts, name) if name.startswith("frame-chunk-") else handle

    capsys.readouterr()
    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(argv, out=io.StringIO()) == 0
    monkeypatch.undo()
    assert "3 hit(s) / 0 miss(es)" in capsys.readouterr().err
    chunk_files = glob.glob(os.path.join(live_tail_cache, "live_tail-seed7", "frame-chunk-*"))
    assert sorted(counts) == sorted(map(os.path.basename, chunk_files))
    assert all(count <= 8 for count in counts.values()), counts


def test_state_cache_dir_is_outside_chunk_globs(store_dir, xrp_oracle):
    """Reopening a store must never sweep cache entries as stale chunks."""
    cache = ChunkStateCache.for_store(store_dir)
    _report(store_dir, xrp_oracle, None, cache=cache)
    entries = cache.stat()["entries"]
    assert entries > 0
    store = FrameStore.open(store_dir)  # runs the stale-partial cleanup
    assert ChunkStateCache.for_store(store_dir).stat()["entries"] == entries
    assert os.path.isdir(state_cache_dir(store_dir))


# -- row-balanced partitioning ----------------------------------------------------------


def test_row_balanced_ranges_cover_exactly():
    for counts, parts in (
        ([10, 10, 100, 10, 10], 2),
        ([1] * 7, 3),
        ([5], 4),
        ([], 3),
        ([0, 0, 0], 2),
        ([100, 1, 1, 1, 1, 1, 1, 1], 4),
        (list(range(1, 40)), 8),
    ):
        ranges = row_balanced_ranges(counts, parts)
        flattened = [i for start, stop in ranges for i in range(start, stop)]
        assert flattened == list(range(len(counts)))
        if counts:
            # Every part non-empty (chunk_scan_tasks filters the empty
            # range the zero-chunk degenerate case yields, as for
            # chunk_ranges).
            assert all(stop > start for start, stop in ranges)
            assert len(ranges) == min(max(parts, 1), len(counts))


def test_row_balanced_ranges_beat_count_split_on_ragged_tails():
    # A tail of tiny flush chunks behind full-size ones: the count split
    # gives one worker almost everything; the row split balances.
    counts = [100_000] * 4 + [500] * 12
    parts = 4
    count_ranges = chunk_ranges(len(counts), parts)
    row_ranges = row_balanced_ranges(counts, parts)

    def worst(ranges):
        return max(sum(counts[start:stop]) for start, stop in ranges)

    assert worst(row_ranges) < worst(count_ranges)
    assert worst(row_ranges) <= 2 * (sum(counts) // parts)
