"""The v3 chunk format: projected metadata columns, legacy archives, versions.

A v3 chunk stores the metadata keys figures read as typed columns
(:data:`repro.common.projection.PROJECTED_KEYS`) and, as JSON, only the
allow-listed others (``RESIDUE_KEYS``).  What is pinned here:

* a store opens only v3 chunks: ``FrameStore.open`` refuses each checked-in
  legacy archive (``tests/fixtures/store_v1`` / ``store_v2``, written by the
  last v1- / v2-writing commits) by name, touching no file, and ``fsck``
  reports its chunks as ``chunk_version`` and leaves them under ``--repair``;
* after ``migrate_format`` rewrites an archive as v3 it reads back record for
  record — metadata key order included — as the legacy decoders read the
  archive, restricted to the keys a chunk stores, and reports over it are
  byte-identical to ``full_report`` over the archive's rows;
* a crash at either side of a migration's manifest commit leaves the archive
  or its migration whole, and the next ``migrate_format`` finishes the job;
* a chunk of an unknown binary format version is named as such by the
  decoder and by ``fsck``, which leaves it alone under ``--repair``;
* a scan never parses metadata JSON, and the write path projects each row
  once.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.parallel import (
    fold_targets,
    parallel_report_from_store,
    payload_frame,
    scan_frame,
    store_factories,
)
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache
from repro.cli import _report_to_dict
from repro.collection import chunkformat
from repro.collection.store import MANIFEST_NAME, FrameStore
from repro.common import faults, projection
from repro.common.columns import TxFrame
from repro.common.errors import CollectionError
from repro.common.records import ChainId, TransactionRecord
from repro.pipeline import Pipeline, run_fsck
from repro.pipeline.core import FRAMES_DIR

from tests.collection.test_generate import _directory_bytes
from tests.fixtures import (
    V1_STORE_CHUNKS,
    V2_STORE,
    V2_STORE_CHUNKS,
    V2_STORE_ROWS,
    V3_FULL_STORE_ROWS,
    copy_v1_store,
    copy_v2_store,
    copy_v3_full_store,
    legacy_frame,
)
from tests.support.stored import STORED_KEYS, stored_metadata, stored_records

_COPY = {"v1": copy_v1_store, "v2": copy_v2_store}
_CHUNKS = {"v1": V1_STORE_CHUNKS, "v2": V2_STORE_CHUNKS}


def _record_lines(records):
    """Records with their metadata's key order, as comparable tuples."""
    return [(tuple(record), list(record.metadata)) for record in records]


def _archived_lines(archive):
    """The archive's records as the legacy decoders read them."""
    return _record_lines(legacy_frame(archive).iter_records())


def _kept_lines(archive):
    """The archive's records restricted to the metadata keys a chunk stores."""
    return _record_lines(stored_records(legacy_frame(archive).iter_records()))


def _stored_lines(store_dir):
    """The records a store opened from ``store_dir`` gives back."""
    return _record_lines(FrameStore.open(str(store_dir)).iter_records())


def _report_bytes(report) -> str:
    return json.dumps(_report_to_dict(report), sort_keys=True)


def _chunk_files(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith("frame-chunk-"))


@pytest.fixture(params=["v1", "v2"])
def legacy_format(request):
    return request.param


class TestLegacyArchives:
    def test_open_refuses_the_archive_and_touches_no_file(self, tmp_path, legacy_format):
        archive = _COPY[legacy_format](tmp_path / "store")
        before = _directory_bytes(archive)
        with pytest.raises(CollectionError, match="migrate-store") as refusal:
            FrameStore.open(archive)
        assert f"`repro migrate-store {archive}`" in str(refusal.value)
        assert _directory_bytes(archive) == before

    @pytest.mark.parametrize("repair", [False, True])
    def test_fsck_reports_each_legacy_chunk_and_repair_leaves_it(
        self, tmp_path, legacy_format, repair
    ):
        archive = _COPY[legacy_format](tmp_path / "store")
        before = _directory_bytes(archive)
        report = run_fsck(archive, repair=repair)
        assert [(issue.kind, issue.path, issue.repair) for issue in report.issues] == [
            ("chunk_version", os.path.join(archive, name), "") for name in _chunk_files(archive)
        ]
        assert len(report.issues) == _CHUNKS[legacy_format]
        assert _directory_bytes(archive) == before

    def test_v2_fixture_records_equal_its_v3_rewrite(self, tmp_path):
        archive = copy_v2_store(tmp_path / "v2")
        kept = _kept_lines(archive)
        assert len(kept) == V2_STORE_ROWS
        assert {key for _, keys in kept for key in keys} >= set(projection.PROJECTED_KEYS)
        assert FrameStore.migrate_format(archive).migrated == V2_STORE_CHUNKS
        assert sorted(os.listdir(archive)) == sorted(
            [f"frame-chunk-{index:06d}.v3.bin" for index in range(V2_STORE_CHUNKS)]
            + [MANIFEST_NAME]
        )
        assert _stored_lines(archive) == kept
        assert FrameStore.migrate_format(archive).migrated == 0  # idempotent

    def test_reports_are_byte_identical_across_formats(self, tmp_path, legacy_format):
        """The serial, out-of-core and ``update`` reports over the migrated
        archive equal ``full_report`` over its legacy-decoded rows."""
        root = tmp_path / "pipeline"
        migrated = _COPY[legacy_format](root / FRAMES_DIR)
        expected = _report_bytes(full_report(legacy_frame(migrated)))
        FrameStore.migrate_format(migrated)
        assert _report_bytes(full_report(FrameStore.open(migrated).to_frame())) == expected
        assert _report_bytes(parallel_report_from_store(migrated, workers=1)) == expected
        report, stats = Pipeline(str(root)).update()
        assert stats.rows_scanned == stats.rows_total
        assert _report_bytes(report) == expected

    def test_crash_before_the_migration_commit_keeps_the_archive(self, tmp_path, legacy_format):
        archive = _COPY[legacy_format](tmp_path / "store")
        before, kept = _archived_lines(archive), _kept_lines(archive)
        plan = faults.FaultPlan.parse("store.manifest_commit:mode=crash:nth=1")
        with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
            FrameStore.migrate_format(archive)
        assert _archived_lines(archive) == before
        with pytest.raises(CollectionError, match="migrate-store"):
            FrameStore.open(archive)
        uncommitted = [name for name in _chunk_files(archive) if name.endswith(".v3.bin")]
        assert len(uncommitted) == _CHUNKS[legacy_format]
        # The rerun cleans the uncommitted v3 files and writes them again.
        assert FrameStore.migrate_format(archive).migrated == _CHUNKS[legacy_format]
        assert _chunk_files(archive) == uncommitted
        assert _stored_lines(archive) == kept

    def test_crash_after_the_migration_commit_cleans_the_old_files(
        self, tmp_path, legacy_format, monkeypatch
    ):
        archive = _COPY[legacy_format](tmp_path / "store")
        kept = _kept_lines(archive)

        def crash(path):
            raise faults.InjectedCrash(f"died before removing {path}")

        monkeypatch.setattr("repro.collection.store.os.remove", crash)
        with pytest.raises(faults.InjectedCrash):
            FrameStore.migrate_format(archive)
        monkeypatch.undo()
        reopened = FrameStore.open(archive)
        assert len(reopened.cleaned_paths) == _CHUNKS[legacy_format]  # the superseded files
        assert FrameStore.migrate_format(archive).migrated == 0
        assert _stored_lines(archive) == kept
        assert run_fsck(archive).clean


class TestUnknownVersion:
    """A blob of the binary family with a version byte this code does not read."""

    def _patched_store(self, tmp_path):
        store_dir = copy_v2_store(tmp_path / "store")
        FrameStore.migrate_format(store_dir)
        path = os.path.join(store_dir, "frame-chunk-000001.v3.bin")
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        blob[3] = 0x09
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        return store_dir, path, bytes(blob)

    def test_decoder_names_the_version(self, tmp_path):
        _, _, blob = self._patched_store(tmp_path)
        assert chunkformat.chunk_version(blob) == 9
        with pytest.raises(chunkformat.ChunkFormatError, match="chunk format version 9 is not supported"):
            chunkformat.decode_chunk(blob)

    def test_store_read_is_a_version_error_not_corruption(self, tmp_path):
        store_dir, _, _ = self._patched_store(tmp_path)
        store = FrameStore.open(store_dir)
        with pytest.raises(CollectionError, match="version 9 is not supported"):
            store.chunk_payload(1)

    @pytest.mark.parametrize("repair", [False, True])
    def test_fsck_reports_chunk_version_and_repair_leaves_it(self, tmp_path, repair):
        store_dir, path, blob = self._patched_store(tmp_path)
        manifest_path = os.path.join(store_dir, MANIFEST_NAME)
        with open(manifest_path, "rb") as handle:
            manifest = handle.read()
        report = run_fsck(store_dir, repair=repair)
        assert [(issue.kind, issue.path, issue.repair) for issue in report.issues] == [
            ("chunk_version", path, "")
        ]
        with open(path, "rb") as handle:
            assert handle.read() == blob
        with open(manifest_path, "rb") as handle:
            assert handle.read() == manifest
        assert not os.path.exists(os.path.join(store_dir, "quarantine"))

    def test_repair_drops_a_corrupt_chunk_and_keeps_the_newer_one(self, tmp_path):
        store_dir, path, blob = self._patched_store(tmp_path)
        corrupt = os.path.join(store_dir, "frame-chunk-000000.v3.bin")
        with open(corrupt, "r+b") as handle:
            handle.seek(len(chunkformat.MAGIC) + 4)
            handle.write(b"\xff\xff")
        report = run_fsck(store_dir, repair=True)
        assert [(issue.kind, issue.repair) for issue in report.issues] == [
            ("chunk_corrupt", "quarantined"),
            ("chunk_version", ""),
        ]
        with open(path, "rb") as handle:
            assert handle.read() == blob
        with open(os.path.join(store_dir, MANIFEST_NAME), encoding="utf-8") as handle:
            entries = json.load(handle)["chunks"]
        # The kept chunk's pool deltas were relative to the dropped chunk's
        # pools, and a chunk this version cannot decode cannot have them
        # recomputed: the entry stays incomplete, and open says so by name.
        assert entries[0]["file"] == os.path.basename(path) and "pools" not in entries[0]
        with pytest.raises(CollectionError, match=r"chunk 0 .*frame-chunk-000001\.v3\.bin.* lacks pools"):
            FrameStore.open(store_dir)


class TestNoJsonOnTheScanPath:
    def test_out_of_core_miss_report_never_parses_metadata(self, tmp_path, monkeypatch):
        archive = copy_v2_store(tmp_path / "store")
        expected = _report_bytes(full_report(legacy_frame(archive)))
        FrameStore.migrate_format(archive)

        def parse(segment, rows):
            raise AssertionError("a scan parsed chunk metadata JSON")

        monkeypatch.setattr(chunkformat, "_unpack_metadata", parse)
        assert _report_bytes(parallel_report_from_store(archive, workers=1)) == expected
        assert _report_bytes(full_report(FrameStore.open(archive).to_frame())) == expected

    def test_the_write_path_projects_each_row_once(self, tmp_path, monkeypatch):
        """Staged records are projected at the chunk cut; the encoder and the
        scan of the committed payload both take those columns."""
        source_dir = copy_v2_store(tmp_path / "source")
        FrameStore.migrate_format(source_dir)
        source = FrameStore.open(source_dir)
        records = list(source.iter_records())
        factories = store_factories(source)
        projected = []
        project = projection.project_metadata

        def counting(dicts):
            projected.append(len(dicts))
            return project(dicts)

        monkeypatch.setattr(projection, "project_metadata", counting)
        store = FrameStore(chunk_rows=100, directory=str(tmp_path / "store"))
        payloads = [*store.iter_commits(records), store.flush()]
        skeleton, _ = fold_targets(store, {})
        for payload in payloads:
            assert scan_frame(payload_frame(payload, skeleton), factories)
        assert sum(projected) == len(records) == V2_STORE_ROWS


def _record(index, metadata):
    return TransactionRecord(
        chain=ChainId.EOS,
        transaction_id=f"t{index}",
        block_height=index,
        timestamp=float(index),
        type="transfer",
        sender="alice",
        receiver="bob",
        contract="eosio.token",
        amount=1.0,
        currency="EOS",
        metadata=metadata,
    )


class TestStoredKeys:
    """A chunk stores the projected keys, the allow-listed ``RESIDUE_KEYS``
    and nothing else; the decoder still reads a chunk written before that."""

    def test_decoded_metadata_holds_only_stored_keys(self, tmp_path):
        records = list(legacy_frame(V2_STORE).iter_records())
        dropped = {key for record in records for key in record.metadata} - STORED_KEYS
        assert {"payout", "level", "slots", "offer_id"} <= dropped
        store = FrameStore(chunk_rows=128, directory=str(tmp_path))
        store.add_records(records)
        store.flush()
        reopened = FrameStore.open(str(tmp_path))
        for index in range(reopened.committed_chunk_count):
            metadata = reopened.chunk_payload(index)["metadata"]
            assert {key for meta in metadata if meta for key in meta} <= STORED_KEYS
        assert list(reopened.iter_records()) == stored_records(records)

    def test_allow_listed_and_inexact_projected_values_round_trip_exactly(self):
        rows = [
            {"destination_tag": 7, "memo": "dropped"},
            {"taker_gets": {"currency": "XRP", "value": 2.5}, "taker_pays": [1, "USD"], "grant": 3},
            {"transfer_to": 5, "inline": True, "payout": 1.5},  # a name that is no str
            {"transfer_to": None, "symbol": 7, "executed": 1},  # kept as they are
            {"transfer_to": "bob", "category": "manager", "bookkeeping": True},
            {"memo": "dropped"},
            {},
        ]
        frame = TxFrame.from_records([_record(index, meta) for index, meta in enumerate(rows)])
        decoded = chunkformat.decode_chunk(chunkformat.encode_chunk(frame.to_payload(arrays=True))[0])
        metadata = list(decoded["metadata"])
        assert [json.dumps(meta) for meta in metadata] == [
            json.dumps(stored_metadata(meta)) for meta in rows
        ]
        assert metadata == [
            {"destination_tag": 7},
            {"taker_gets": {"currency": "XRP", "value": 2.5}, "taker_pays": [1, "USD"]},
            {"inline": True, "transfer_to": 5},
            {"executed": 1, "symbol": 7, "transfer_to": None},
            {"category": "manager", "transfer_to": "bob"},
            None,
            None,
        ]

    def test_a_store_written_before_the_allow_list_mixes_with_new_chunks(self, tmp_path, monkeypatch):
        """Open a fixture whose chunks keep every key, append a chunk: the old
        chunks keep their full residue, the new one keeps only the stored
        keys, the old chunks' state entries still hit, and the report is a
        fresh build's over the same rows and cut."""
        root = tmp_path / "pipeline"
        frames = copy_v3_full_store(root / FRAMES_DIR)
        old = list(FrameStore.open(frames).iter_records())
        assert len(old) == V3_FULL_STORE_ROWS
        assert {key for record in old for key in record.metadata} - STORED_KEYS
        appended = [record._replace(transaction_id=f"{record.transaction_id}-b") for record in old[:100]]
        pipeline = Pipeline(str(root), chunk_rows=128)
        pipeline.update()
        cache = os.path.join(frames, "cache")
        entries = set(os.listdir(cache))
        assert len(entries) == 2
        pipeline.ingest_records(appended)
        report, stats = pipeline.update()
        assert stats.incremental and stats.rows_scanned == len(appended)
        assert entries < set(os.listdir(cache))

        mixed = FrameStore.open(frames)
        assert mixed.chunk_row_counts() == [128, 102, 100]
        assert list(mixed.iter_records())[: len(old)] == old
        assert list(mixed.iter_records())[len(old) :] == stored_records(appended)
        fresh_dir = str(tmp_path / "fresh")
        fresh = FrameStore(chunk_rows=128, directory=fresh_dir)
        for rows in (old, appended):
            fresh.add_records(rows)
            fresh.flush()
        assert fresh.chunk_row_counts() == [128, 102, 100]
        expected = _report_bytes(parallel_report_from_store(fresh_dir, workers=1))
        assert _report_bytes(report) == expected

        def never_decoded(blob):
            raise AssertionError("a chunk whose state entry exists was decoded")

        monkeypatch.setattr(chunkformat, "decode_chunk", never_decoded)
        cached = parallel_report_from_store(frames, workers=1, cache=ChunkStateCache.for_store(frames))
        assert _report_bytes(cached) == expected
        monkeypatch.undo()
        assert expected == _report_bytes(full_report(TxFrame.from_records(old + appended)))
