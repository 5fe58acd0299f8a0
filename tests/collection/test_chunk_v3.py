"""The v3 chunk format: projected metadata columns, legacy archives, versions.

A v3 chunk stores the metadata keys figures read as typed columns
(:data:`repro.common.projection.PROJECTED_KEYS`) and keeps only the residue of
each row's metadata as JSON.  What is pinned here:

* the checked-in v2 archive (``tests/fixtures/store_v2``, written by the last
  v2-writing commit) reads back record for record — metadata key order
  included — after ``migrate_format`` rewrites it as v3, and reports over
  v1, v2, v3 and mixed stores are byte-identical;
* a crash at either side of a migration's manifest commit leaves a store
  that reopens with every row and finishes migrating on the next run;
* a chunk of an unknown binary format version is named as such by the
  decoder and by ``fsck``, which leaves it alone under ``--repair``;
* a scan never parses metadata JSON, and the write path projects each row
  once.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.analysis.parallel import (
    fold_targets,
    parallel_report_from_store,
    payload_frame,
    scan_frame,
    store_factories,
)
from repro.analysis.report import full_report
from repro.cli import _report_to_dict
from repro.collection import chunkformat
from repro.collection.store import MANIFEST_NAME, FrameStore
from repro.common import faults, projection
from repro.common.errors import CollectionError
from repro.pipeline import run_fsck

from tests.fixtures import (
    V1_STORE_CHUNKS,
    V2_STORE_CHUNKS,
    V2_STORE_ROWS,
    copy_v1_store,
    copy_v2_store,
)

_COPY = {"v1": copy_v1_store, "v2": copy_v2_store}
_CHUNKS = {"v1": V1_STORE_CHUNKS, "v2": V2_STORE_CHUNKS}


def _record_lines(store_dir):
    """Every stored record with its metadata's key order, as comparable tuples."""
    return [
        (tuple(record), list(record.metadata))
        for record in FrameStore.open(str(store_dir)).iter_records()
    ]


def _report_bytes(report) -> str:
    return json.dumps(_report_to_dict(report), sort_keys=True)


def _mixed_store(legacy_dir, migrated_dir, destination, keep_legacy: int) -> str:
    """The legacy store's first ``keep_legacy`` chunks beside the migrated
    store's later ones, under one manifest: a store that was migrated halfway."""
    os.makedirs(destination)
    manifests = []
    for source in (legacy_dir, migrated_dir):
        with open(os.path.join(source, MANIFEST_NAME), encoding="utf-8") as handle:
            manifests.append(json.load(handle))
    legacy, migrated = manifests
    entries = legacy["chunks"][:keep_legacy] + migrated["chunks"][keep_legacy:]
    for index, entry in enumerate(entries):
        source = legacy_dir if index < keep_legacy else migrated_dir
        shutil.copy(os.path.join(source, entry["file"]), destination)
    with open(os.path.join(destination, MANIFEST_NAME), "w", encoding="utf-8") as handle:
        json.dump(dict(migrated, chunks=entries), handle)
    return str(destination)


@pytest.fixture(params=["v1", "v2"])
def legacy_format(request):
    return request.param


class TestLegacyArchives:
    def test_v2_fixture_records_equal_its_v3_rewrite(self, tmp_path):
        archive = copy_v2_store(tmp_path / "v2")
        before = _record_lines(archive)
        assert len(before) == V2_STORE_ROWS
        assert {key for _, keys in before for key in keys} >= set(projection.PROJECTED_KEYS)
        assert FrameStore.open(archive).migrate_format() == V2_STORE_CHUNKS
        assert sorted(os.listdir(archive)) == sorted(
            [f"frame-chunk-{index:06d}.v3.bin" for index in range(V2_STORE_CHUNKS)]
            + [MANIFEST_NAME]
        )
        assert _record_lines(archive) == before
        assert FrameStore.open(archive).migrate_format() == 0  # idempotent

    def test_reports_are_byte_identical_across_formats(self, tmp_path, legacy_format):
        legacy = _COPY[legacy_format](tmp_path / "legacy")
        migrated = _COPY[legacy_format](tmp_path / "migrated")
        FrameStore.open(migrated).migrate_format()
        mixed = _mixed_store(legacy, migrated, tmp_path / "mixed", keep_legacy=1)
        stores = {"legacy": legacy, "v3": migrated, "mixed": mixed}
        expected = _report_bytes(full_report(FrameStore.open(legacy).to_frame()))
        for name, directory in stores.items():
            assert _report_bytes(full_report(FrameStore.open(directory).to_frame())) == expected, name
            assert _report_bytes(parallel_report_from_store(directory, workers=1)) == expected, name

    def test_crash_before_the_migration_commit_keeps_the_archive(self, tmp_path, legacy_format):
        archive = _COPY[legacy_format](tmp_path / "store")
        before = _record_lines(archive)
        plan = faults.FaultPlan.parse("store.manifest_commit:mode=crash:nth=1")
        with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
            FrameStore.open(archive).migrate_format()
        reopened = FrameStore.open(archive)
        assert len(reopened.cleaned_paths) == _CHUNKS[legacy_format]  # the uncommitted v3 files
        assert _record_lines(archive) == before
        assert reopened.migrate_format() == _CHUNKS[legacy_format]
        assert _record_lines(archive) == before

    def test_crash_after_the_migration_commit_cleans_the_old_files(
        self, tmp_path, legacy_format, monkeypatch
    ):
        archive = _COPY[legacy_format](tmp_path / "store")
        before = _record_lines(archive)

        def crash(path):
            raise faults.InjectedCrash(f"died before removing {path}")

        monkeypatch.setattr("repro.collection.store.os.remove", crash)
        with pytest.raises(faults.InjectedCrash):
            FrameStore.open(archive).migrate_format()
        monkeypatch.undo()
        reopened = FrameStore.open(archive)
        assert len(reopened.cleaned_paths) == _CHUNKS[legacy_format]  # the superseded files
        assert reopened.migrate_format() == 0
        assert _record_lines(archive) == before
        assert run_fsck(archive).clean


class TestUnknownVersion:
    """A blob of the binary family with a version byte this code does not read."""

    def _patched_store(self, tmp_path):
        store_dir = copy_v2_store(tmp_path / "store")
        path = os.path.join(store_dir, "frame-chunk-000001.bin")
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
        corrupt = os.path.join(store_dir, "frame-chunk-000000.bin")
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
        with pytest.raises(CollectionError, match=r"chunk 0 .*frame-chunk-000001.bin.* lacks pools"):
            FrameStore.open(store_dir)


class TestNoJsonOnTheScanPath:
    def test_out_of_core_miss_report_never_parses_metadata(self, tmp_path, monkeypatch):
        archive = copy_v2_store(tmp_path / "store")
        expected = _report_bytes(full_report(FrameStore.open(archive).to_frame()))
        FrameStore.open(archive).migrate_format()

        def parse(segment, rows):
            raise AssertionError("a scan parsed chunk metadata JSON")

        monkeypatch.setattr(chunkformat, "_unpack_metadata", parse)
        assert _report_bytes(parallel_report_from_store(archive, workers=1)) == expected
        assert _report_bytes(full_report(FrameStore.open(archive).to_frame())) == expected

    def test_the_write_path_projects_each_row_once(self, tmp_path, monkeypatch):
        """Staged records are projected at the chunk cut; the encoder and the
        scan of the committed payload both take those columns."""
        source = FrameStore.open(copy_v2_store(tmp_path / "source"))
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
