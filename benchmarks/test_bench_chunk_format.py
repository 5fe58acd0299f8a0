"""Chunk-format gates: migrated-archive result identity + assembly determinism.

Stores write and read only the v3 binary columnar format; v1 gzip-JSON and
v2 binary chunks only arrive as archives written by older versions,
represented here by the checked-in fixture stores (``tests/fixtures/store_v1``
and ``store_v2``), and ``repro migrate-store`` is their one reader.  Two
layers:

* **result identity** — ``full_report`` over the rehydrated frame, the
  pooled out-of-core report and an incremental pipeline update over an
  archive's v3 migration are figure-for-figure identical to ``full_report``
  over the archive's rows as the legacy decoders read them.
* **assembly determinism** — window-sharded generation assembles
  byte-identical v3 stores for any worker count (chunk files move into the
  canonical store unchanged, so this holds by construction; the test pins
  it).
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.collection.generate import generate_sharded
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.pipeline.core import FRAMES_DIR, Pipeline

from tests.collection.test_generate import _directory_bytes, _windowed_scenario
from tests.fixtures import (
    V1_STORE_CHUNKS,
    V2_STORE_CHUNKS,
    copy_v1_store,
    copy_v2_store,
    legacy_frame,
)
from tests.support.reports import assert_reports_identical

_ARCHIVES = {"v1": (copy_v1_store, V1_STORE_CHUNKS), "v2": (copy_v2_store, V2_STORE_CHUNKS)}


@pytest.fixture(params=sorted(_ARCHIVES))
def migrated_archive(request, tmp_path):
    """One archive's legacy-decoded rows, and the archive migrated to v3."""
    copy, chunks = _ARCHIVES[request.param]
    directory = copy(tmp_path / "archive")
    archived = legacy_frame(directory)
    assert FrameStore.migrate_format(directory).migrated == chunks
    return archived, directory


def test_full_report_identical_across_formats(migrated_archive):
    archived, directory = migrated_archive
    migrated = full_report(FrameStore.open(directory).to_frame())
    assert_reports_identical(migrated, full_report(archived))


def test_out_of_core_report_identical_across_formats(migrated_archive):
    archived, directory = migrated_archive
    migrated = parallel_report_from_store(directory, workers=2)
    assert_reports_identical(migrated, full_report(archived))


@pytest.mark.parametrize("archive_format", sorted(_ARCHIVES))
def test_incremental_pipeline_update_identical_across_formats(tmp_path, archive_format):
    """Migrate archive → adopt → update → ingest → update matches
    ``full_report`` over the archive's legacy-decoded rows plus the new ones.

    The second update is genuinely incremental — it scans only the rows
    past the checkpoint watermark.
    """
    copy, _chunks = _ARCHIVES[archive_format]
    root = tmp_path / "pipeline"
    frames = copy(root / FRAMES_DIR)
    archived = legacy_frame(frames)
    FrameStore.migrate_format(frames)
    pipeline = Pipeline(str(root), chunk_rows=128)
    pipeline.update()
    # Recycled rows of the archive's first chain: inside its time window, so
    # no series anchor moves and the checkpoint stays usable.  (Not the
    # first chunk's rows from row 0 in a v2 archive: its 128 rows would make
    # a chunk equal to the migrated one, which folds its entry.)
    start = 0 if archive_format == "v1" else 10
    tail = TxFrame.from_payload(pipeline.frame.to_payload(range(start, start + 150)))
    pipeline.ingest_records(tail.iter_records())
    report, stats = pipeline.update()
    assert stats.incremental and stats.rows_scanned == 150
    chunks = [name for name in os.listdir(frames) if name.startswith("frame-chunk-")]
    assert chunks and all(name.endswith(".v3.bin") for name in chunks)
    assert_reports_identical(report, full_report(pipeline.frame))
    expected = TxFrame.from_records([*archived.iter_records(), *tail.iter_records()])
    assert_reports_identical(report, full_report(expected))


def test_assemble_byte_identical_for_any_worker_count(tmp_path_factory):
    """Window-sharded generation of a v3 store is worker-count invariant."""
    scenario = _windowed_scenario(windows=2)
    solo_dir = str(tmp_path_factory.mktemp("assemble-solo") / "store")
    pool_dir = str(tmp_path_factory.mktemp("assemble-pool") / "store")
    generate_sharded(scenario, solo_dir, workers=1)
    generate_sharded(scenario, pool_dir, workers=3)
    assert _directory_bytes(solo_dir) == _directory_bytes(pool_dir)
    store = FrameStore.open(solo_dir)
    assert store.chunk_count > 0
    # The assembled chunks really are v3 binary chunks.
    from repro.collection.chunkformat import chunk_version

    for index in range(store.chunk_count):
        with open(store._chunks[index].path, "rb") as handle:
            assert chunk_version(handle.read(4)) == 3
