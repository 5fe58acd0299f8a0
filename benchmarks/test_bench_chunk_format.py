"""Chunk-format gates: cross-format result identity + assembly determinism.

Stores always write the v3 binary columnar format; v1 gzip-JSON and v2
binary chunks only arrive as archives written by older versions,
represented here by the checked-in fixture stores (``tests/fixtures/store_v1``
and ``store_v2``).  Two layers:

* **result identity** — ``full_report`` over rehydrated frames, the pooled
  out-of-core report, and an incremental pipeline update are
  figure-for-figure identical whether the rows sit in a v1 or v2 archive,
  in its v3 migration, or in an archive that keeps growing v3 chunks (a
  mixed store).
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
from tests.fixtures import V1_STORE_CHUNKS, V2_STORE_CHUNKS, copy_v1_store, copy_v2_store
from tests.support.reports import assert_reports_identical

_ARCHIVES = {"v1": (copy_v1_store, V1_STORE_CHUNKS), "v2": (copy_v2_store, V2_STORE_CHUNKS)}


@pytest.fixture(params=sorted(_ARCHIVES))
def format_stores(request, tmp_path):
    """One archive's rows per chunk format: the archive and its v3 migration."""
    copy, chunks = _ARCHIVES[request.param]
    stores = {request.param: copy(tmp_path / "archive"), "v3": copy(tmp_path / "v3")}
    assert FrameStore.open(stores["v3"]).migrate_format() == chunks
    return stores


def test_full_report_identical_across_formats(format_stores):
    archive, migrated = (
        full_report(FrameStore.open(directory).to_frame())
        for directory in format_stores.values()
    )
    assert_reports_identical(migrated, archive)


def test_out_of_core_report_identical_across_formats(format_stores):
    archive, migrated = (
        parallel_report_from_store(directory, workers=2)
        for directory in format_stores.values()
    )
    assert_reports_identical(migrated, archive)


@pytest.mark.parametrize("archive_format", sorted(_ARCHIVES))
def test_incremental_pipeline_update_identical_across_formats(tmp_path, archive_format):
    """Adopt archive → update → ingest → update matches figure-for-figure.

    The archive pipeline's appended rows land in v3 chunks beside the
    archive's (a mixed store); the second update is genuinely incremental —
    it scans only the rows past the checkpoint watermark.
    """
    copy, _chunks = _ARCHIVES[archive_format]
    reports = {}
    for chunk_format in (archive_format, "v3"):
        root = tmp_path / f"pipeline-{chunk_format}"
        frames = copy(root / FRAMES_DIR)
        if chunk_format == "v3":
            FrameStore.open(frames).migrate_format()
        pipeline = Pipeline(str(root), chunk_rows=128)
        pipeline.update()
        # Recycled rows of the archive's first chain: inside its time
        # window, so no series anchor moves and the checkpoint stays usable.
        # (Not the first chunk's rows from row 0 in a v2 archive: its 128 rows
        # would make a chunk equal to the migrated one, which folds its entry.)
        start = 0 if archive_format == "v1" else 10
        tail = TxFrame.from_payload(pipeline.frame.to_payload(range(start, start + 150)))
        pipeline.ingest_records(tail.iter_records())
        report, stats = pipeline.update()
        assert stats.incremental and stats.rows_scanned == 150
        chunks = [name for name in os.listdir(frames) if name.startswith("frame-chunk-")]
        legacy = [name for name in chunks if not name.endswith(".v3.bin")]
        assert len(legacy) < len(chunks) and bool(legacy) == (chunk_format != "v3")
        assert_reports_identical(report, full_report(pipeline.frame))
        reports[chunk_format] = report
    assert_reports_identical(reports["v3"], reports[archive_format])


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
