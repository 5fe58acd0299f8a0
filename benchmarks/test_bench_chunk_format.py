"""Chunk-format gates: cross-format result identity + assembly determinism.

Stores always write the v2 binary columnar format; v1 gzip-JSON chunks only
arrive as archives written by older versions, represented here by the
checked-in fixture store (``tests/fixtures/store_v1``).  Two layers:

* **result identity** — ``full_report`` over rehydrated frames, the pooled
  out-of-core report, and an incremental pipeline update are
  figure-for-figure identical whether the rows sit in the v1 archive, in
  its v2 migration, or in a v1 archive that keeps growing v2 chunks.
* **assembly determinism** — window-sharded generation assembles
  byte-identical v2 stores for any worker count (chunk files move into the
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
from tests.fixtures import V1_STORE_CHUNKS, copy_v1_store
from tests.support.reports import assert_reports_identical


@pytest.fixture
def format_stores(tmp_path):
    """The fixture's rows once per chunk format: the archive and its migration."""
    stores = {
        "v1": copy_v1_store(tmp_path / "v1"),
        "v2": copy_v1_store(tmp_path / "v2"),
    }
    assert FrameStore.open(stores["v2"]).migrate_format() == V1_STORE_CHUNKS
    return stores


def test_full_report_identical_across_formats(format_stores):
    reports = {
        chunk_format: full_report(FrameStore.open(directory).to_frame())
        for chunk_format, directory in format_stores.items()
    }
    assert_reports_identical(reports["v2"], reports["v1"])


def test_out_of_core_report_identical_across_formats(format_stores):
    reports = {
        chunk_format: parallel_report_from_store(directory, workers=2)
        for chunk_format, directory in format_stores.items()
    }
    assert_reports_identical(reports["v2"], reports["v1"])


def test_incremental_pipeline_update_identical_across_formats(tmp_path):
    """Adopt archive → update → ingest → update matches figure-for-figure.

    The v1 pipeline's appended rows land in v2 chunks beside the v1
    archive (a mixed store); the second update is genuinely incremental —
    it scans only the rows past the checkpoint watermark.
    """
    reports = {}
    for chunk_format in ("v1", "v2"):
        root = tmp_path / f"pipeline-{chunk_format}"
        frames = copy_v1_store(root / FRAMES_DIR)
        if chunk_format == "v2":
            FrameStore.open(frames).migrate_format()
        pipeline = Pipeline(str(root), chunk_rows=128)
        pipeline.update()
        # Recycled rows of the archive's first chain: inside its time
        # window, so no series anchor moves and the checkpoint stays usable.
        tail = TxFrame.from_payload(pipeline.frame.to_payload(range(0, 150)))
        pipeline.ingest_records(tail.iter_records())
        report, stats = pipeline.update()
        assert stats.incremental and stats.rows_scanned == 150
        suffixes = {os.path.splitext(name)[1] for name in os.listdir(frames)}
        assert (".gz" in suffixes) == (chunk_format == "v1") and ".bin" in suffixes
        assert_reports_identical(report, full_report(pipeline.frame))
        reports[chunk_format] = report
    assert_reports_identical(reports["v2"], reports["v1"])


def test_assemble_byte_identical_for_any_worker_count(tmp_path_factory):
    """Window-sharded generation of a v2 store is worker-count invariant."""
    scenario = _windowed_scenario(windows=2)
    solo_dir = str(tmp_path_factory.mktemp("assemble-solo") / "store")
    pool_dir = str(tmp_path_factory.mktemp("assemble-pool") / "store")
    generate_sharded(scenario, solo_dir, workers=1)
    generate_sharded(scenario, pool_dir, workers=3)
    assert _directory_bytes(solo_dir) == _directory_bytes(pool_dir)
    store = FrameStore.open(solo_dir)
    assert store.chunk_count > 0
    # The assembled chunks really are v2 binary chunks.
    from repro.collection.chunkformat import is_v2_chunk

    for index in range(store.chunk_count):
        with open(store._chunks[index].path, "rb") as handle:
            assert is_v2_chunk(handle.read(4))
