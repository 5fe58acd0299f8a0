"""Tests for the store/pipeline fsck doctor.

The contract under test: fsck detects 100% of injected corruptions, and
``--repair`` leaves a store that ``FrameStore.open`` and a pipeline
``update`` both accept, with exact per-chain degraded-row accounting.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import MANIFEST_NAME, POOL_NAMES, FrameStore, absorb_pool_deltas
from repro.common.errors import CollectionError
from repro.pipeline import Pipeline, run_fsck
from repro.pipeline.fsck import QUARANTINE_DIR, resolve_store_dir

from tests.support.reports import assert_update_identical


@pytest.fixture(scope="module")
def sample_records(eos_records, tezos_records, xrp_records):
    return eos_records[:3000] + tezos_records[:1500] + xrp_records[:3000]


@pytest.fixture(scope="module")
def frozen_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def frozen_clusterer(xrp_generator, sample_records):
    clusterer = AccountClusterer(xrp_generator.ledger.accounts)
    return StaticAccountClusterer.from_clusterer(
        clusterer, xrp_generator.ledger.accounts.addresses()
    )


@pytest.fixture
def pipeline_dir(tmp_path, sample_records, frozen_oracle, frozen_clusterer):
    """A healthy pipeline directory: several chunks, checkpoint, meta."""
    root = str(tmp_path / "data")
    pipeline = Pipeline(root, chunk_rows=1_000)
    pipeline.set_analysis_config(frozen_oracle, frozen_clusterer)
    pipeline.ingest_records(sample_records)
    pipeline.update()
    return root


def _manifest(root):
    store_dir = resolve_store_dir(root)
    with open(os.path.join(store_dir, MANIFEST_NAME), "r", encoding="utf-8") as handle:
        return store_dir, json.load(handle)


def _chunk_path(root, index=0):
    store_dir, manifest = _manifest(root)
    return os.path.join(store_dir, manifest["chunks"][index]["file"])


def _flip_byte(path, offset=None):
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    offset = len(blob) // 2 if offset is None else offset
    blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


class TestDetection:
    def test_clean_directory(self, pipeline_dir):
        report = run_fsck(pipeline_dir)
        assert report.clean
        assert report.chunks_checked > 3
        assert report.chunks_ok == report.chunks_checked
        assert report.checkpoint_checked

    def test_bitflipped_chunk(self, pipeline_dir):
        _flip_byte(_chunk_path(pipeline_dir, 1))
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["chunk_corrupt"]

    def test_torn_chunk(self, pipeline_dir):
        path = _chunk_path(pipeline_dir, 0)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["chunk_size_mismatch"]

    def test_missing_chunk(self, pipeline_dir):
        os.remove(_chunk_path(pipeline_dir, 2))
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["chunk_missing"]

    def test_uncommitted_chunk_file(self, pipeline_dir):
        store_dir = resolve_store_dir(pipeline_dir)
        with open(
            os.path.join(store_dir, "frame-chunk-999999.bin"), "wb"
        ) as handle:
            handle.write(b"leftover")
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["chunk_uncommitted"]

    def test_corrupt_checkpoint(self, pipeline_dir):
        _flip_byte(os.path.join(pipeline_dir, "checkpoint.snap"), offset=4)
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["checkpoint_unreadable"]

    def test_partial_assembly_manifest(self, pipeline_dir):
        store_dir, manifest = _manifest(pipeline_dir)
        manifest["assembling"] = True
        with open(
            os.path.join(store_dir, MANIFEST_NAME), "w", encoding="utf-8"
        ) as handle:
            json.dump(manifest, handle)
        report = run_fsck(pipeline_dir)
        assert any(issue.kind == "partial_assembly" for issue in report.issues)

    def test_unreadable_meta(self, pipeline_dir):
        with open(
            os.path.join(pipeline_dir, "meta.json"), "w", encoding="utf-8"
        ) as handle:
            handle.write("{not json")
        report = run_fsck(pipeline_dir)
        assert any(issue.kind == "meta_unreadable" for issue in report.issues)

    def test_meta_nested_past_the_decoder_limit(self, pipeline_dir):
        with open(
            os.path.join(pipeline_dir, "meta.json"), "w", encoding="utf-8"
        ) as handle:
            handle.write("[" * 100_000)
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["meta_unreadable"]

    def test_manifest_nested_past_the_decoder_limit(self, pipeline_dir):
        """Every manifest read fsck makes — the chunk walk's, the checkpoint
        range check's and the state-cache staleness check's — takes a
        RecursionError as an unreadable manifest, reported once."""
        store_dir = resolve_store_dir(pipeline_dir)
        with open(
            os.path.join(store_dir, MANIFEST_NAME), "w", encoding="utf-8"
        ) as handle:
            handle.write("[" * 100_000)
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["manifest_unreadable"]

    def test_meta_with_a_malformed_cluster_map(self, pipeline_dir):
        path = os.path.join(pipeline_dir, "meta.json")
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["clusters"] = [1, 2]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        report = run_fsck(pipeline_dir)
        assert [issue.kind for issue in report.issues] == ["meta_unreadable"]

    def test_detects_every_injected_corruption(self, pipeline_dir):
        """Several simultaneous corruptions: nothing masks anything else."""
        _flip_byte(_chunk_path(pipeline_dir, 1))
        os.remove(_chunk_path(pipeline_dir, 3))
        store_dir = resolve_store_dir(pipeline_dir)
        with open(
            os.path.join(store_dir, "frame-chunk-777777.bin"), "wb"
        ) as handle:
            handle.write(b"leftover")
        _flip_byte(os.path.join(pipeline_dir, "checkpoint.snap"), offset=4)
        report = run_fsck(pipeline_dir)
        kinds = sorted(issue.kind for issue in report.issues)
        assert kinds == [
            "checkpoint_unreadable",
            "chunk_corrupt",
            "chunk_missing",
            "chunk_uncommitted",
        ]

    def test_verification_never_mutates(self, pipeline_dir):
        _flip_byte(_chunk_path(pipeline_dir, 1))
        before = sorted(os.listdir(resolve_store_dir(pipeline_dir)))
        run_fsck(pipeline_dir)
        assert sorted(os.listdir(resolve_store_dir(pipeline_dir))) == before

    def test_rejects_non_directory(self, tmp_path):
        with pytest.raises(CollectionError):
            run_fsck(str(tmp_path / "nope"))


class TestRepair:
    def test_repair_quarantines_and_the_store_reopens(self, pipeline_dir):
        damaged = _chunk_path(pipeline_dir, 1)
        store_dir, manifest = _manifest(pipeline_dir)
        damaged_entry = manifest["chunks"][1]
        _flip_byte(damaged)
        report = run_fsck(pipeline_dir, repair=True)
        assert not report.clean and report.repaired
        # Exact degraded-row accounting: the dropped chunk's per-chain rows.
        assert report.degraded_rows == {
            chain: int(rows) for chain, rows in damaged_entry["chain_rows"].items()
        }
        assert sum(report.degraded_rows.values()) == int(damaged_entry["rows"])
        # The evidence survives in quarantine, outside the chunk globs.
        quarantine = os.path.join(store_dir, QUARANTINE_DIR)
        assert os.path.basename(damaged) in os.listdir(quarantine)
        # The repaired store opens and reports without complaint.
        store = FrameStore.open(store_dir)
        assert store.row_count == int(manifest["row_count"]) - int(
            damaged_entry["rows"]
        )
        assert run_fsck(pipeline_dir).clean

    def test_repaired_pipeline_accepts_update(self, pipeline_dir):
        _flip_byte(_chunk_path(pipeline_dir, 0))
        run_fsck(pipeline_dir, repair=True)
        pipeline = Pipeline(pipeline_dir, chunk_rows=1_000)
        report, stats = pipeline.update()
        assert stats.rows_total == pipeline.store.row_count
        # The figures of the surviving rows: the later chunks' state entries
        # held string codes that moved with the dropped chunk, so repair
        # quarantined them rather than let the update fold them.
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)

    def test_repair_of_a_middle_chunk_quarantines_the_entries_after_it(
        self, pipeline_dir
    ):
        """Dropping a middle chunk moves the string codes of every chunk
        after it; their entries still match their bytes and the series
        anchor, so only repair stands between them and an update."""
        _flip_byte(_chunk_path(pipeline_dir, 1))
        report = run_fsck(pipeline_dir, repair=True)
        moved = [issue for issue in report.issues if "codes moved" in issue.detail]
        _, manifest = _manifest(pipeline_dir)
        assert len(moved) == len(manifest["chunks"]) - 1
        pipeline = Pipeline(pipeline_dir, chunk_rows=1_000)
        report, _stats = pipeline.update()
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)

    def test_repair_also_quarantines_the_stale_checkpoint(self, pipeline_dir):
        """Dropping a chunk leaves the watermark past the store: both go."""
        _flip_byte(_chunk_path(pipeline_dir, 0))
        report = run_fsck(pipeline_dir, repair=True)
        kinds = {issue.kind for issue in report.issues}
        assert "chunk_corrupt" in kinds
        assert "checkpoint_stale" in kinds
        assert all(issue.repair == "quarantined" for issue in report.issues)
        assert not os.path.exists(os.path.join(pipeline_dir, "checkpoint.snap"))

    def test_repair_quarantines_a_checkpoint_whose_states_cover_a_dropped_chunk(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        """Equal chunks: after dropping chunk 0 the watermark still lands on
        a chunk boundary inside the store, but the states under it count
        rows that are gone, so repair must quarantine the checkpoint."""
        root = str(tmp_path / "data")
        pipeline = Pipeline(root, chunk_rows=1_000)
        pipeline.set_analysis_config(frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(sample_records[:2_000])
        pipeline.update()
        pipeline.ingest_records(sample_records[2_000:4_000])
        pipeline.store.flush()
        _, manifest = _manifest(root)
        assert [int(entry["rows"]) for entry in manifest["chunks"]] == [1_000] * 4
        _flip_byte(_chunk_path(root, 0))
        report = run_fsck(root, repair=True)
        stale = [issue for issue in report.issues if issue.kind == "checkpoint_stale"]
        assert [issue.repair for issue in stale] == ["quarantined"]
        assert not os.path.exists(os.path.join(root, "checkpoint.snap"))
        pipeline = Pipeline(root, chunk_rows=1_000)
        assert pipeline.store.row_count == 3_000
        report, _stats = pipeline.update()
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)

    def test_repair_preserves_uncommitted_files(self, pipeline_dir):
        store_dir = resolve_store_dir(pipeline_dir)
        leftover = os.path.join(store_dir, "frame-chunk-424242.bin")
        with open(leftover, "wb") as handle:
            handle.write(b"crash leftover")
        report = run_fsck(pipeline_dir, repair=True)
        assert [issue.kind for issue in report.issues] == ["chunk_uncommitted"]
        assert not os.path.exists(leftover)
        quarantined = os.listdir(os.path.join(store_dir, QUARANTINE_DIR))
        assert "frame-chunk-424242.bin" in quarantined

    def test_kept_entries_carry_the_deltas_a_fresh_walk_computes(self, pipeline_dir):
        _flip_byte(_chunk_path(pipeline_dir, 0))
        run_fsck(pipeline_dir, repair=True)
        store_dir, manifest = _manifest(pipeline_dir)
        assert _fresh_walk_deltas(store_dir) == [entry["pools"] for entry in manifest["chunks"]]
        # The store opens from the manifest alone and answers.
        store = FrameStore.open(store_dir)
        assert store.row_count == int(manifest["row_count"])
        assert store.pool_values() == _frame_pools(store)

    def test_repair_completes_entries_left_without_pool_deltas(self, pipeline_dir):
        """A store an earlier repair left with delta-less entries: fsck names
        them, open refuses them, and ``--repair`` fills them in."""
        store_dir, manifest = _manifest(pipeline_dir)
        expected = [entry["pools"] for entry in manifest["chunks"]]
        for entry in manifest["chunks"][2:]:
            del entry["pools"]
        with open(os.path.join(store_dir, MANIFEST_NAME), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(CollectionError, match=r"chunk 2 .* lacks pools; run `repro fsck --repair`"):
            FrameStore.open(store_dir)
        found = run_fsck(pipeline_dir)
        incomplete = len(manifest["chunks"]) - 2
        assert [issue.kind for issue in found.issues] == ["manifest_entry_incomplete"] * incomplete
        repaired = run_fsck(pipeline_dir, repair=True)
        assert {issue.repair for issue in repaired.issues} == {"completed"}
        assert [entry["pools"] for entry in _manifest(pipeline_dir)[1]["chunks"]] == expected
        assert run_fsck(pipeline_dir).clean
        store = FrameStore.open(store_dir)
        assert store.pool_values() == _frame_pools(store)

    @pytest.mark.parametrize("key", ["rows", "file", "compressed_bytes"])
    def test_repair_drops_an_entry_its_chunk_cannot_be_verified_against(self, pipeline_dir, key):
        store_dir, manifest = _manifest(pipeline_dir)
        damaged_entry = dict(manifest["chunks"][-1])
        del manifest["chunks"][-1][key]
        with open(os.path.join(store_dir, MANIFEST_NAME), "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        found = run_fsck(pipeline_dir)
        incomplete = [issue for issue in found.issues if issue.kind == "manifest_entry_incomplete"]
        assert len(incomplete) == 1 and key in incomplete[0].detail
        report = run_fsck(pipeline_dir, repair=True)
        assert report.degraded_rows == {
            chain: int(rows) for chain, rows in damaged_entry["chain_rows"].items()
        }
        quarantined = os.listdir(os.path.join(store_dir, QUARANTINE_DIR))
        assert damaged_entry["file"] in quarantined
        assert run_fsck(pipeline_dir).clean
        store = FrameStore.open(store_dir)
        assert store.row_count == int(manifest["row_count"]) - int(damaged_entry["rows"])

    def test_repair_quarantines_chunk_files_without_a_manifest(self, pipeline_dir):
        store_dir = resolve_store_dir(pipeline_dir)
        os.remove(os.path.join(store_dir, MANIFEST_NAME))
        chunk_files = sorted(name for name in os.listdir(store_dir) if name.startswith("frame-chunk-"))
        with pytest.raises(CollectionError, match="no manifest commits them"):
            FrameStore.open(store_dir)
        found = run_fsck(pipeline_dir)
        assert [issue.kind for issue in found.issues if issue.kind != "checkpoint_stale"] == [
            "manifest_missing"
        ] + ["chunk_uncommitted"] * len(chunk_files)
        report = run_fsck(pipeline_dir, repair=True)
        assert report.issues[0].kind == "manifest_missing"
        assert report.issues[0].repair == "completed"
        quarantined = sorted(os.listdir(os.path.join(store_dir, QUARANTINE_DIR)))
        assert [name for name in quarantined if name.startswith("frame-chunk-")] == chunk_files
        _, manifest = _manifest(pipeline_dir)
        assert manifest["chunks"] == [] and manifest["row_count"] == 0
        assert FrameStore.open(store_dir).row_count == 0
        assert run_fsck(pipeline_dir).clean


def _fresh_walk_deltas(store_dir):
    """Each committed chunk's pool deltas, recomputed from the payloads."""
    pools = {name: {} for name in POOL_NAMES}
    store = FrameStore.open(store_dir)
    return [
        absorb_pool_deltas(pools, store.chunk_payload(index)["pools"])
        for index in range(store.committed_chunk_count)
    ]


def _frame_pools(store):
    frame = store.to_frame()
    return {name: list(getattr(frame, name).values) for name in POOL_NAMES}
