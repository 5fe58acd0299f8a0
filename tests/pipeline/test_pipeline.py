"""The durable pipeline directory: sessions, crash recovery, crawl ingest.

Covers the operational story end to end: a pipeline directory is built
across several "sessions" (fresh :class:`Pipeline` objects over the same
root), killed mid-chunk, reopened, crawled into — and after every
misadventure, ``update`` converges to the batch-identical report.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import tracemalloc

import pytest

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection import chunkformat
from repro.collection.endpoints import EndpointPool, EndpointProfile
from repro.collection.store import FrameStore
from repro.common import faults
from repro.common.columns import NUMERIC_TYPECODES, TxFrame
from repro.common.errors import CollectionError
from repro.common.records import ChainId
from repro.common.rng import DeterministicRng
from repro.eos.rpc import EosRpcEndpoint
from repro.pipeline import (
    Pipeline,
    frozen_analysis_config,
    pending_batches,
    run_fsck,
    scenario_generators,
    tail_crawl,
)
from repro.scenarios import get_scenario

from tests.support.reports import assert_reports_identical, assert_update_identical

#: A torn write, a foreign file and a document nested past the decoder's
#: recursion limit: what ``fsck`` calls ``meta_unreadable``.
UNREADABLE_METAS = (
    '{"version": 1, "oracle',
    "[]",
    pytest.param("[" * 100_000, id="too_deep"),
)


@pytest.fixture(scope="module")
def sample_records(eos_records, tezos_records, xrp_records):
    """A cross-chain slice small enough to re-compress repeatedly."""
    return eos_records[:4000] + tezos_records[:2000] + xrp_records[:4000]


@pytest.fixture(scope="module")
def frozen_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def frozen_clusterer(xrp_generator, sample_records):
    live = AccountClusterer(xrp_generator.ledger.accounts)
    addresses = {record.sender for record in sample_records} | {
        record.receiver for record in sample_records
    }
    return StaticAccountClusterer.from_clusterer(live, sorted(addresses))


def _configured(root, frozen_oracle, frozen_clusterer, chunk_rows=1000) -> Pipeline:
    pipeline = Pipeline(str(root), chunk_rows=chunk_rows)
    if not pipeline.has_analysis_config():
        pipeline.set_analysis_config(frozen_oracle, frozen_clusterer)
    return pipeline


class TestPipelineSessions:
    def test_multi_session_ingest_matches_batch(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        """Three sessions, each ingest+update; final report == batch run."""
        third = len(sample_records) // 3
        batches = [
            sample_records[:third],
            sample_records[third : 2 * third],
            sample_records[2 * third :],
        ]
        report = None
        for batch in batches:
            pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
            pipeline.ingest_records(iter(batch))
            report, stats = pipeline.update()
            del pipeline  # session ends; everything must be on disk
        assert stats.rows_scanned == len(batches[-1])
        assert stats.incremental
        final = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        oracle, clusterer = final.analysis_config()
        expected = full_report(final.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_update_with_workers_matches(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        """With a checkpoint or without, a scan of many chunks is pooled;
        same figures."""
        split = len(sample_records) // 2
        ingest = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        ingest.ingest_records(iter(sample_records[:split]))
        cold = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        _, stats = cold.update(workers=2)
        assert stats.workers == 2
        cold.ingest_records(iter(sample_records[split:]))
        report, stats = cold.update(workers=2)
        assert stats.workers == 2  # five new chunks: a pool again
        assert stats.incremental
        oracle, clusterer = cold.analysis_config()
        expected = full_report(cold.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=False)

    def test_watermark_tracks_checkpoint(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        assert pipeline.watermark == 0
        pipeline.ingest_records(iter(sample_records[:500]))
        pipeline.update()
        assert pipeline.watermark == 500
        reopened = Pipeline(str(tmp_path))
        assert reopened.watermark == 500
        assert reopened.store.row_count == 500


class TestCrashRecovery:
    """Satellite: kill an ingest mid-chunk, reopen, converge anyway."""

    def _seed(self, root, records, frozen_oracle, frozen_clusterer):
        pipeline = _configured(root, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(records))
        pipeline.update()
        return pipeline

    def test_uncommitted_partial_chunk_cleaned_and_converges(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        half = len(sample_records) // 2
        pipeline = self._seed(
            tmp_path, sample_records[:half], frozen_oracle, frozen_clusterer
        )
        frames_dir = pipeline.frames_dir
        committed = sorted(glob.glob(os.path.join(frames_dir, "frame-chunk-*")))
        # Simulate dying mid-chunk: a partial file appears on disk but the
        # manifest (the commit point) was never updated.
        with open(committed[0], "rb") as handle:
            blob = handle.read()
        stale = os.path.join(frames_dir, f"frame-chunk-{len(committed):06d}.json.gz")
        with open(stale, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        del pipeline

        reopened = Pipeline(str(tmp_path))
        assert stale in reopened.store.cleaned_paths
        assert not os.path.exists(stale)
        assert reopened.store.row_count == half
        # The "lost" rows are re-ingested and update converges.
        reopened.ingest_records(iter(sample_records[half:]))
        report, stats = reopened.update()
        assert stats.incremental
        oracle, clusterer = reopened.analysis_config()
        expected = full_report(reopened.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    @pytest.mark.parametrize("mode", ["crash", "truncate", "torn"])
    def test_a_crash_in_the_first_chunk_write_leaves_a_usable_pipeline(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, mode
    ):
        """The first batch dies writing the store's first chunk; the next
        process cleans the partial, re-ingests and updates."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        plan = faults.FaultPlan.parse(f"store.chunk_write:mode={mode}:nth=1")
        with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
            pipeline.ingest_records(iter(sample_records))
        del pipeline

        reopened = Pipeline(str(tmp_path), chunk_rows=1000)
        assert reopened.store.flushed_rows == 0
        assert [os.path.basename(path) for path in reopened.store.cleaned_paths] == [
            "frame-chunk-000000.v3.bin"
        ]
        reopened.ingest_records(iter(sample_records))
        report, _stats = reopened.update()
        assert reopened.store.flushed_rows == len(sample_records)
        oracle, clusterer = reopened.analysis_config()
        expected = full_report(reopened.frame, oracle=oracle, clusterer=clusterer)
        assert_update_identical(report, reopened, expected)

    def test_torn_committed_chunk_truncates_and_converges(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        pipeline = self._seed(
            tmp_path, sample_records, frozen_oracle, frozen_clusterer
        )
        frames_dir = pipeline.frames_dir
        committed = sorted(glob.glob(os.path.join(frames_dir, "frame-chunk-*")))
        # Tear the last committed chunk (size no longer matches the manifest).
        with open(committed[-1], "rb") as handle:
            blob = handle.read()
        with open(committed[-1], "wb") as handle:
            handle.write(blob[: len(blob) - 7])
        del pipeline

        reopened = Pipeline(str(tmp_path))
        assert committed[-1] in reopened.store.cleaned_paths
        rows_after_truncation = reopened.store.row_count
        assert rows_after_truncation < len(sample_records)
        # The checkpoint now covers more rows than exist: update must fall
        # back to a full rescan instead of trusting it — and re-ingesting
        # the lost tail converges to the batch-identical report.
        lost = len(sample_records) - rows_after_truncation
        reopened.ingest_records(iter(sample_records[-lost:]))
        report, _ = reopened.update()
        oracle, clusterer = reopened.analysis_config()
        expected = full_report(reopened.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_corrupt_checkpoint_falls_back_to_full_rescan(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        pipeline = self._seed(
            tmp_path, sample_records, frozen_oracle, frozen_clusterer
        )
        with open(pipeline.checkpoints.path, "wb") as handle:
            handle.write(b"not a pickle")
        del pipeline
        reopened = Pipeline(str(tmp_path))
        report, stats = reopened.update()
        assert not stats.used_checkpoint
        # Folded from chunk zero — from the entries the seeding update wrote.
        assert stats.rows_scanned == 0
        oracle, clusterer = reopened.analysis_config()
        expected = full_report(reopened.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    @pytest.mark.parametrize("content", UNREADABLE_METAS)
    def test_unreadable_meta_is_a_collection_error_and_is_kept(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, content
    ):
        """The meta holds the frozen config and crawl holes: never reset it."""
        pipeline = self._seed(
            tmp_path, sample_records[:1500], frozen_oracle, frozen_clusterer
        )
        with open(pipeline.meta_path, "w", encoding="utf-8") as handle:
            handle.write(content)
        del pipeline
        with pytest.raises(CollectionError, match="pipeline meta .*meta.json"):
            Pipeline(str(tmp_path))
        with open(os.path.join(tmp_path, "meta.json"), encoding="utf-8") as handle:
            assert handle.read() == content

    @pytest.mark.parametrize(
        "field, value",
        [("oracle_rates", [["XRP"]]), ("clusters", [1, 2]), ("clusters", None)],
        ids=["oracle_malformed", "clusters_malformed", "clusters_missing"],
    )
    def test_malformed_analysis_config_is_a_collection_error_and_is_kept(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, field, value
    ):
        """The frozen oracle / cluster map decodes at open, or nothing runs."""
        pipeline = self._seed(
            tmp_path, sample_records[:1500], frozen_oracle, frozen_clusterer
        )
        meta = dict(pipeline.meta)
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        content = json.dumps(meta)
        with open(pipeline.meta_path, "w", encoding="utf-8") as handle:
            handle.write(content)
        del pipeline
        with pytest.raises(CollectionError, match=f"pipeline meta .*meta.json.*{field}"):
            Pipeline(str(tmp_path))
        with open(os.path.join(tmp_path, "meta.json"), encoding="utf-8") as handle:
            assert handle.read() == content


class TestCrawlIngest:
    """The crawler's frame-sink path feeding a pipeline directory."""

    def _pool(self, chain):
        endpoints = [
            EosRpcEndpoint(
                chain, profile=EndpointProfile(name=f"e{i}"), rng=DeterministicRng(i)
            )
            for i in range(2)
        ]
        return EndpointPool(endpoints)

    def _chain(self, eos_generator):
        # The session-scoped generator retains the simulated chain with all
        # generated blocks — a ready-made RPC backend.
        return eos_generator.chain

    def test_tail_crawl_ingests_only_above_watermark(self, tmp_path, eos_generator):
        chain = self._chain(eos_generator)
        blocks = len(eos_generator.blocks)
        pipeline = Pipeline(str(tmp_path), chunk_rows=2000)
        with pytest.raises(Exception):
            tail_crawl(pipeline, self._pool(chain), ChainId.EOS)  # unbounded cold start
        report = tail_crawl(
            pipeline, self._pool(chain), ChainId.EOS, backfill_blocks=blocks
        )
        assert report.blocks_fetched > 0
        bounds = pipeline.store.height_bounds(ChainId.EOS)
        assert bounds is not None and bounds[1] == chain.head_height
        rows_first = pipeline.store.row_count
        # Second tail crawl: the head has not moved, nothing to fetch.
        second = tail_crawl(pipeline, self._pool(chain), ChainId.EOS)
        assert second.blocks_fetched in (0, report.blocks_fetched)
        assert pipeline.store.row_count == rows_first

    def test_failed_blocks_become_missing_heights_and_are_retried(
        self, tmp_path, eos_generator, eos_records
    ):
        """A failed fetch is a tracked hole, not silent data loss."""
        from repro.common.errors import RpcError

        class FlakyEndpoint:
            """Delegates to a real endpoint but fails selected heights."""

            chain_name = "eos"

            def __init__(self, inner, fail_heights):
                self.inner = inner
                self.fail_heights = fail_heights

            @property
            def name(self):
                return self.inner.name

            def head_height(self, now):
                return self.inner.head_height(now)

            def fetch_block(self, height, now):
                if height in self.fail_heights:
                    raise RpcError(500, f"synthetic outage for {height}")
                return self.inner.fetch_block(height, now)

            def latency(self):
                return self.inner.latency()

        chain = self._chain(eos_generator)
        blocks = len(eos_generator.blocks)
        hole = chain.head_height - 3
        fail_heights = {hole}
        pool = EndpointPool(
            [
                FlakyEndpoint(endpoint, fail_heights)
                for endpoint in self._pool(chain).endpoints
            ]
        )
        pipeline = Pipeline(str(tmp_path), chunk_rows=5000)
        report = tail_crawl(
            pipeline, pool, ChainId.EOS, backfill_blocks=blocks,
            max_attempts_per_block=2,
        )
        assert report.failed_blocks == [hole]
        assert pipeline.missing_heights(ChainId.EOS) == [hole]
        lost_rows = len(chain.block_at(hole).transactions)
        assert pipeline.store.row_count == len(eos_records) - lost_rows
        # The hole is not papered over by the contiguous-bounds answer.
        assert hole not in pipeline.sink(
            ChainId.EOS, missing_heights=pipeline.missing_heights(ChainId.EOS)
        )
        # The outage ends; the next tick retries the hole and fills it.
        fail_heights.clear()
        second = tail_crawl(pipeline, pool, ChainId.EOS)
        assert second.failed_blocks == []
        assert pipeline.missing_heights(ChainId.EOS) == []
        assert pipeline.store.row_count == len(eos_records)
        report, _ = pipeline.update()
        expected = full_report(pipeline.frame)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_crawled_rows_analyse_identically_to_generated(
        self, tmp_path, eos_generator, eos_records
    ):
        chain = self._chain(eos_generator)
        pipeline = Pipeline(str(tmp_path), chunk_rows=5000)
        tail_crawl(
            pipeline,
            self._pool(chain),
            ChainId.EOS,
            backfill_blocks=len(eos_generator.blocks),
        )
        report, _ = pipeline.update()
        expected = full_report(pipeline.frame)
        assert_reports_identical(report, expected, exact_flows=True)
        # The sink stored every generated transaction, in block order.
        assert pipeline.store.row_count == len(eos_records)


# -- an update decodes only what it did not commit itself --------------------------------

LIVE_BATCH_SECONDS = 6 * 3600.0


def _live_tail_pipeline(root) -> tuple:
    """A fresh ``live_tail`` pipeline and its pending six-hour batches."""
    pipeline = Pipeline(str(root))
    generators = scenario_generators(get_scenario("live_tail", seed=7))
    pipeline.set_analysis_config(*frozen_analysis_config(generators))
    return pipeline, pending_batches(pipeline, generators, LIVE_BATCH_SECONDS)


def _assert_frames_equal(actual: TxFrame, expected: TxFrame) -> None:
    for name in NUMERIC_TYPECODES:
        assert getattr(actual, name) == getattr(expected, name), name
    assert actual.transaction_id == expected.transaction_id
    assert actual.metadata == expected.metadata
    for pool in ("types", "accounts", "currencies", "errors"):
        assert getattr(actual, pool).values == getattr(expected, pool).values, pool
    assert actual.chains() == expected.chains()
    for chain in expected.chains():
        assert actual.chain_bounds(chain) == expected.chain_bounds(chain)
        assert list(actual.chain_view(chain).rows) == list(expected.chain_view(chain).rows)
    assert actual.timestamps_sorted == expected.timestamps_sorted


def _failing_after(records, count):
    yield from records[:count]
    raise RuntimeError("record source died")


def _batch_records(blocks, skip_rows):
    records = (record for block in blocks for record in block.transactions)
    return itertools.islice(records, skip_rows, None)


class TestCommitHandOff:
    """An ingest hands the pipeline the payloads of the chunks it committed,
    and an update scans those: it decodes only chunks another writer
    committed, and the pipeline holds no frame.

    The forty-batch tests check per cycle what a cycle can change — the
    chunks it committed, the manifest and the report — against a reference
    frame built from the batches, and decode the whole store once, at the
    end.
    """

    def test_store_rows_equal_per_row_append(self, tmp_path):
        """Forty live_tail batches: the store's rows == per-row append."""
        pipeline, batches = _live_tail_pipeline(tmp_path)
        reference = TxFrame()
        cycles = 0
        for _index, _end, blocks, skip_rows in batches:
            first = pipeline.store.committed_chunk_count
            start = len(reference)
            for record in _batch_records(blocks, skip_rows):
                reference.append(record)
            pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
            reopened = FrameStore.open(pipeline.frames_dir)
            assert reopened.row_count == pipeline.store.row_count == len(reference)
            assert reopened.chain_row_counts() == {
                chain.value: len(reference.chain_view(chain).rows)
                for chain in reference.chains()
            }
            assert reopened.pool_values() == {
                pool: getattr(reference, pool).values
                for pool in ("types", "accounts", "currencies", "errors")
            }
            committed = [
                TxFrame.from_payload(reopened.chunk_payload(index))
                for index in range(first, reopened.committed_chunk_count)
            ]
            assert list(TxFrame.concat(committed).iter_records()) == list(
                TxFrame.from_payload(reference.to_payload(range(start, len(reference))))
                .iter_records()
            )
            cycles += 1
        assert cycles == 40
        _assert_frames_equal(pipeline.frame, reference)
        _assert_frames_equal(FrameStore.open(pipeline.frames_dir).to_frame(), reference)

    def test_happy_path_appends_no_row_and_rereads_no_chunk(self, tmp_path, monkeypatch):
        """Each cycle touches the new rows once: no per-row append, no decode."""
        cycle_running = False
        decode_chunk = chunkformat.decode_chunk

        def forbidden(*args, **kwargs):
            raise AssertionError("the ingest→update cycle left its one path")

        def decode_outside_a_cycle(*args, **kwargs):
            if cycle_running:
                forbidden()
            return decode_chunk(*args, **kwargs)

        monkeypatch.setattr(TxFrame, "append", forbidden)
        monkeypatch.setattr(chunkformat, "decode_chunk", decode_outside_a_cycle)
        pipeline, batches = _live_tail_pipeline(tmp_path)
        reference = TxFrame()
        cycles = 0
        for _index, _end, blocks, skip_rows in batches:
            cycle_running = True
            pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
            report, stats = pipeline.update()
            cycle_running = False
            assert stats.rows_scanned == stats.rows_total - stats.watermark_before
            reference.extend(_batch_records(blocks, skip_rows))
            expected = full_report(reference, *pipeline.analysis_config())
            assert_reports_identical(report, expected, exact_flows=False)
            cycles += 1
        assert cycles == 40
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)

    @pytest.mark.parametrize("resident", [True, False], ids=["resident", "cold"])
    def test_failing_record_source_never_runs_the_frame_ahead(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, resident
    ):
        """A dying record source leaves committed chunks and staged rows; the
        next update commits the staged tail and scans exactly what its
        checkpoint (``resident``: one taken before the failure) lacks."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records[:1500]))
        if resident:
            pipeline.update()
        with pytest.raises(RuntimeError, match="record source died"):
            pipeline.ingest_records(_failing_after(sample_records[1500:], 2700))
        # Two chunks were committed (and handed over); 700 rows stay staged.
        assert pipeline.store.flushed_rows == 3500
        assert pipeline.store.staged_rows == 700
        report, stats = pipeline.update()  # commits the staged tail first
        assert pipeline.store.flushed_rows == stats.rows_total == 4200
        assert stats.rows_scanned == 4200 - (1500 if resident else 0)
        oracle, clusterer = pipeline.analysis_config()
        rehydrated = FrameStore.open(pipeline.frames_dir).to_frame()
        _assert_frames_equal(pipeline.frame, rehydrated)
        assert_update_identical(
            report, pipeline, full_report(rehydrated, oracle=oracle, clusterer=clusterer)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "store.chunk_write:mode=crash:nth=2",
            "store.chunk_write:mode=truncate:nth=2",
            "store.chunk_write:mode=torn:nth=2",
            "store.manifest_commit:mode=crash:nth=2",
        ],
    )
    def test_crash_between_commit_and_hand_off_keeps_the_invariant(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, spec
    ):
        """Only a commit that returned hands its payload over."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records[:1000]))
        with faults.use_plan(faults.FaultPlan.parse(spec)):
            with pytest.raises(faults.InjectedCrash):
                pipeline.ingest_records(iter(sample_records[1000:]))
        # Chunk 1 went through whole (chunk 0 aged out of the one chunk's
        # worth of rows held); the faulted chunk 2 was never handed over.
        assert list(pipeline._held) == [1]
        del pipeline  # the process "died": only the directory survives

        reopened = Pipeline(str(tmp_path), chunk_rows=1000)
        assert reopened.store.flushed_rows == 2000
        reopened.ingest_records(iter(sample_records[2000:]))
        report, _stats = reopened.update()
        assert reopened.store.flushed_rows == len(sample_records)
        oracle, clusterer = reopened.analysis_config()
        rehydrated = FrameStore.open(reopened.frames_dir).to_frame()
        assert_update_identical(
            report, reopened, full_report(rehydrated, oracle=oracle, clusterer=clusterer)
        )

    @pytest.mark.parametrize(
        "stop, nth", [(2000, 1), (None, 2)], ids=["held", "decoded"]
    )
    def test_silently_corrupted_chunk_write_still_follows_in_memory(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, stop, nth
    ):
        """``bitflip`` damages the file, not the commit.  The update scans
        the payloads it holds — the newest chunk_rows rows — whole, so a
        flipped chunk among them still counts (``held``); an older flipped
        chunk is decoded from disk and fails its checksum (``decoded``).
        Either way fsck reports the chunk."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records[:1000]))
        with faults.use_plan(
            faults.FaultPlan.parse(f"store.chunk_write:mode=bitflip:nth={nth}")
        ):
            pipeline.ingest_records(iter(sample_records[1000:stop]))
        committed = pipeline.store.committed_chunk_count
        assert list(pipeline._held) == [committed - 1]
        if stop is None:
            with pytest.raises(chunkformat.ChunkFormatError, match="checksum"):
                pipeline.update()
        else:
            report, stats = pipeline.update()
            assert stats.rows_scanned == 2000
            oracle, clusterer = pipeline.analysis_config()
            expected = full_report(
                TxFrame.from_records(sample_records[:2000]), oracle=oracle, clusterer=clusterer
            )
            assert_reports_identical(report, expected, exact_flows=False)
        issues = run_fsck(pipeline.root).issues
        assert [(issue.kind, os.path.basename(issue.path)) for issue in issues] == [
            ("chunk_corrupt", f"frame-chunk-{nth:06d}.v3.bin")
        ]

    def test_sink_commits_are_caught_up_from_disk_before_a_hand_off(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer, monkeypatch
    ):
        """Chunks another writer committed are decoded; the pipeline's own are not."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records[:1000]))
        pipeline.update()
        pipeline.store.add_records(iter(sample_records[1000:2000]))  # behind its back
        pipeline.ingest_records(iter(sample_records[2000:3000]))
        decoded = []
        decode_chunk = chunkformat.decode_chunk

        def counting(*args, **kwargs):
            decoded.append(args)
            return decode_chunk(*args, **kwargs)

        monkeypatch.setattr(chunkformat, "decode_chunk", counting)
        report, stats = pipeline.update()
        assert len(decoded) == 1  # the sink's chunk, never the held one
        assert stats.incremental and stats.rows_scanned == 2000
        monkeypatch.undo()
        oracle, clusterer = pipeline.analysis_config()
        expected = full_report(
            TxFrame.from_records(sample_records[:3000]), oracle=oracle, clusterer=clusterer
        )
        assert_update_identical(report, pipeline, expected)


class TestColdUpdateDecodesOnlyTheDelta:
    """A fresh process folds the checkpoint and decodes the chunks past it."""

    @staticmethod
    def _cold_update(root, monkeypatch):
        """``update`` from a freshly opened pipeline: (chunks decoded, traced peak)."""
        decoded = []
        decode_chunk = chunkformat.decode_chunk

        def counting(*args, **kwargs):
            decoded.append(args)
            return decode_chunk(*args, **kwargs)

        monkeypatch.setattr(chunkformat, "decode_chunk", counting)
        tracemalloc.start()
        try:
            report, stats = Pipeline(str(root)).update()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        return report, stats, len(decoded), peak

    def test_one_of_thirty_one_chunks_and_a_flat_peak(self, tmp_path, monkeypatch):
        """30 batches, update, one more batch: a cold update decodes 1 of 31
        chunks, and its traced peak follows the delta, not the archive."""
        pipeline, batches = _live_tail_pipeline(tmp_path)
        peaks = {}
        report = None
        for cycle, (_index, _end, blocks, skip_rows) in enumerate(batches, start=1):
            pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
            if cycle in (19, 30, 39):
                pipeline.update()  # the next cold update sees one new chunk
            if cycle in (20, 31, 40):
                report, stats, decoded, peaks[cycle] = self._cold_update(
                    tmp_path, monkeypatch
                )
                assert decoded == 1 and stats.incremental
                assert stats.rows_scanned == stats.rows_total - stats.watermark_before
                if cycle == 31:
                    assert pipeline.store.committed_chunk_count == 31
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)
        # Batches 20 and 40 are one ~4.5k-row chunk each over 28k and 119k
        # rows of history (the first sixteen batches are ~600 rows, so an
        # earlier probe would compare delta sizes, not history).
        assert peaks[40] <= 1.25 * peaks[20], peaks
