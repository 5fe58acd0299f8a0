"""Tests for the frame-native chunked store."""

import json
import os
from pathlib import Path

import pytest

from repro.common import faults
from repro.common.columns import TxFrame
from repro.common.errors import CollectionError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.collection.store import MANIFEST_ENTRY_KEYS, MANIFEST_NAME, FrameSink, FrameStore

from tests.fixtures import V1_STORE_CHUNKS, V1_STORE_ROWS


def _records(count, chain=ChainId.EOS):
    return [
        TransactionRecord(
            chain=chain,
            transaction_id=f"tx{i}",
            block_height=i,
            timestamp=float(i),
            type="transfer",
            sender=f"user{i % 7}",
            receiver="eosio.token",
            contract="eosio.token",
            amount=float(i) / 10,
            currency="EOS",
            metadata={"memo": "x"} if i % 3 == 0 else {},
        )
        for i in range(count)
    ]


class TestFrameStore:
    def test_rejects_bad_chunk_size(self):
        with pytest.raises(CollectionError):
            FrameStore(chunk_rows=0)

    def test_add_frame_chunks_and_round_trips(self):
        records = _records(25)
        frame = TxFrame.from_records(records)
        store = FrameStore(chunk_rows=10)
        store.add_frame(frame)
        assert store.row_count == 25
        assert store.chunk_count == 3
        assert list(store.to_frame()) == records
        assert list(store.iter_records()) == records

    def test_add_records_streams_through_staging(self):
        records = _records(12)
        store = FrameStore(chunk_rows=5)
        store.add_records(iter(records))
        # Two full chunks flushed, two rows still staged.
        assert store.chunk_count == 3
        assert store.row_count == 12
        assert list(store.to_frame()) == records
        store.flush()
        assert store.compression_stats().chunk_count == 3

    @pytest.mark.parametrize("count", [4, 5, 6, 9, 10, 11, 23])
    def test_add_records_cuts_chunks_at_exactly_chunk_rows(self, count):
        store = FrameStore(chunk_rows=5)
        store.add_records(iter(_records(count)))
        full, staged = divmod(count, 5)
        assert store.chunk_row_counts() == [5] * full
        assert store.staged_rows == staged
        assert list(store.to_frame()) == _records(count)

    def test_add_records_resumes_a_partly_filled_staging_frame(self):
        store = FrameStore(chunk_rows=5)
        store.add_records(_records(3))
        store.add_records(_records(10)[3:])
        assert store.chunk_row_counts() == [5, 5]
        assert store.staged_rows == 0

    def test_add_records_cuts_an_over_full_staging_frame_after_one_more_row(self):
        # stage_records may run past chunk_rows (block-aligned commits); the
        # next streamed row joins that chunk and the cut follows it.
        records = _records(12)
        store = FrameStore(chunk_rows=5)
        store.stage_records(records[:7])
        store.add_records(iter(records[7:]))
        assert store.chunk_row_counts() == [8]
        assert store.staged_rows == 4
        assert list(store.to_frame()) == records

    def test_commits_are_reported_after_the_manifest_has_them(self, tmp_path):
        """``iter_commits`` / ``flush`` hand out each chunk's payload once it is
        durable; a frame extended with them is the rehydrated store."""
        records = _records(23)
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        follower = TxFrame()
        for payload in store.iter_commits(iter(records)):
            follower.extend_from_payload(payload)
            # The commit came first: a reopened store already has these rows.
            assert FrameStore.open(str(tmp_path)).row_count == len(follower)
            assert len(follower) == store.flushed_rows
        assert len(follower) == 20 and store.staged_rows == 3
        follower.extend_from_payload(store.flush())
        assert store.flush() is None  # nothing staged: nothing committed
        rehydrated = FrameStore.open(str(tmp_path)).to_frame()
        assert list(follower) == list(rehydrated) == records
        for pool in ("types", "accounts", "currencies", "errors"):
            assert getattr(follower, pool).values == getattr(rehydrated, pool).values

    def test_chunk_chain_stats_match_a_row_loop(self):
        from repro.collection.store import _payload_chain_stats

        records = _records(4, ChainId.XRP) + _records(9) + _records(3, ChainId.XRP)
        payload = TxFrame.from_records(records).to_payload(arrays=True)
        heights, times, chain_rows = _payload_chain_stats(payload)
        for chain in ("xrp", "eos"):
            rows = [record for record in records if record.chain.value == chain]
            assert heights[chain] == [
                min(record.block_height for record in rows),
                max(record.block_height for record in rows),
            ]
            assert times[chain] == [
                min(record.timestamp for record in rows),
                max(record.timestamp for record in rows),
            ]
        # First-seen chain order: the dicts are serialised into the manifest.
        assert list(heights) == list(times) == list(chain_rows) == ["xrp", "eos"]
        assert chain_rows == {"xrp": 7, "eos": 9}
        assert all(type(bound) is int for bounds in heights.values() for bound in bounds)
        assert all(type(bound) is float for bounds in times.values() for bound in bounds)
        empty = TxFrame().to_payload(arrays=True)
        assert _payload_chain_stats(empty) == ({}, {}, {})

    def test_compression_accounting(self):
        store = FrameStore(chunk_rows=50)
        store.add_frame(TxFrame.from_records(_records(50)))
        stats = store.compression_stats()
        assert stats.chunk_count == 1
        assert 0 < stats.compressed_bytes < stats.raw_bytes

    def test_disk_spill(self, tmp_path):
        records = _records(8)
        store = FrameStore(chunk_rows=4, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(records))
        stored_files = list(tmp_path.glob("frame-chunk-*.bin"))
        assert len(stored_files) == 2
        assert list(store.to_frame()) == records

    def test_disk_spill_v1(self, v1_store_dir):
        """A v1 (gzip-JSON) archive written by an older version still reads."""
        store = FrameStore.open(v1_store_dir)
        stored_files = list(Path(v1_store_dir).glob("frame-chunk-*.json.gz"))
        assert len(stored_files) == store.chunk_count == V1_STORE_CHUNKS
        assert len(store.to_frame()) == store.row_count == V1_STORE_ROWS
        assert store.chain_row_counts() == {"eos": 150, "tezos": 100, "xrp": 130}

    def test_columnar_beats_per_record_compression(self):
        """The columnar payload compresses tighter than per-record dicts.

        The claim is about the columnar *layout* vs per-record dicts under
        the same gzip-JSON serialiser (the v2 binary chunk format trades a
        little size for decode speed).
        """
        import gzip

        def gzip_json(payload):
            return len(gzip.compress(json.dumps(payload, sort_keys=True).encode("utf-8")))

        records = _records(200)
        columnar = gzip_json(TxFrame.from_records(records).to_payload())
        per_record = gzip_json([record.to_dict() for record in records])
        assert columnar < per_record

    def test_to_frame_shares_equal_metadata_dicts_within_a_chunk(self, tmp_path):
        """A rehydrated store holds every row at once, so one chunk's equal
        metadata dicts become one object (a ``live_tail`` archive rebuilt
        after forty ingest batches peaks ≈17 MB lower for it); values and
        record round trips are unchanged."""
        records = _records(25)
        store = FrameStore(directory=str(tmp_path), chunk_rows=10)
        store.add_records(iter(records))
        store.flush()
        frame = FrameStore.open(str(tmp_path)).to_frame()
        assert list(frame) == records
        metadata = list(frame.metadata)
        for start in (0, 10, 20):
            memos = [meta for meta in metadata[start : start + 10] if meta]
            assert len(memos) > 1 and len({id(meta) for meta in memos}) == 1


class TestFrameStoreOpen:
    """Cache rehydration: a directory-backed store reopens in a new process."""

    def test_open_round_trips_rows(self, tmp_path):
        records = _records(12)
        writer = FrameStore(chunk_rows=5, directory=str(tmp_path))
        writer.add_frame(TxFrame.from_records(records))
        reopened = FrameStore.open(str(tmp_path))
        assert reopened.row_count == 12
        assert reopened.chunk_count == 3
        assert list(reopened.to_frame()) == records

    def test_open_preserves_analysis_results(self, tmp_path):
        """Worker-style rehydration: analyses over the reopened frame match."""
        from repro.analysis.classify import type_distribution

        records = _records(30)
        frame = TxFrame.from_records(records)
        writer = FrameStore(chunk_rows=10, directory=str(tmp_path))
        writer.add_frame(frame)
        rehydrated = FrameStore.open(str(tmp_path)).to_frame()
        assert type_distribution(rehydrated) == type_distribution(frame)

    def test_open_empty_directory(self, tmp_path):
        store = FrameStore.open(str(tmp_path))
        assert store.row_count == 0
        assert len(store.to_frame()) == 0

    def test_chunk_files_without_a_manifest_are_refused_and_left_alone(self, tmp_path):
        """A store commits its manifest before its first chunk file, so chunk
        files with no manifest were not written by this program."""
        writer = FrameStore(chunk_rows=5, directory=str(tmp_path))
        writer.add_frame(TxFrame.from_records(_records(10)))
        os.remove(tmp_path / MANIFEST_NAME)
        before = sorted(os.listdir(tmp_path))
        with pytest.raises(CollectionError, match="no manifest commits them") as caught:
            FrameStore.open(str(tmp_path))
        assert str(tmp_path) in str(caught.value)
        assert sorted(os.listdir(tmp_path)) == before

    def test_the_empty_manifest_precedes_the_first_chunk_file(self, tmp_path, monkeypatch):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        assert not (tmp_path / MANIFEST_NAME).exists()  # nothing written yet
        written = []
        real_open = open

        def recording_open(path, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(os.path.basename(path))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        store.add_frame(TxFrame.from_records(_records(7)))
        assert written == [
            MANIFEST_NAME + ".tmp",
            "frame-chunk-000000.v3.bin",
            MANIFEST_NAME + ".tmp",
            "frame-chunk-000001.v3.bin",
            MANIFEST_NAME + ".tmp",
        ]


class TestManifest:
    """The manifest is the store's commit point and crash-recovery anchor."""

    def test_manifest_written_per_chunk(self, tmp_path):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(12)))
        with open(tmp_path / MANIFEST_NAME, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["row_count"] == 12
        assert [entry["rows"] for entry in manifest["chunks"]] == [5, 5, 2]
        for entry in manifest["chunks"]:
            path = tmp_path / entry["file"]
            assert path.exists()
            assert os.path.getsize(path) == entry["compressed_bytes"]
        assert manifest["chunks"][0]["heights"]["eos"] == [0, 4]

    def test_manifest_bytes_are_the_streaming_encoder_s(self, tmp_path):
        """``json.dumps`` (one C call) writes what ``json.dump`` used to."""
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_records(iter(_records(200)))
        assert store.committed_chunk_count == 40
        written = (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        reference = tmp_path / "reference.json"
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(json.loads(written), handle)
        assert written == reference.read_text(encoding="utf-8")

    @pytest.mark.parametrize("key", MANIFEST_ENTRY_KEYS)
    def test_an_entry_without_a_key_is_refused_by_name(self, tmp_path, key):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(12)))
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        del manifest["chunks"][1][key]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(CollectionError, match=f"chunk 1 .* lacks {key}; run `repro fsck --repair`"):
            FrameStore.open(str(tmp_path))

    @pytest.mark.parametrize(
        "damage", ["truncated", "not_an_object", "not_utf8", "too_deep"]
    )
    def test_unparsable_manifest_is_a_collection_error(self, tmp_path, damage):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(12)))
        manifest_path = tmp_path / MANIFEST_NAME
        manifest_path.write_bytes(
            {
                "truncated": manifest_path.read_bytes()[:100],
                "not_an_object": b"[1]",
                "not_utf8": b'{"version": "\xff"}',
                # Past the decoder's recursion limit: a RecursionError.
                "too_deep": b"[" * 100_000,
            }[damage]
        )
        with pytest.raises(CollectionError, match="manifest"):
            FrameStore.open(str(tmp_path))

    def test_open_is_lazy_and_preserves_byte_accounting(self, tmp_path):
        writer = FrameStore(chunk_rows=5, directory=str(tmp_path))
        writer.add_frame(TxFrame.from_records(_records(12)))
        written = writer.compression_stats()
        reopened = FrameStore.open(str(tmp_path))
        # Lazy: chunk payloads stay on disk until asked for.
        assert all(chunk.blob is None for chunk in reopened._chunks)
        stats = reopened.compression_stats()
        assert stats.compressed_bytes == written.compressed_bytes
        assert stats.raw_bytes == written.raw_bytes
        assert list(reopened.to_frame()) == list(writer.to_frame())

    def test_flushed_rows_excludes_staging(self, tmp_path):
        store = FrameStore(chunk_rows=10, directory=str(tmp_path))
        store.add_records(iter(_records(14)))
        assert store.row_count == 14
        assert store.flushed_rows == 10  # 4 rows still staged, not durable
        store.flush()
        assert store.flushed_rows == 14

    def test_height_bounds_track_committed_rows(self, tmp_path):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(12)))
        assert store.height_bounds(ChainId.EOS) == (0, 11)
        assert store.height_bounds("eos") == (0, 11)
        assert store.height_bounds(ChainId.XRP) is None
        reopened = FrameStore.open(str(tmp_path))
        assert reopened.height_bounds(ChainId.EOS) == (0, 11)

    def test_append_after_reopen_continues_chunks(self, tmp_path):
        first = FrameStore(chunk_rows=5, directory=str(tmp_path))
        first.add_frame(TxFrame.from_records(_records(10)))
        reopened = FrameStore.open(str(tmp_path))
        more = [
            TransactionRecord(
                chain=ChainId.EOS,
                transaction_id=f"late{i}",
                block_height=100 + i,
                timestamp=100.0 + i,
                type="transfer",
                sender="late",
                receiver="eosio.token",
                contract="eosio.token",
                amount=1.0,
                currency="EOS",
            )
            for i in range(5)
        ]
        reopened.add_records(iter(more))
        reopened.flush()
        assert reopened.row_count == 15
        assert reopened.height_bounds(ChainId.EOS) == (0, 104)
        final = FrameStore.open(str(tmp_path))
        assert final.row_count == 15
        assert [record.transaction_id for record in final.to_frame()][-1] == "late4"


class TestCrashRecovery:
    def _write(self, tmp_path, count=12, chunk_rows=5):
        store = FrameStore(chunk_rows=chunk_rows, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(count)))
        return store

    def test_uncommitted_partial_chunk_is_cleaned(self, tmp_path):
        self._write(tmp_path)
        stale = tmp_path / "frame-chunk-000003.json.gz"
        stale.write_bytes(b"torn-mid-write")
        reopened = FrameStore.open(str(tmp_path))
        assert str(stale) in reopened.cleaned_paths
        assert not stale.exists()
        assert reopened.row_count == 12

    def test_torn_committed_chunk_truncates_store(self, tmp_path):
        self._write(tmp_path)
        torn = tmp_path / "frame-chunk-000002.v3.bin"
        torn.write_bytes(torn.read_bytes()[:-3])
        reopened = FrameStore.open(str(tmp_path))
        assert str(torn) in reopened.cleaned_paths
        assert reopened.row_count == 10  # the 2-row tail chunk is gone
        # The manifest was rewritten: a second open is clean.
        again = FrameStore.open(str(tmp_path))
        assert again.cleaned_paths == []
        assert again.row_count == 10

    def test_torn_middle_chunk_drops_it_and_everything_after(self, tmp_path):
        self._write(tmp_path)
        torn = tmp_path / "frame-chunk-000001.v3.bin"
        torn.write_bytes(b"x")
        reopened = FrameStore.open(str(tmp_path))
        assert reopened.row_count == 5  # only chunk 0 survives
        assert sorted(os.path.basename(p) for p in reopened.cleaned_paths) == [
            "frame-chunk-000001.v3.bin",
            "frame-chunk-000002.v3.bin",
        ]
        # Appending after recovery reuses the freed chunk ids safely.
        reopened.add_records(iter(_records(3)[:0]))  # no-op append
        records = list(reopened.to_frame())
        assert len(records) == 5


class TestFirstChunkCrash:
    """A crash in a fresh store's first chunk write: the empty manifest was
    committed first, so the reopen cleans the partial instead of refusing a
    directory of chunk files without a manifest."""

    @pytest.mark.parametrize("mode", ["crash", "truncate", "torn"])
    def test_reopen_cleans_the_partial_and_appends_work(self, tmp_path, mode):
        records = _records(12)
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        plan = faults.FaultPlan.parse(f"store.chunk_write:mode={mode}:nth=1")
        with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
            store.add_frame(TxFrame.from_records(records))
        assert plan.total_fires == 1
        partial = str(tmp_path / "frame-chunk-000000.v3.bin")
        assert os.path.exists(partial)

        reopened = FrameStore.open(str(tmp_path))
        assert reopened.row_count == reopened.flushed_rows == 0
        assert reopened.cleaned_paths == [partial]
        reopened.add_frame(TxFrame.from_records(records))
        final = FrameStore.open(str(tmp_path))
        assert final.cleaned_paths == []
        assert list(final.to_frame()) == records


class TestFailedChunkWrite:
    """A chunk write that raises folds none of its strings into the store's
    pools, so a caller that retries on the same store object commits them."""

    @pytest.mark.parametrize("mode", ["crash", "truncate"])
    def test_a_retry_on_the_same_store_commits_the_failed_chunk_s_strings(self, tmp_path, mode):
        store = FrameStore(chunk_rows=5, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(5)))
        retried = [
            record._replace(transaction_id=f"n{i}", block_height=10 + i, type=f"kind{i}")
            for i, record in enumerate(_records(5))
        ]
        plan = faults.FaultPlan.parse(f"store.chunk_write:mode={mode}:nth=1")
        with faults.use_plan(plan), pytest.raises(faults.InjectedCrash):
            store.add_frame(TxFrame.from_records(retried))
        assert plan.total_fires == 1
        assert "kind0" not in store.pool_values()["types"]

        store.add_frame(TxFrame.from_records(retried))
        reopened = FrameStore.open(str(tmp_path))
        frame = reopened.to_frame()
        assert reopened.pool_values()["types"] == list(frame.types.values)
        assert store.pool_values() == reopened.pool_values()
        assert list(frame) == _records(5) + retried


class TestFrameSink:
    def _block(self, height, tx_count=2):
        return BlockRecord(
            chain=ChainId.EOS,
            height=height,
            timestamp=float(height),
            producer="prod",
            transactions=tuple(
                TransactionRecord(
                    chain=ChainId.EOS,
                    transaction_id=f"b{height}",  # both actions share one tx
                    block_height=height,
                    timestamp=float(height),
                    type="transfer",
                    sender="alice",
                    receiver="bob",
                    contract="eosio.token",
                    amount=1.0,
                    currency="EOS",
                )
                for i in range(tx_count)
            ),
        )

    def test_reverse_crawl_order_lands_time_sorted(self, tmp_path):
        store = FrameStore(chunk_rows=100, directory=str(tmp_path))
        sink = FrameSink(store, chain=ChainId.EOS)
        for height in (105, 104, 103, 102):  # reverse chronological, like a crawl
            sink.add(self._block(height))
        assert sink.block_count == 4
        assert sink.transaction_count == 4
        assert sink.action_count == 8
        sink.flush()
        frame = store.to_frame()
        assert frame.timestamps_sorted
        assert list(frame.block_height) == [102, 102, 103, 103, 104, 104, 105, 105]

    def test_duplicate_height_rejected(self, tmp_path):
        sink = FrameSink(FrameStore(directory=str(tmp_path)), chain=ChainId.EOS)
        sink.add(self._block(7))
        with pytest.raises(CollectionError):
            sink.add(self._block(7))
        sink.flush()
        with pytest.raises(CollectionError):
            sink.add(self._block(7))

    def test_contains_answers_from_store_bounds(self, tmp_path):
        store = FrameStore(chunk_rows=100, directory=str(tmp_path))
        sink = FrameSink(store, chain=ChainId.EOS)
        sink.add(self._block(10))
        sink.add(self._block(11))
        sink.flush()
        # A fresh sink over the reopened store knows the committed range.
        reopened_sink = FrameSink(FrameStore.open(str(tmp_path)), chain=ChainId.EOS)
        assert 10 in reopened_sink
        assert 11 in reopened_sink
        assert 12 not in reopened_sink


class TestTransactionContiguity:
    """The store invariant ``tx_stats`` counts on: per chain, in row order,
    a transaction's rows are one contiguous run.  Checked where a chunk is
    encoded, before anything is written."""

    @staticmethod
    def _actions(ids, height=1, chain=ChainId.EOS):
        return [
            TransactionRecord(
                chain=chain,
                transaction_id=transaction_id,
                block_height=height,
                timestamp=float(height),
                type="transfer",
                sender="alice",
                receiver="bob",
            )
            for transaction_id in ids
        ]

    def _assert_nothing_committed(self, directory, rows):
        from repro.pipeline import run_fsck

        assert FrameStore.open(directory).row_count == rows
        assert run_fsck(directory).issues == []

    def test_a_sink_refuses_a_block_that_interleaves_two_ids(self, tmp_path):
        directory = str(tmp_path)
        store = FrameStore(chunk_rows=100, directory=directory)
        store.add_records(self._actions(["a", "a", "b"]))
        store.flush()
        sink = FrameSink(store, chain=ChainId.EOS)
        sink.add(
            BlockRecord(
                chain=ChainId.EOS,
                height=2,
                timestamp=2.0,
                producer="prod",
                transactions=tuple(self._actions(["c", "d", "c"], height=2)),
            )
        )
        with pytest.raises(CollectionError, match="interleave"):
            sink.flush()
        self._assert_nothing_committed(directory, rows=3)

    def test_add_records_refuses_an_interleaved_stream(self, tmp_path):
        directory = str(tmp_path)
        store = FrameStore(chunk_rows=4, directory=directory)
        stream = self._actions(["a", "a", "b", "c"]) + self._actions(["d", "e", "d", "f"])
        with pytest.raises(CollectionError, match="interleave"):
            store.add_records(stream)
        self._assert_nothing_committed(directory, rows=4)  # the clean first chunk

    def test_other_chains_rows_between_a_transactions_rows_are_fine(self):
        store = FrameStore(chunk_rows=100)
        store.add_records(
            self._actions(["a"])
            + self._actions(["a"], chain=ChainId.XRP)  # ids are per chain
            + self._actions(["a", "b"])
        )
        store.flush()
        assert store.chain_row_counts() == {"eos": 3, "xrp": 1}

    def test_a_transaction_split_across_chunks_is_counted_once(self, tmp_path):
        from repro.analysis.parallel import parallel_report_from_store

        directory = str(tmp_path)
        store = FrameStore(chunk_rows=3, directory=directory)
        store.add_records(self._actions(["a", "b", "b", "b", "b", "c", "c"]))
        store.flush()
        assert store.chunk_row_counts() == [3, 3, 1]  # "b" and "c" straddle cuts
        for tasks in (1, 3):
            report = parallel_report_from_store(directory, workers=0, tasks=tasks)
            stats = report.chains[ChainId.EOS]["tx_stats"]
            assert (stats.action_count, stats.transaction_count) == (7, 3)
