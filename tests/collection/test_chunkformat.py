"""Tests for the v3 binary columnar chunk format (written) and v1/v2 (read)."""

import gc
import json
import zlib
from pathlib import Path

import pytest

from repro.collection import chunkformat
from repro.collection.chunkformat import (
    MAGIC,
    ChunkFormatError,
    chunk_version,
    decode_chunk,
    encode_chunk,
)
from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache
from repro.cli import _report_to_dict
from repro.collection.store import FrameStore, _decode_chunk_blob
from repro.common.columns import LazyMetadata, TxFrame
from repro.common.errors import CollectionError
from repro.common.records import ChainId, TransactionRecord
from repro.pipeline import run_fsck

from tests.fixtures import V1_STORE_CHUNKS, V1_STORE_ROWS


def _records(count, chain=ChainId.EOS, start_height=0):
    return [
        TransactionRecord(
            chain=chain,
            transaction_id=f"tx-{chain.value}-{i}",
            block_height=start_height + i,
            timestamp=float(start_height + i),
            type="transfer",
            sender=f"user{i % 5}",
            receiver="eosio.token",
            contract="eosio.token",
            amount=float(i) * 1.5,
            currency="EOS",
            metadata={"memo": f"note {i}", "inline": True} if i % 2 else {},
        )
        for i in range(count)
    ]


def _unicode_records(count=10):
    return [
        TransactionRecord(
            chain=ChainId.TEZOS,
            transaction_id=f"op-ü{i}-äπ💸",
            block_height=i,
            timestamp=float(i),
            type="transaction",
            sender=f"tz1-ñ{i}",
            receiver="tz1-受取人",
            contract="",
            amount=1.0,
            currency="XTZ",
            metadata={"memo": f"мемо-{i}-✓", "category": "manager"},
        )
        for i in range(count)
    ]


def _roundtrip(frame, arrays=True):
    blob, raw = encode_chunk(frame.to_payload(arrays=arrays))
    return decode_chunk(blob), blob, raw


class TestRoundTrip:
    def test_records_identical_after_round_trip(self):
        records = _records(40)
        frame = TxFrame.from_records(records)
        payload, _, _ = _roundtrip(frame)
        assert list(TxFrame.from_payload(payload)) == records

    def test_round_trip_from_list_payload(self):
        records = _records(12)
        frame = TxFrame.from_records(records)
        payload, _, _ = _roundtrip(frame, arrays=False)
        assert list(TxFrame.from_payload(payload)) == records

    def test_unicode_ids_and_memos_survive(self):
        records = _unicode_records()
        frame = TxFrame.from_records(records)
        payload, _, _ = _roundtrip(frame)
        assert list(TxFrame.from_payload(payload)) == records

    def test_ragged_multi_chain_frame(self):
        records = (
            _records(7, ChainId.EOS)
            + _records(3, ChainId.XRP, start_height=50)
            + _records(11, ChainId.TEZOS, start_height=100)
        )
        frame = TxFrame.from_records(records)
        payload, _, _ = _roundtrip(frame)
        assert list(TxFrame.from_payload(payload)) == records

    def test_empty_frame(self):
        payload, _, _ = _roundtrip(TxFrame())
        assert payload["rows"] == 0
        assert len(TxFrame.from_payload(payload)) == 0

    def test_none_pool_entries_survive(self):
        """Pools intern ``None`` for optional fields (error_code, contract)."""
        record = TransactionRecord(
            chain=ChainId.XRP,
            transaction_id="t0",
            block_height=1,
            timestamp=1.0,
            type="Payment",
            sender="rAlice",
            receiver="rBob",
            contract=None,
            amount=5.0,
            currency="XRP",
            error_code=None,
        )
        frame = TxFrame.from_records([record])
        payload, _, _ = _roundtrip(frame)
        assert list(TxFrame.from_payload(payload)) == [record]

    def test_chain_stats_header_round_trips(self):
        frame = TxFrame.from_records(_records(9))
        stats = ({"eos": [0, 8]}, {"eos": [0.0, 8.0]}, {"eos": 9})
        blob, _ = encode_chunk(frame.to_payload(arrays=True), chain_stats=stats)
        assert decode_chunk(blob)["chain_stats"] == stats

    def test_encode_is_deterministic(self):
        frame = TxFrame.from_records(_records(30))
        first, _ = encode_chunk(frame.to_payload(arrays=True))
        second, _ = encode_chunk(frame.to_payload(arrays=True))
        assert first == second

    def test_raw_accounting_counts_uncompressed_footprint(self):
        frame = TxFrame.from_records(_records(200))
        _, blob, raw = _roundtrip(frame)
        # Repetitive columns compress, so the uncompressed footprint the
        # store reports must exceed what landed in the blob body.
        assert raw > len(blob) - chunkformat._HEADER_LEN


class TestNumpyDecode:
    def test_numpy_columns_are_zero_copy_ndarrays(self):
        import numpy as np

        frame = TxFrame.from_records(_records(25))
        payload, _, _ = _roundtrip(frame)
        column = payload["columns"]["timestamp"]
        assert isinstance(column, np.ndarray)
        assert not column.flags.writeable  # aliases the decoded bytes
        assert column.tolist() == list(frame.timestamp)


class TestLazyMetadata:
    def test_metadata_decodes_lazily(self):
        frame = TxFrame.from_records(_records(20))
        payload, _, _ = _roundtrip(frame)
        metadata = payload["metadata"]
        assert isinstance(metadata, LazyMetadata)
        assert not metadata.loaded
        assert len(metadata) == 20
        assert metadata[1] == {"memo": "note 1", "inline": True}
        assert metadata.loaded

    def test_frame_defers_parse_until_metadata_read(self):
        frame = TxFrame.from_records(_records(20))
        payload, _, _ = _roundtrip(frame)
        block = payload["metadata"]
        rebuilt = TxFrame.from_payload(payload)
        assert not block.loaded  # numeric load did not force the parse
        assert rebuilt.metadata[1] == {"memo": "note 1", "inline": True}
        assert block.loaded

    def test_lazy_extends_grow_one_list_in_place(self):
        """N catch-ups and reads: one list object, never a re-copy of history."""
        records = _records(40)
        follower, eager = TxFrame(), TxFrame()
        column = follower.metadata
        for start in range(0, 40, 10):
            batch = records[start : start + 10]
            payload, _, _ = _roundtrip(TxFrame.from_records(batch))
            assert isinstance(payload["metadata"], LazyMetadata)
            follower.extend_from_payload(payload)
            eager.extend(batch)
            assert len(column) == start  # the tail waits for the next read
            assert follower.metadata is column
            assert column == eager.metadata

    def test_malformed_lazy_block_leaves_the_column_as_it_was(self):
        def broken():
            raise chunkformat.ChunkFormatError("metadata segment is not JSON")

        frame = TxFrame.from_records(_records(5))
        before = list(frame.metadata)
        good, _, _ = _roundtrip(TxFrame.from_records(_records(3)))
        frame._extend_metadata(good["metadata"])
        frame._extend_metadata(LazyMetadata(2, broken))
        for _attempt in range(2):
            with pytest.raises(chunkformat.ChunkFormatError):
                frame.metadata
        assert frame._meta_runs[0] == before

    def test_empty_metadata_stored_as_none(self):
        frame = TxFrame.from_records(_records(4))
        payload, _, _ = _roundtrip(frame)
        assert payload["metadata"][0] is None
        assert payload["metadata"][1] is not None


#: A metadata segment past the JSON decoder's recursion limit.
_TOO_DEEP = b"[" * 100_000


def _metadata_segment(raw: bytes) -> dict:
    flag, stored = chunkformat._pack_blob(raw)
    return {"z": flag, "r": len(raw), "blob": stored}


class TestMetadataParseCollector:
    """The metadata parse runs with the collector off and restores it as found."""

    @pytest.mark.parametrize(
        "raw, rows, error",
        [
            (b'[{"memo":"a"},null]', 2, None),
            (b'[{"memo":', 2, ChunkFormatError),
            (_TOO_DEEP, 2, ChunkFormatError),
        ],
        ids=["good", "malformed", "too_deep"],
    )
    @pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, raw, rows, error, collecting):
        segment = _metadata_segment(raw)
        was = gc.isenabled()
        if not collecting:
            gc.disable()
        try:
            if error is None:
                assert chunkformat._unpack_metadata(segment, rows) == [{"memo": "a"}, None]
            else:
                with pytest.raises(error, match="malformed"):
                    chunkformat._unpack_metadata(segment, rows)
            assert gc.isenabled() is collecting
        finally:
            if was:
                gc.enable()

    def test_parse_runs_with_the_collector_off(self, monkeypatch):
        seen, parse = [], json.loads

        def loads(text):
            seen.append(gc.isenabled())
            return parse(text)

        monkeypatch.setattr(chunkformat.json, "loads", loads)
        segment = chunkformat._pack_metadata([{"memo": "a"}, {}])
        assert chunkformat._unpack_metadata(segment, 2) == [{"memo": "a"}, None]
        assert seen == [False]
        assert gc.isenabled()


class TestCorruption:
    def _blob(self):
        frame = TxFrame.from_records(_records(30))
        blob, _ = encode_chunk(frame.to_payload(arrays=True))
        return blob

    def test_bit_flip_fails_checksum(self):
        blob = bytearray(self._blob())
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(ChunkFormatError, match="checksum"):
            decode_chunk(bytes(blob))

    def test_truncation_fails_checksum(self):
        blob = self._blob()
        with pytest.raises(ChunkFormatError):
            decode_chunk(blob[:-5])

    def test_foreign_blob_rejected(self):
        with pytest.raises(ChunkFormatError, match="no binary chunk header"):
            decode_chunk(b"\x1f\x8b not a v2 chunk at all")

    def test_valid_checksum_wrong_document_rejected(self):
        body = b"\x00not-a-chunk-document"
        blob = MAGIC + chunkformat._CHECKSUM.pack(zlib.adler32(body)) + body
        with pytest.raises(ChunkFormatError):
            decode_chunk(blob)

    def test_metadata_nested_past_the_decoder_limit(self, monkeypatch):
        """A checksum-valid chunk whose metadata JSON is too deep to parse:
        the read is a ChunkFormatError, never a RecursionError."""
        segment = _metadata_segment(_TOO_DEEP)
        monkeypatch.setattr(chunkformat, "_pack_metadata", lambda metadata, projection: segment)
        blob, _ = encode_chunk(TxFrame.from_records(_records(3)).to_payload(arrays=True))
        monkeypatch.undo()
        payload = decode_chunk(blob)  # the checksum and the structure hold
        with pytest.raises(ChunkFormatError, match="metadata segment is malformed"):
            payload["metadata"][0]

    def test_v1_chunk_nested_past_the_decoder_limit(self):
        import gzip

        with pytest.raises(CollectionError, match="frame chunk 0 is corrupt"):
            _decode_chunk_blob(gzip.compress(_TOO_DEEP), 0)

    def test_chunk_version_dispatch(self):
        assert chunk_version(self._blob()) == 3
        assert chunk_version(b"\x1f\x8b\x08\x00") is None
        assert chunk_version(b"") is None


class TestStoreIntegration:
    def test_mixed_format_store_reads_both(self, v1_store_dir):
        v1 = FrameStore.open(v1_store_dir)
        assert v1.chunk_count == V1_STORE_CHUNKS
        archived = list(v1.to_frame())
        assert len(archived) == V1_STORE_ROWS
        # Appending to a v1 archive writes v3 beside it: old chunks stay v1.
        more = _records(10, start_height=100)
        v1.add_records(iter(more))
        v1.flush()
        names = sorted(path.name for path in Path(v1_store_dir).glob("frame-chunk-*"))
        assert [name.rsplit(".", 1)[-1] for name in names] == ["gz", "gz", "gz", "bin"]
        assert list(FrameStore.open(v1_store_dir).to_frame()) == archived + more

    def test_corrupt_v2_chunk_degrades_like_corrupt_checkpoint(self, tmp_path):
        store = FrameStore(chunk_rows=10, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(10)))
        path = next(tmp_path.glob("frame-chunk-*.bin"))
        blob = bytearray(path.read_bytes())
        blob[-4] ^= 0x01
        path.write_bytes(bytes(blob))
        # Same-size corruption passes the manifest size check; the decode
        # surfaces a CollectionError, not a crash or a silent mis-decode.
        reopened = FrameStore.open(str(tmp_path))
        with pytest.raises(CollectionError, match="corrupt"):
            reopened.to_frame()

    def test_migrate_store_round_trips(self, v1_store_dir, monkeypatch):
        """v1 → v2 in place: same rows, same figures, one commit, clean fsck."""
        assert run_fsck(v1_store_dir).clean
        store = FrameStore.open(v1_store_dir)
        payload = store.to_frame().to_payload()
        figures = json.dumps(_report_to_dict(full_report(store.to_frame())))
        cache = ChunkStateCache.for_store(v1_store_dir)
        parallel_report_from_store(v1_store_dir, workers=1, cache=cache)
        assert cache.stat()["entries"] == V1_STORE_CHUNKS
        commits = []
        write_manifest = FrameStore._write_manifest
        monkeypatch.setattr(
            FrameStore,
            "_write_manifest",
            lambda self: (commits.append(1), write_manifest(self))[1],
        )

        assert store.migrate_format() == V1_STORE_CHUNKS
        assert len(commits) == 1  # the whole migration is one manifest rename
        assert not list(Path(v1_store_dir).glob("frame-chunk-*.json.gz"))
        assert ChunkStateCache.for_store(v1_store_dir).stat()["entries"] == 0
        migrated = FrameStore.open(v1_store_dir)
        assert migrated.to_frame().to_payload() == payload
        assert (
            json.dumps(_report_to_dict(full_report(migrated.to_frame()))) == figures
        )
        assert run_fsck(v1_store_dir).clean
        assert migrated.migrate_format() == 0

    def test_migrate_is_a_noop_on_matching_format(self, tmp_path):
        store = FrameStore(chunk_rows=10, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(10)))
        assert store.migrate_format() == 0

    @pytest.mark.parametrize("bit", [0x01, 0x40, 0xFF])
    def test_damaged_v1_blob_raises_collection_error(self, v1_store_dir, bit):
        """Never a crash, never a silent mis-decode — only ``CollectionError``."""
        blob = next(Path(v1_store_dir).glob("frame-chunk-*.json.gz")).read_bytes()
        intact = _decode_chunk_blob(blob, 0)
        for cut in (1, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CollectionError, match="corrupt"):
                _decode_chunk_blob(blob[:cut], 0)
        rejected = 0
        for index in range(0, len(blob), 7):
            damaged = blob[:index] + bytes([blob[index] ^ bit]) + blob[index + 1 :]
            try:
                # A flip gzip cannot see (header mtime/OS bytes, deflate
                # padding, unused Huffman codes) must leave the rows intact.
                assert _decode_chunk_blob(damaged, 0) == intact
            except CollectionError as error:
                assert "corrupt" in str(error)
                rejected += 1
        assert rejected > len(blob) // 7 * 0.9

    def test_byte_accounting_matches_disk(self, tmp_path):
        store = FrameStore(chunk_rows=10, directory=str(tmp_path))
        store.add_frame(TxFrame.from_records(_records(20)))
        stats = store.compression_stats()
        on_disk = sum(
            path.stat().st_size for path in tmp_path.glob("frame-chunk-*.bin")
        )
        assert stats.compressed_bytes == on_disk
        assert stats.raw_bytes > stats.compressed_bytes
