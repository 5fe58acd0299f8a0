"""A decoded chunk, and a frame rehydrated from chunks, hold each value once.

* Every action of an EOS transaction carries its transaction's id, so a chunk
  holds far fewer distinct ids than rows: the decoder (v2 and v3) maps equal
  ids of a chunk to one ``str``.  Sharing changes no value, so a rehydrated
  frame re-encodes to the very bytes it was read from.
* A v3 chunk's lazy metadata block keeps its projected segment as stored, not
  the decoded projection the frame has already copied: dropping the payload
  frees the decoded columns, and reading the dicts later decodes them again.
* The chunk scan copies a payload into a throwaway frame and scans that: a
  decoded chunk's columns are gone before the kernels run, and a payload the
  caller still holds (a pipeline's own commit) is read, never written.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from repro.analysis import parallel
from repro.analysis.parallel import fold_targets, payload_frame, scan_frame, store_factories
from repro.collection import chunkformat
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.pipeline.live import scenario_generators

from tests.collection.test_generate import _windowed_scenario
from tests.fixtures import V2_STORE, V2_STORE_CHUNKS
from tests.support.stored import stored_metadata

#: 5,137 EOS, 639 Tezos and 702 XRP rows.
SCENARIO = _windowed_scenario(windows=1)
CHUNK_ROWS = 2_000


def _records():
    streams = [generator.stream_records() for generator in scenario_generators(SCENARIO).values()]
    return [record for stream in streams for record in stream]


@pytest.fixture(scope="module")
def records():
    return _records()


@pytest.fixture
def store_dir(tmp_path, records):
    store = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(tmp_path / "store"))
    store.add_records(records)
    store.flush()
    return str(tmp_path / "store")


def _blobs(store: FrameStore):
    for chunk in store._chunks:
        with open(chunk.path, "rb") as handle:
            yield chunk, handle.read()


def _assert_ids_shared(payload) -> bool:
    """Equal ids of one decoded chunk are one object; True if any repeats."""
    ids = payload["transaction_id"]
    assert len({id(value) for value in ids}) == len(set(ids))
    return len(set(ids)) < len(ids)


class TestSharedIds:
    def test_v3_chunks_share_equal_ids(self, store_dir):
        store = FrameStore.open(store_dir)
        assert chunkformat.chunk_version(next(_blobs(store))[1]) == 3
        repeats = [_assert_ids_shared(store.chunk_payload(index)) for index in range(store.committed_chunk_count)]
        # EOS actions repeat their transaction's id, so sharing has work to do.
        assert any(repeats)

    def test_v2_fixture_chunks_share_equal_ids(self):
        names = sorted(name for name in os.listdir(V2_STORE) if name.endswith(".bin"))
        assert len(names) == V2_STORE_CHUNKS
        for name in names:
            with open(os.path.join(V2_STORE, name), "rb") as handle:
                blob = handle.read()
            assert chunkformat.chunk_version(blob) == 2
            _assert_ids_shared(chunkformat.decode_chunk(blob))

    def test_rehydrated_frame_shares_ids_across_its_chunks(self, store_dir, records):
        frame = FrameStore.open(store_dir).to_frame()
        assert frame.transaction_id == [record.transaction_id for record in records]
        for start in range(0, len(frame), CHUNK_ROWS):
            ids = frame.transaction_id[start : start + CHUNK_ROWS]
            assert len({id(value) for value in ids}) == len(set(ids))

    def test_rehydrated_chunks_encode_to_the_stored_bytes(self, store_dir):
        store = FrameStore.open(store_dir)
        for index, (chunk, blob) in enumerate(_blobs(store)):
            frame = TxFrame.from_payload(store.chunk_payload(index))
            encoded, _ = chunkformat.encode_chunk(
                frame.to_payload(arrays=True),
                chain_stats=(chunk.heights, chunk.times, chunk.chain_rows),
            )
            assert encoded == blob, f"chunk {index} re-encodes to other bytes"

    def test_rehydrated_frame_rewrites_the_same_store(self, store_dir, tmp_path):
        copy = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(tmp_path / "copy"))
        copy.add_frame(FrameStore.open(store_dir).to_frame())
        originals = [blob for _, blob in _blobs(FrameStore.open(store_dir))]
        assert [blob for _, blob in _blobs(copy)] == originals


class TestNoSecondProjection:
    def test_lazy_metadata_does_not_keep_the_decoded_projection(self, store_dir, records):
        store = FrameStore.open(store_dir)
        payload = store.chunk_payload(0)
        column = weakref.ref(payload["projected"].columns["transfer_to"])
        metadata = payload["metadata"]
        del payload
        gc.collect()
        assert column() is None
        expected = [stored_metadata(record.metadata) for record in records[:CHUNK_ROWS]]
        assert [meta or None for meta in metadata.materialise()] == expected

    def test_frame_metadata_equals_the_records(self, store_dir, records):
        frame = FrameStore.open(store_dir).to_frame()
        assert [meta or None for meta in frame.metadata] == [
            stored_metadata(record.metadata) for record in records
        ]


class TestScanDropsItsPayload:
    def test_a_held_payload_is_left_as_it_was(self, tmp_path, records):
        store = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(tmp_path / "store"))
        payloads = [*store.iter_commits(records), store.flush()]
        skeleton, _ = fold_targets(store, {})
        factories = store_factories(store)
        for payload in payloads:
            before = {
                "keys": sorted(payload),
                "columns": {name: bytes(np.asarray(data)) for name, data in payload["columns"].items()},
                "ids": list(payload["transaction_id"]),
                "metadata": (payload["metadata"], list(payload["metadata"])),
                "projected": {
                    key: bytes(np.asarray(data)) for key, data in payload["projected"].columns.items()
                },
            }
            assert scan_frame(payload_frame(payload, skeleton), factories)
            assert sorted(payload) == before["keys"]
            assert {name: bytes(np.asarray(data)) for name, data in payload["columns"].items()} == before["columns"]
            assert payload["transaction_id"] == before["ids"]
            metadata, rows = before["metadata"]
            assert payload["metadata"] is metadata and metadata == rows
            assert {
                key: bytes(np.asarray(data)) for key, data in payload["projected"].columns.items()
            } == before["projected"]

    def test_decoded_columns_are_freed_before_the_kernels_run(self, store_dir, monkeypatch):
        decoded = []
        read = FrameStore.chunk_payload

        def chunk_payload(self, index):
            payload = read(self, index)
            decoded.append(weakref.ref(payload["columns"]["amount"]))
            return payload

        alive = []
        kernels = parallel.scan

        def scan(accumulators, frame, rows):
            alive.append(decoded[-1]() is not None)
            return kernels(accumulators, frame, rows)

        monkeypatch.setattr(FrameStore, "chunk_payload", chunk_payload)
        monkeypatch.setattr(parallel, "scan", scan)
        parallel.parallel_report_from_store(store_dir, workers=1)
        assert len(decoded) == FrameStore.open(store_dir).committed_chunk_count
        assert alive and not any(alive)
