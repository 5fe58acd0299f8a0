"""Fuzz: a damaged v3 chunk fails with :class:`ChunkFormatError`, nothing else.

The chunk checksum catches any flipped byte, so the structural checks
behind it only run when the damage comes with a matching checksum.  This
target truncates v3 blobs and flips their bytes, then recomputes the
header's adler32 so every structural check is exercised.  Decoding, reading
the metadata and projecting the decoded frame may raise only
``ChunkFormatError`` — never ``IndexError``, ``KeyError`` or ``ValueError``
— and a projected column whose length is not the chunk's row count fails at
decode, before a kernel could index past it.
"""

from __future__ import annotations

import json
import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collection import chunkformat
from repro.collection.chunkformat import ChunkFormatError, decode_chunk, encode_chunk
from repro.common import statecodec
from repro.common.columns import TxFrame
from repro.common.records import ChainId, TransactionRecord


def _blob() -> bytes:
    records = [
        TransactionRecord(
            chain=chain,
            transaction_id=f"{chain.value}-{index}",
            block_height=index,
            timestamp=float(index),
            type="transfer",
            sender="alice",
            receiver="bob",
            contract="eosio.token",
            amount=1.0,
            currency="EOS",
            metadata={"transfer_to": "bob", "inline": index % 2 == 0, "memo": "m", "category": index},
        )
        for chain in ChainId
        for index in range(6)
    ]
    return encode_chunk(TxFrame.from_records(records).to_payload(arrays=True))[0]


BLOB = _blob()
_HEADER = len(chunkformat.MAGIC) + 4


def _resealed(body: bytes) -> bytes:
    return chunkformat.MAGIC + struct.pack("<I", zlib.adler32(body) & 0xFFFFFFFF) + body


def _read_everything(blob: bytes) -> None:
    payload = decode_chunk(blob)
    list(payload["metadata"])
    frame = TxFrame.from_payload(payload)
    frame.projected()
    list(frame.iter_records())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cut=st.integers(0, len(BLOB) - _HEADER),
    flips=st.lists(st.tuples(st.integers(0, len(BLOB)), st.integers(1, 255)), max_size=4),
)
def test_damaged_v3_chunks_fail_only_with_chunk_format_error(cut, flips):
    body = bytearray(BLOB[_HEADER : len(BLOB) - cut])
    for position, mask in flips:
        if body:
            body[position % len(body)] ^= mask
    try:
        _read_everything(_resealed(bytes(body)))
    except ChunkFormatError:
        pass


def _document() -> dict:
    return statecodec.decode(BLOB[_HEADER:])


@pytest.mark.parametrize("key", ["inline", "transfer_to"])
def test_a_projected_column_of_the_wrong_length_fails_at_decode(key):
    document = _document()
    typecode, flag, raw_len, stored = document["projected"]["columns"][key]
    raw = zlib.decompress(stored) if flag else stored
    short = raw[: len(raw) - len(raw) // 6]
    document["projected"]["columns"][key] = [typecode, 0, len(short), short]
    with pytest.raises(ChunkFormatError, match=f"projected '{key}' column is inconsistent"):
        decode_chunk(_resealed(statecodec.encode(document)))


def test_a_text_code_past_the_string_pool_fails_at_decode():
    document = _document()
    strings = document["projected"]["strings"]
    count = strings["n"]
    typecode, flag, raw_len, stored = document["projected"]["columns"]["transfer_to"]
    raw = bytearray(zlib.decompress(stored) if flag else stored)
    raw[0:4] = struct.pack("=i", count)
    document["projected"]["columns"]["transfer_to"] = [typecode, 0, len(raw), bytes(raw)]
    with pytest.raises(ChunkFormatError, match="projected 'transfer_to' column is inconsistent"):
        decode_chunk(_resealed(statecodec.encode(document)))


def test_a_residue_row_that_is_not_a_mapping_fails_on_read():
    document = _document()
    segment = document["meta"]
    items = json.loads(zlib.decompress(segment["blob"]) if segment["z"] else segment["blob"])
    items[0] = [1, 2]
    encoded = json.dumps(items).encode("utf-8")
    document["meta"] = {"z": 0, "r": len(encoded), "blob": encoded}
    payload = decode_chunk(_resealed(statecodec.encode(document)))
    with pytest.raises(ChunkFormatError, match="not a list of mappings"):
        payload["metadata"][0]
