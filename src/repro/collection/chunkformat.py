"""Binary columnar chunk formats (v2 read, v3 written) for the frame store.

Version 1 chunks are gzip-compressed JSON: portable, but every decode pays
``json.loads`` over hundreds of thousands of number literals and then a
per-column rebuild into ``array`` buffers — which, since the out-of-core
engine re-reads chunks in every worker for every task, had become the
dominant cost of a chunk-range scan.  The binary formats store what the
analysis substrate actually wants:

* numeric columns as **raw machine-byte blobs** in the frame's own
  ``array`` typecodes (:data:`repro.common.columns.NUMERIC_TYPECODES`), so
  decode is one ``frombuffer``/``frombytes`` per column instead of one
  Python object per element;
* transaction ids and string pools **packed** with
  :func:`repro.common.statecodec.pack_strings` (one NUL-joined UTF-8 blob
  per column);
* the whole chunk body framed by :mod:`repro.common.statecodec` — the
  closed data-only codec already trusted for checkpoints — behind a small
  header: format magic (``RFC``) + version byte, then an adler32 checksum of
  the body, verified **before** any decoding happens.

Per-column zlib is optional and size-gated: a column blob is stored
compressed only when compression actually shrinks it (random ids and
near-random amounts often don't benefit; code columns and heights do).
The flag is per segment, so mixed chunks stay cheap to decode.

Version 2 keeps each row's ``metadata`` dict whole, in one zlib'd JSON
sub-blob.  Version 3, the one written, also stores the keys figures read
(:data:`~repro.common.projection.PROJECTED_KEYS`) as typed columns, returned
under the payload's ``projected``, and its JSON keeps only the rest: scans
read the columns and parse no JSON.  Either way ``metadata`` decodes to a
:class:`~repro.common.columns.LazyMetadata` block, parsed (and for v3 the
projected keys re-inserted) only when a consumer reads the dicts.

Corruption — a flipped bit, a truncated file, a foreign blob, an unknown
version — surfaces as :class:`ChunkFormatError` (a
:class:`~repro.common.errors.CollectionError`) at decode, before any kernel
could index past a column, mirroring how a corrupt checkpoint degrades to
"no usable snapshot".  The decoded payload has the shape
:meth:`TxFrame.to_payload` produces; numeric columns come back as
**zero-copy read-only ndarrays** over the decoded bytes (``array.array``
for a foreign-endian chunk), and the header's stats (``rows``, per-chain
heights/times/row counts) ride along, so a reader needs no row pass for
them.
"""

from __future__ import annotations

import gc
import json
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.common import statecodec
from repro.common.columns import CHAIN_ORDER, NUMERIC_TYPECODES, LazyMetadata
from repro.common.projection import (
    PROJECTED_KEYS,
    PROJECTED_TYPECODES,
    Projection,
    merge_residue,
    project_metadata,
    split_residue,
)
from repro.common.errors import CollectionError

__all__ = [
    "ChunkFormatError",
    "MAGIC",
    "VERSIONS",
    "chunk_version",
    "decode_chunk",
    "encode_chunk",
]


class ChunkFormatError(CollectionError):
    """A binary chunk blob cannot be decoded (corrupt, truncated, foreign,
    or of a format version this code does not read)."""


#: Magic of the binary chunk family; the byte after it is the version.
FAMILY = b"RFC"

#: The magic :func:`encode_chunk` writes: version 3.
MAGIC = FAMILY + b"\x03"

#: Versions :func:`decode_chunk` reads.
VERSIONS = (2, 3)

_CHECKSUM = struct.Struct("<I")

#: Header length: magic + adler32 of everything after it.
_HEADER_LEN = len(MAGIC) + _CHECKSUM.size

#: Blobs shorter than this are never worth a zlib attempt.
_MIN_COMPRESS_BYTES = 64

#: Rows per metadata batch the encoder splits and dumps (see _pack_metadata).
_RESIDUE_BATCH_ROWS = 4096

#: Fixed zlib level — per-chunk determinism (sharded generation relies on
#: equal payloads encoding to equal bytes) forbids anything adaptive.
_ZLIB_LEVEL = 6

_LITTLE = "<"
_BIG = ">"

#: The string pool each code column indexes.
_CODE_POOLS = {
    "type_code": "types",
    "sender_code": "accounts",
    "receiver_code": "accounts",
    "contract_code": "accounts",
    "currency_code": "currencies",
    "issuer_code": "accounts",
    "error_code": "errors",
}


def chunk_version(blob: bytes) -> Optional[int]:
    """The format version of a binary chunk blob, ``None`` for anything else
    (a v1 gzip chunk); cheap enough to dispatch on."""
    if len(blob) > len(FAMILY) and blob.startswith(FAMILY):
        return blob[len(FAMILY)]
    return None


def _pack_blob(raw: bytes) -> Tuple[int, bytes]:
    """``(compressed_flag, stored_bytes)`` — zlib only when it shrinks."""
    if len(raw) >= _MIN_COMPRESS_BYTES:
        packed = zlib.compress(raw, _ZLIB_LEVEL)
        if len(packed) < len(raw):
            return 1, packed
    return 0, raw


def _unpack_blob(flag: Any, raw_len: Any, stored: Any, what: str) -> bytes:
    if not isinstance(stored, bytes) or not isinstance(raw_len, int):
        raise ChunkFormatError(f"chunk {what} segment is malformed")
    if flag:
        try:
            stored = zlib.decompress(stored)
        except zlib.error as error:
            raise ChunkFormatError(
                f"chunk {what} segment fails decompression: {error}"
            ) from None
    if len(stored) != raw_len:
        raise ChunkFormatError(
            f"chunk {what} segment is torn "
            f"({len(stored)} bytes on disk, {raw_len} recorded)"
        )
    return stored


def _column_raw_bytes(data: Any, typecode: str) -> bytes:
    """A payload column as raw machine bytes in the frame's typecode."""
    import numpy as np

    if isinstance(data, array):
        if data.typecode == typecode:
            return data.tobytes()
        return array(typecode, data).tobytes()
    if isinstance(data, np.ndarray):
        return data.astype(np.dtype(typecode), copy=False).tobytes()
    return array(typecode, data).tobytes()


def _pack_metadata(metadata: Any, projection: Optional[Projection] = None) -> Dict[str, Any]:
    """Pack the per-row metadata list as one zlib'd JSON sub-blob.

    Metadata dicts are free-form (JSON-able by the record contract), so a
    per-element binary encoding buys nothing and costs a Python-level
    decode per row.  One C-level ``json.dumps``/``json.loads`` over the
    whole column — with empty dicts stored as ``null`` — is both smaller
    after zlib and an order of magnitude faster to decode.  With the rows'
    ``projection`` only their residue is stored (:func:`split_residue`),
    split and dumped :data:`_RESIDUE_BATCH_ROWS` rows at a time so that the
    copies the split makes never cover a whole chunk at once.
    """
    parts = []
    for start in range(0, len(metadata), _RESIDUE_BATCH_ROWS):
        rows = metadata[start : start + _RESIDUE_BATCH_ROWS]
        if projection is not None:
            columns = {key: column[start : start + len(rows)] for key, column in projection.columns.items()}
            rows = split_residue(rows, Projection(columns, projection.strings))
        text = json.dumps([meta if meta else None for meta in rows], sort_keys=True, separators=(",", ":"))
        parts.append(text[1:-1])
    raw = ("[" + ",".join(parts) + "]").encode("utf-8")
    flag, stored = _pack_blob(raw)
    return {"z": flag, "r": len(raw), "blob": stored}


def _unpack_metadata(segment: Any, rows: int) -> List[Optional[Dict[str, Any]]]:
    raw = _unpack_blob(segment.get("z"), segment.get("r"), segment.get("blob"), "metadata")
    # A parse allocates one dict per row (119k on ``live_tail``), which sets
    # off hundreds of collections that can find nothing: JSON builds no
    # reference cycle.  The caller's collector state is restored as found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        items = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as error:
        raise ChunkFormatError(f"chunk metadata segment is malformed: {error}") from None
    finally:
        if collecting:
            gc.enable()
    if not isinstance(items, list) or len(items) != rows:
        raise ChunkFormatError("chunk metadata segment is inconsistent")
    return items


def _lazy_metadata(segment: Any, rows: int, projected: Any, swap: bool) -> LazyMetadata:
    """A :class:`LazyMetadata` block over a chunk's metadata segment.

    Structural validation is eager (so a foreign document fails at decode
    time); the zlib + JSON work is deferred to first access — the chunk
    checksum has already vouched for the bytes, and no scan reads the dicts.
    A v3 chunk's ``projected`` segment is kept as stored and decoded again
    at that access to re-insert the projected keys: the decoded columns
    belong to the payload, which a frame copies and drops, so the block
    must not keep a second copy of them alive beside the frame's.
    """
    if not isinstance(segment, dict) or not isinstance(segment.get("blob"), bytes):
        raise ChunkFormatError("chunk metadata segment is malformed")

    def load() -> List[Optional[Dict[str, Any]]]:
        items = _unpack_metadata(segment, rows)
        if projected is None:
            return items
        if not all(item is None or item.__class__ is dict for item in items):
            raise ChunkFormatError("chunk metadata residue is not a list of mappings")
        return merge_residue(items, _unpack_projection(projected, rows, swap))

    return LazyMetadata(rows, load)


def _check_codes(column: Any, rows: int, codes: range, what: str) -> None:
    """``column`` holds ``rows`` values, each in ``codes``."""
    import numpy as np

    values = np.asarray(column)
    if len(values) != rows or (rows and not codes.start <= values.min() <= values.max() < codes.stop):
        raise ChunkFormatError(f"chunk {what} column is inconsistent")


def _pack_column(data: Any, typecode: str) -> List[Any]:
    raw = _column_raw_bytes(data, typecode)
    flag, stored = _pack_blob(raw)
    return [typecode, flag, len(raw), stored]


def _unpack_projection(doc: Any, rows: int, swap: bool) -> Projection:
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), dict) or set(doc["columns"]) != set(PROJECTED_KEYS):
        raise ChunkFormatError("chunk projected segment is malformed")
    strings = _unpack_text(doc.get("strings"), "projected strings")
    columns = {}
    for key, kind in PROJECTED_KEYS.items():
        entry, typecode = doc["columns"][key], PROJECTED_TYPECODES[kind]
        columns[key] = _decode_column(entry, key, swap, typecode)
        codes = range(-1, 2 if kind == "flag" else len(strings))  # -1: absent
        _check_codes(columns[key], rows, codes, f"projected {key!r}")
    return Projection(columns, strings)


def _pack_text(values: Any) -> Tuple[Dict[str, Any], int]:
    """Pack a string column; returns ``(segment, raw_byte_count)``.

    ``None`` entries are legal — the pools intern optional fields such as
    ``error_code`` and ``contract`` verbatim — and are recorded as a
    position index beside the packed blob (the blob itself stores ``""``
    at those positions).
    """
    items = values if isinstance(values, list) else list(values)
    nulls = array("q", (i for i, value in enumerate(items) if value is None))
    if len(nulls):
        items = ["" if value is None else value for value in items]
    packed = statecodec.pack_strings(items)
    raw = packed["blob"]
    flag, stored = _pack_blob(raw)
    segment: Dict[str, Any] = {"n": packed["n"], "z": flag, "r": len(raw), "blob": stored}
    lengths = packed.get("lengths")
    if lengths is not None:
        segment["lengths"] = lengths
    if len(nulls):
        segment["nulls"] = nulls
    return segment, len(raw)


def _unpack_text(segment: Any, what: str) -> List[Optional[str]]:
    if not isinstance(segment, dict):
        raise ChunkFormatError(f"chunk {what} segment is malformed")
    blob = _unpack_blob(segment.get("z"), segment.get("r"), segment.get("blob"), what)
    payload = {"n": segment.get("n"), "blob": blob}
    if "lengths" in segment:
        payload["lengths"] = segment["lengths"]
    try:
        items: List[Optional[str]] = statecodec.unpack_strings(payload)
    except statecodec.CodecError as error:
        raise ChunkFormatError(f"chunk {what} segment is malformed: {error}") from None
    nulls = segment.get("nulls")
    if nulls is not None:
        try:
            for index in nulls:
                items[index] = None
        except (IndexError, TypeError) as error:
            raise ChunkFormatError(
                f"chunk {what} null index is malformed: {error!r}"
            ) from None
    return items


def encode_chunk(
    payload: Dict[str, Any],
    chain_stats: Optional[Tuple[Dict, Dict, Dict]] = None,
) -> Tuple[bytes, int]:
    """Encode one columnar payload as a v3 chunk blob.

    ``payload`` is :meth:`TxFrame.to_payload` output (``arrays=True`` gives
    the cheapest encode; list columns are converted), whose ``projected``
    columns are written as they are; a payload without them (a decoded v1/v2
    chunk being migrated) is projected here.  ``chain_stats`` is the
    ``(heights, times, chain_rows)`` triple the store computes per chunk;
    embedding it lets a reader decode the header instead of iterating rows.

    Returns ``(blob, raw_bytes)`` where ``raw_bytes`` is the body size with
    every per-segment compression undone — the uncompressed footprint the
    store's byte accounting reports, computed from the blob lengths already
    in hand rather than by a second serialisation.
    """
    metadata = payload["metadata"]
    projection = payload.get("projected") or project_metadata(metadata)
    columns_doc = {
        name: _pack_column(payload["columns"][name], typecode)
        for name, typecode in NUMERIC_TYPECODES.items()
    }
    projected_doc = {
        key: _pack_column(projection.columns[key], PROJECTED_TYPECODES[kind])
        for key, kind in PROJECTED_KEYS.items()
    }
    strings_doc, _ = _pack_text(projection.strings)
    ids_doc, _ = _pack_text(payload["transaction_id"])
    pools_doc: Dict[str, Any] = {}
    for name, values in payload["pools"].items():
        pools_doc[name], _ = _pack_text(values)
    meta_doc = _pack_metadata(metadata, projection)
    heights, times, chain_rows = chain_stats if chain_stats else ({}, {}, {})
    doc = {
        "order": _LITTLE if sys.byteorder == "little" else _BIG,
        "rows": len(payload["transaction_id"]),
        "heights": heights,
        "times": times,
        "chain_rows": chain_rows,
        "columns": columns_doc,
        "ids": ids_doc,
        "meta": meta_doc,
        "projected": {"columns": projected_doc, "strings": strings_doc},
        "pools": pools_doc,
    }
    body = statecodec.encode(doc)
    saved = 0
    for typecode, flag, raw_len, stored in [*columns_doc.values(), *projected_doc.values()]:
        if flag:
            saved += raw_len - len(stored)
    for segment in [ids_doc, meta_doc, strings_doc] + list(pools_doc.values()):
        if segment["z"]:
            saved += segment["r"] - len(segment["blob"])
    blob = MAGIC + _CHECKSUM.pack(zlib.adler32(body) & 0xFFFFFFFF) + body
    return blob, len(body) + saved


def _decode_column(entry: Any, name: str, swap: bool, expected: str):
    import numpy as np

    if not (isinstance(entry, list) and len(entry) == 4):
        raise ChunkFormatError(f"chunk column {name!r} is malformed")
    typecode, flag, raw_len, stored = entry
    if typecode != expected:
        raise ChunkFormatError(
            f"chunk column {name!r} has unexpected typecode {typecode!r}"
        )
    raw = _unpack_blob(flag, raw_len, stored, f"column {name!r}")
    if swap:
        column = array(typecode)
        try:
            column.frombytes(raw)
        except ValueError as error:
            raise ChunkFormatError(
                f"chunk column {name!r} has a torn payload: {error}"
            ) from None
        column.byteswap()
        return column
    dtype = np.dtype(typecode)
    if len(raw) % dtype.itemsize:
        raise ChunkFormatError(
            f"chunk column {name!r} has a torn payload "
            f"({len(raw)} bytes, itemsize {dtype.itemsize})"
        )
    # Zero-copy: the ndarray aliases the decoded bytes (read-only).
    return np.frombuffer(raw, dtype=dtype)


def decode_chunk(blob: bytes) -> Dict[str, Any]:
    """Decode a v2 or v3 chunk blob back into a columnar payload.

    The adler32 checksum is verified over the whole body before any
    structural decoding; any mismatch, truncation, malformed segment or
    unknown version raises :class:`ChunkFormatError`.  The returned payload
    carries the standard ``columns`` / ``transaction_id`` / ``metadata`` /
    ``pools`` keys (``projected`` too, for v3) plus the header's ``rows``
    count and ``chain_stats`` triple.  ``metadata`` comes back as a
    :class:`~repro.common.columns.LazyMetadata` block — its JSON parse is
    deferred until a consumer actually reads the dicts.
    """
    version = chunk_version(blob)
    if len(blob) < _HEADER_LEN or version is None:
        raise ChunkFormatError("chunk blob has no binary chunk header")
    if version not in VERSIONS:
        raise ChunkFormatError(f"chunk format version {version} is not supported")
    (checksum,) = _CHECKSUM.unpack_from(blob, len(MAGIC))
    body = blob[_HEADER_LEN:]
    if zlib.adler32(body) & 0xFFFFFFFF != checksum:
        raise ChunkFormatError("chunk blob fails its checksum (corrupt or torn)")
    try:
        doc = statecodec.decode(body)
    except statecodec.CodecError as error:
        raise ChunkFormatError(f"chunk body is malformed: {error}") from None
    if not isinstance(doc, dict):
        raise ChunkFormatError("chunk body is not a column document")
    try:
        order = doc["order"]
        rows = doc["rows"]
        columns_doc = doc["columns"]
        ids_doc = doc["ids"]
        meta_doc = doc["meta"]
        pools_doc = doc["pools"]
        projected_doc = doc["projected"] if version == 3 else None
    except KeyError as error:
        raise ChunkFormatError(f"chunk body is missing segment {error}") from None
    if order not in (_LITTLE, _BIG) or not isinstance(rows, int):
        raise ChunkFormatError("chunk header is malformed")
    if not isinstance(columns_doc, dict) or set(columns_doc) != set(NUMERIC_TYPECODES):
        raise ChunkFormatError("chunk body has an unexpected column set")
    if not isinstance(pools_doc, dict):
        raise ChunkFormatError("chunk body is malformed")
    native = _LITTLE if sys.byteorder == "little" else _BIG
    swap = order != native
    columns = {
        name: _decode_column(columns_doc[name], name, swap, typecode)
        for name, typecode in NUMERIC_TYPECODES.items()
    }
    transaction_ids = _unpack_text(ids_doc, "transaction ids")
    # Every action of an EOS transaction carries its id: equal ids of a
    # chunk share one ``str``.
    shared: Dict[Optional[str], Optional[str]] = {}
    transaction_ids = list(map(shared.setdefault, transaction_ids, transaction_ids))
    pools = {name: _unpack_text(segment, f"pool {name!r}") for name, segment in pools_doc.items()}
    if len(transaction_ids) != rows or any(
        len(column) != rows for column in columns.values()
    ):
        raise ChunkFormatError(
            f"chunk body is inconsistent (header says {rows} rows)"
        )
    if set(pools) != set(_CODE_POOLS.values()):
        raise ChunkFormatError("chunk body has an unexpected pool set")
    _check_codes(columns["chain_code"], rows, range(len(CHAIN_ORDER)), "'chain_code'")
    for name, pool in _CODE_POOLS.items():
        _check_codes(columns[name], rows, range(len(pools[pool])), repr(name))
    payload = {
        "columns": columns,
        "transaction_id": transaction_ids,
        "pools": pools,
        "rows": rows,
        "chain_stats": (
            doc.get("heights") or {},
            doc.get("times") or {},
            doc.get("chain_rows") or {},
        ),
    }
    if projected_doc is not None:
        payload["projected"] = _unpack_projection(projected_doc, rows, swap)
    payload["metadata"] = _lazy_metadata(meta_doc, rows, projected_doc, swap)
    return payload
