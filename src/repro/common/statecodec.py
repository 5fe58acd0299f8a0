"""Restricted binary codec for accumulator state snapshots.

Checkpoints used to persist accumulator state with :mod:`pickle`, which has
two costs: unpickling executes an open-ended instruction stream (anything on
disk at the checkpoint path gets to construct arbitrary objects), and big
Python collections — account/pair tallies, flow tables — pay a
per-element serialisation price both ways.  This module replaces that with a
closed, versioned value codec:

* only **data** round-trips — ``None``, ``bool``, ``int``, ``float``,
  ``str``, ``bytes``, ``list``, ``tuple``, ``dict`` and ``array.array``.
  There is no class instantiation, no imports, no code: decoding untrusted
  bytes can produce garbage values but never execute behaviour;
* big collections are expected to arrive **packed** (the helpers below turn
  string collections into one joined blob and integer/float tables into
  ``array('q')``/``array('d')`` columns), so encode/decode cost scales with
  the number of *columns*, not the number of elements;
* every frame is strict: an unknown tag, a truncated buffer or trailing
  bytes raise :class:`CodecError`, which the checkpoint layer maps to "no
  usable snapshot → full rescan".

Scalars are encoded little-endian.  ``array`` payloads carry raw machine
bytes for speed; the header records the writing host's byte order and the
decoder byte-swaps when reading a snapshot produced on the other endianness.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Dict, Iterable, Iterator, List, Mapping, MutableMapping, Tuple

__all__ = [
    "CodecError",
    "decode",
    "encode",
    "iter_code_table",
    "pack_code_table",
    "pack_str_table",
    "pack_strings",
    "restore_code_table",
    "restore_str_table",
    "unpack_strings",
]


class CodecError(ValueError):
    """A snapshot buffer cannot be decoded (corrupt, truncated, or foreign)."""


#: Format magic + codec version; bump the trailing byte on layout changes.
MAGIC = b"RSC\x01"

#: Byte-order markers following the magic.
_LITTLE = b"<"
_BIG = b">"

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT64 = b"i"
_TAG_BIGINT = b"I"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_LIST = b"l"
_TAG_TUPLE = b"t"
_TAG_DICT = b"d"
_TAG_ARRAY = b"a"

_INT64 = struct.Struct("<q")
_FLOAT64 = struct.Struct("<d")
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _write_varint(parts: List[bytes], value: int) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            parts.append(bytes((byte | 0x80,)))
        else:
            parts.append(bytes((byte,)))
            return


def _encode_value(parts: List[bytes], value: Any) -> None:
    # ``bool`` first: it subclasses ``int``.
    if value is None:
        parts.append(_TAG_NONE)
    elif value is True:
        parts.append(_TAG_TRUE)
    elif value is False:
        parts.append(_TAG_FALSE)
    elif type(value) is int or isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            parts.append(_TAG_INT64)
            parts.append(_INT64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "little", signed=True)
            parts.append(_TAG_BIGINT)
            _write_varint(parts, len(raw))
            parts.append(raw)
    elif isinstance(value, float):
        parts.append(_TAG_FLOAT)
        parts.append(_FLOAT64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(_TAG_STR)
        _write_varint(parts, len(raw))
        parts.append(raw)
    elif isinstance(value, (bytes, bytearray)):
        parts.append(_TAG_BYTES)
        _write_varint(parts, len(value))
        parts.append(bytes(value))
    elif isinstance(value, array):
        raw = value.tobytes()
        parts.append(_TAG_ARRAY)
        parts.append(value.typecode.encode("ascii"))
        _write_varint(parts, len(raw))
        parts.append(raw)
    elif isinstance(value, list):
        parts.append(_TAG_LIST)
        _write_varint(parts, len(value))
        for item in value:
            _encode_value(parts, item)
    elif isinstance(value, tuple):
        parts.append(_TAG_TUPLE)
        _write_varint(parts, len(value))
        for item in value:
            _encode_value(parts, item)
    elif isinstance(value, dict):
        parts.append(_TAG_DICT)
        _write_varint(parts, len(value))
        for key, item in value.items():
            _encode_value(parts, key)
            _encode_value(parts, item)
    else:
        raise CodecError(
            f"state codec cannot encode {type(value).__name__!r}; snapshot "
            "payloads must be built from data values and packed arrays"
        )


def encode(value: Any) -> bytes:
    """Serialise ``value`` into a self-contained snapshot buffer."""
    parts: List[bytes] = [MAGIC, _LITTLE if sys.byteorder == "little" else _BIG]
    _encode_value(parts, value)
    return b"".join(parts)


class _Reader:
    __slots__ = ("buffer", "position", "swap")

    def __init__(self, buffer: bytes, swap: bool):
        self.buffer = buffer
        self.position = 0
        self.swap = swap

    def take(self, count: int) -> bytes:
        end = self.position + count
        if end > len(self.buffer):
            raise CodecError("snapshot buffer is truncated")
        chunk = self.buffer[self.position : end]
        self.position = end
        return chunk

    def varint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise CodecError("snapshot varint overflows")


def _decode_value(reader: _Reader) -> Any:
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_INT64:
        return _INT64.unpack(reader.take(8))[0]
    if tag == _TAG_BIGINT:
        raw = reader.take(reader.varint())
        return int.from_bytes(raw, "little", signed=True)
    if tag == _TAG_FLOAT:
        return _FLOAT64.unpack(reader.take(8))[0]
    if tag == _TAG_STR:
        raw = reader.take(reader.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise CodecError(f"snapshot string is not valid UTF-8: {error}") from None
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_ARRAY:
        typecode = reader.take(1).decode("ascii", errors="replace")
        raw = reader.take(reader.varint())
        try:
            column = array(typecode)
        except ValueError:
            raise CodecError(f"snapshot array has unknown typecode {typecode!r}") from None
        if len(raw) % column.itemsize:
            raise CodecError(
                f"snapshot array of typecode {typecode!r} has a torn payload "
                f"({len(raw)} bytes, itemsize {column.itemsize})"
            )
        column.frombytes(raw)
        if reader.swap and column.itemsize > 1:
            column.byteswap()
        return column
    if tag == _TAG_LIST:
        return [_decode_value(reader) for _ in range(reader.varint())]
    if tag == _TAG_TUPLE:
        return tuple(_decode_value(reader) for _ in range(reader.varint()))
    if tag == _TAG_DICT:
        return {
            _decode_value(reader): _decode_value(reader)
            for _ in range(reader.varint())
        }
    raise CodecError(f"snapshot buffer has unknown tag {tag!r}")


def decode(buffer: bytes) -> Any:
    """Deserialise a buffer produced by :func:`encode` (strict)."""
    if not isinstance(buffer, (bytes, bytearray, memoryview)):
        raise CodecError(f"snapshot buffer must be bytes, not {type(buffer).__name__}")
    buffer = bytes(buffer)
    if len(buffer) < len(MAGIC) + 1 or not buffer.startswith(MAGIC):
        raise CodecError("snapshot buffer has no codec header")
    order = buffer[len(MAGIC) : len(MAGIC) + 1]
    if order not in (_LITTLE, _BIG):
        raise CodecError(f"snapshot buffer has unknown byte-order marker {order!r}")
    native = _LITTLE if sys.byteorder == "little" else _BIG
    reader = _Reader(buffer, swap=order != native)
    reader.position = len(MAGIC) + 1
    try:
        value = _decode_value(reader)
    except CodecError:
        raise
    except (TypeError, RecursionError, MemoryError, OverflowError) as error:
        # Corruption can also surface as an unhashable decoded dict key, a
        # pathologically deep nesting, or an absurd length prefix — all of
        # them are "this buffer is not a snapshot", not crashes.
        raise CodecError(f"snapshot buffer is malformed: {error!r}") from None
    if reader.position != len(buffer):
        raise CodecError(
            f"snapshot buffer has {len(buffer) - reader.position} trailing bytes"
        )
    return value


# -- packing helpers -------------------------------------------------------------------
#: Separator used by the fast string-column packing.  NUL never occurs in the
#: chain-derived strings (transaction ids, accounts, currencies, categories);
#: when a value does contain it, the packer falls back to a length-prefixed
#: layout instead of corrupting the column.
_SEP = "\x00"


def pack_strings(values: Iterable[str]) -> Dict[str, Any]:
    """Pack a string collection into one UTF-8 blob (order-preserving).

    The hot path is two C calls — ``str.join`` and one ``encode`` — instead
    of a per-string loop, so a string column snapshots in O(bytes) rather
    than O(strings).
    """
    items = values if isinstance(values, list) else list(values)
    count = len(items)
    if not count:
        return {"n": 0, "blob": b""}
    joined = _SEP.join(items)
    if joined.count(_SEP) != count - 1:
        encoded = [item.encode("utf-8") for item in items]
        return {
            "n": count,
            "blob": b"".join(encoded),
            "lengths": array("q", map(len, encoded)),
        }
    return {"n": count, "blob": joined.encode("utf-8")}


def unpack_strings(payload: Mapping[str, Any]) -> List[str]:
    """Invert :func:`pack_strings`; validates the element count."""
    try:
        count = payload["n"]
        blob = payload["blob"]
    except (TypeError, KeyError):
        raise CodecError("string column payload is malformed") from None
    if not count:
        return []
    try:
        lengths = payload.get("lengths")
        if lengths is not None:
            items: List[str] = []
            position = 0
            for length in lengths:
                items.append(blob[position : position + length].decode("utf-8"))
                position += length
            if len(items) != count or position != len(blob):
                raise CodecError("string column payload is inconsistent")
            return items
        items = blob.decode("utf-8").split(_SEP)
    except (UnicodeDecodeError, AttributeError, TypeError) as error:
        raise CodecError(f"string column payload is malformed: {error!r}") from None
    if len(items) != count:
        raise CodecError("string column payload is inconsistent")
    return items


def pack_code_table(table: Mapping, width: int) -> Dict[str, Any]:
    """Pack an integer-keyed tally into ``width`` int64 key columns + counts.

    Keys are plain ints (``width == 1``) or ``width``-tuples of ints; the
    column order preserves the mapping's insertion order, which several
    figures depend on (``Counter.most_common`` tie-breaks replay first-seen
    order).
    """
    if width == 1:
        keys = [array("q", table.keys())]
    elif table:
        keys = [array("q", column) for column in zip(*table.keys())]
    else:
        keys = [array("q") for _ in range(width)]
    return {"w": width, "keys": keys, "counts": array("q", table.values())}


def iter_code_table(payload: Mapping[str, Any]) -> Iterator[Tuple[Any, int]]:
    """Iterate a packed tally as ``(key, count)`` pairs in stored order."""
    try:
        width = payload["w"]
        keys = payload["keys"]
        counts = payload["counts"]
    except (TypeError, KeyError):
        raise CodecError("code table payload is malformed") from None
    if width != len(keys) or any(len(column) != len(counts) for column in keys):
        raise CodecError("code table payload is inconsistent")
    if width == 1:
        return zip(keys[0], counts)
    return zip(zip(*keys), counts)


def restore_code_table(target: MutableMapping, payload: Mapping[str, Any]) -> None:
    """Fold a packed tally into ``target`` (adds counts; preserves order)."""
    pairs = iter_code_table(payload)
    if not target:
        # Fresh target (the checkpoint-restore hot path): one C-level build.
        target.update(dict(pairs))
        return
    get = target.get
    for key, count in pairs:
        target[key] = get(key, 0) + count


def pack_str_table(table: Mapping[str, int]) -> Dict[str, Any]:
    """Pack a string-keyed integer tally (order-preserving)."""
    return {"keys": pack_strings(table.keys()), "counts": array("q", table.values())}


def restore_str_table(target: MutableMapping, payload: Mapping[str, Any]) -> None:
    """Fold a packed string-keyed tally into ``target``."""
    try:
        keys = unpack_strings(payload["keys"])
        counts = payload["counts"]
    except (TypeError, KeyError):
        raise CodecError("string table payload is malformed") from None
    if len(keys) != len(counts):
        raise CodecError("string table payload is inconsistent")
    if not target:
        target.update(dict(zip(keys, counts)))
        return
    get = target.get
    for key, count in zip(keys, counts):
        target[key] = get(key, 0) + count
