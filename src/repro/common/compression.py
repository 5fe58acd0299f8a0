"""Gzip size accounting for the block store.

Figure 2 of the paper characterises each dataset by the storage its gzip
compressed blocks occupy (121 GB for EOS, 0.56 GB for Tezos, 76.4 GB for
XRP).  The block store keeps the same books: every chunk it writes is gzip
compressed, and the store can report compressed and raw byte totals so the
dataset characterisation can reproduce the table's storage column.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Mapping, NamedTuple

GIGABYTE = 1_000_000_000


class CompressionStats(NamedTuple):
    """Byte accounting for a set of compressed chunks."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    chunk_count: int = 0

    @property
    def ratio(self) -> float:
        """Compression ratio (compressed / raw); 0 when nothing was written."""
        if self.raw_bytes == 0:
            return 0.0
        return self.compressed_bytes / self.raw_bytes

    @property
    def compressed_gigabytes(self) -> float:
        return self.compressed_bytes / GIGABYTE

    def merge(self, other: "CompressionStats") -> "CompressionStats":
        return CompressionStats(
            raw_bytes=self.raw_bytes + other.raw_bytes,
            compressed_bytes=self.compressed_bytes + other.compressed_bytes,
            chunk_count=self.chunk_count + other.chunk_count,
        )


def compress_json(payload: Any, level: int = 6) -> bytes:
    """Serialise ``payload`` as JSON and gzip it.

    ``mtime=0`` pins the gzip header timestamp so equal payloads compress
    to equal bytes — sharded dataset generation relies on this to make its
    output byte-for-byte independent of worker count.
    """
    import gzip

    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return gzip.compress(raw, compresslevel=level, mtime=0)


def compress_json_measured(payload: Any, level: int = 6) -> "tuple[bytes, int]":
    """``(gzip blob, raw serialized byte count)`` — one serialisation.

    The store's byte accounting needs both the compressed size and the raw
    payload size; serialising once and measuring the bytes already in hand
    replaces the old trick of gzip-compressing the payload a *second* time
    at level 0 just to read off its length.
    """
    import gzip

    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return gzip.compress(raw, compresslevel=level, mtime=0), len(raw)


def decompress_json(blob: bytes) -> Any:
    """Inverse of :func:`compress_json`."""
    import gzip

    return json.loads(gzip.decompress(blob).decode("utf-8"))


def compress_records(records: Iterable[Mapping[str, Any]], level: int = 6) -> bytes:
    """Compress a list of JSON-compatible mappings as a single chunk."""
    return compress_json(list(records), level=level)


def measure_chunk(payload: Any, level: int = 6) -> CompressionStats:
    """Return byte accounting for ``payload`` without keeping the blob."""
    import gzip

    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = gzip.compress(raw, compresslevel=level)
    return CompressionStats(raw_bytes=len(raw), compressed_bytes=len(blob), chunk_count=1)


def accumulate(stats: Iterable[CompressionStats]) -> CompressionStats:
    """Merge an iterable of chunk statistics into one total."""
    total = CompressionStats()
    for item in stats:
        total = total.merge(item)
    return total


def estimate_storage_gb(stats: CompressionStats, scale_factor: float = 1.0) -> float:
    """Extrapolate compressed storage to the paper's full scale.

    The simulators run at a configurable fraction of the paper's real block
    counts; multiplying by the inverse of that fraction yields the estimate
    printed in the Figure 2 reproduction.
    """
    if scale_factor <= 0:
        raise ValueError("scale_factor must be positive")
    return stats.compressed_gigabytes / scale_factor


def split_into_chunks(items: List[Any], chunk_size: int) -> List[List[Any]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]
