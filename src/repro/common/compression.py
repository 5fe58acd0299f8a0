"""Compressed-size accounting for the frame store.

Figure 2 of the paper characterises each dataset by the storage its gzip
compressed blocks occupy (121 GB for EOS, 0.56 GB for Tezos, 76.4 GB for
XRP).  The frame store keeps the same books: every chunk it commits records
its compressed and raw byte counts in the manifest, so the dataset
characterisation can reproduce the table's storage column.  The gzip-JSON
decoder reads the ``v1`` chunks of archives written by older versions, and
only ``repro migrate-store`` calls it.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, NamedTuple

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


def decompress_json(blob: bytes) -> Any:
    """Decode a gzip-compressed JSON document (a ``v1`` chunk blob)."""
    import gzip

    return json.loads(gzip.decompress(blob).decode("utf-8"))


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

