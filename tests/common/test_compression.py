"""Tests for compressed-size accounting."""

import gzip
import json

import pytest

from repro.common.compression import (
    CompressionStats,
    accumulate,
    decompress_json,
    estimate_storage_gb,
)


class TestCompression:
    def test_round_trip(self):
        """The v1 chunk decoder reads what an older version's writer made:
        compact sorted-key JSON, gzip-compressed with a pinned mtime."""
        payload = {"blocks": [1, 2, 3], "chain": "eos"}
        raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert decompress_json(gzip.compress(raw, compresslevel=6, mtime=0)) == payload

    def test_empty_stats_ratio(self):
        assert CompressionStats().ratio == 0.0


class TestStatsAggregation:
    def test_merge(self):
        first = CompressionStats(raw_bytes=100, compressed_bytes=10, chunk_count=1)
        second = CompressionStats(raw_bytes=300, compressed_bytes=30, chunk_count=2)
        merged = first.merge(second)
        assert merged.raw_bytes == 400
        assert merged.compressed_bytes == 40
        assert merged.chunk_count == 3

    def test_accumulate(self):
        parts = [CompressionStats(10, 1, 1) for _ in range(5)]
        total = accumulate(parts)
        assert total.raw_bytes == 50
        assert total.chunk_count == 5

    def test_gigabytes(self):
        stats = CompressionStats(raw_bytes=0, compressed_bytes=2_000_000_000, chunk_count=1)
        assert stats.compressed_gigabytes == pytest.approx(2.0)


class TestEstimation:
    def test_full_scale_extrapolation(self):
        stats = CompressionStats(raw_bytes=0, compressed_bytes=1_000_000_000, chunk_count=1)
        assert estimate_storage_gb(stats, scale_factor=0.01) == pytest.approx(100.0)

    def test_scale_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            estimate_storage_gb(CompressionStats(), 0.0)

