"""Unit tests for the vectorized kernel primitives and the block iterator."""

from __future__ import annotations

from array import array
from collections import Counter

import numpy as np

from repro.analysis.engine import scan_blocks
from repro.analysis.vectorized import (
    add_counts,
    block_columns,
    count_codes,
    matched_rows,
    pack_codes,
    unique_counts_ordered,
    unpack_codes,
)
from repro.common import kernels


class TestBackendSelection:
    def test_default_backend_matches_numpy_availability(self):
        assert kernels.active_backend() == "numpy"

    def test_retired_switches_are_gone(self, monkeypatch):
        """``REPRO_KERNELS`` is ignored; the in-process overrides do not exist."""
        monkeypatch.setenv("REPRO_KERNELS", "python")
        assert kernels.active_backend() == "numpy"
        for name in ("set_backend", "use_backend", "use_numpy", "numpy_available"):
            assert not hasattr(kernels, name), name


class TestVectorizedPrimitives:
    def test_unique_counts_preserve_first_seen_order(self):
        keys = np.asarray([7, 3, 7, 9, 3, 3, 1], dtype=np.int64)
        uniques, counts = unique_counts_ordered(keys)
        assert uniques.tolist() == [7, 3, 9, 1]
        assert counts.tolist() == [2, 3, 1, 1]

    def test_count_codes_matches_reference_counter_exactly(self):
        first = [2, 0, 2, 1, 0, 2]
        second = [5, 5, 5, 3, 1, 5]
        reference = Counter(zip(first, second))
        target = Counter()
        count_codes(
            target,
            (np.asarray(first, dtype=np.int64), np.asarray(second, dtype=np.int64)),
            (3, 6),
        )
        assert target == reference
        # Insertion order replays the first-seen (row) order too.
        assert list(target) == list(reference)
        assert all(isinstance(key, tuple) for key in target)

    def test_count_codes_single_column_uses_int_keys(self):
        target = {}
        count_codes(target, (np.asarray([4, 4, 2], dtype=np.int64),), (5,))
        assert target == {4: 2, 2: 1}
        assert list(target) == [4, 2]

    def test_pack_codes_overflow_returns_none(self):
        blocks = (np.asarray([1], dtype=np.int64), np.asarray([1], dtype=np.int64))
        assert pack_codes(blocks, (2**40, 2**40)) is None

    def test_unpack_codes_inverts_pack_codes(self):
        blocks = (
            np.asarray([2, 0, 1], dtype=np.int64),
            np.asarray([5, 1, 3], dtype=np.int64),
            np.asarray([0, 1, 1], dtype=np.int64),
        )
        sizes = (3, 6, 2)
        assert unpack_codes(pack_codes(blocks, sizes), sizes) == [
            (2, 5, 0),
            (0, 1, 1),
            (1, 3, 1),
        ]
        assert unpack_codes(blocks[0], (3,)) == [2, 0, 1]

    def test_add_counts_accumulates_into_existing_keys(self):
        target = {3: 1}
        add_counts(target, [3, 5], [2, 4])
        assert target == {3: 3, 5: 4}

    def test_block_columns_slices_ranges_and_gathers_indices(self):
        view = np.asarray([10, 11, 12, 13, 14], dtype=np.int64)
        (sliced,) = block_columns(range(1, 4), view)
        assert sliced.tolist() == [11, 12, 13]
        (gathered,) = block_columns(array("q", [0, 4]), view)
        assert gathered.tolist() == [10, 14]

    def test_matched_rows_maps_back_to_global_indices(self):
        mask = np.asarray([False, True, False, True])
        assert matched_rows(range(10, 14), mask).tolist() == [11, 13]
        assert matched_rows(array("q", [5, 8, 9, 20]), mask).tolist() == [8, 20]
        assert matched_rows(range(0, 8, 2), mask[:4]).tolist() == [2, 6]


class TestGatherAndBlocks:
    def test_scan_blocks_yields_index_ndarrays_under_numpy(self):
        blocks = list(scan_blocks(array("q", range(10)), 4))
        assert [type(block) for block in blocks] == [np.ndarray] * 3
        assert [block.tolist() for block in blocks] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [8, 9],
        ]

    def test_scan_blocks_keeps_ranges(self):
        assert list(scan_blocks(range(5), 3)) == [range(0, 3), range(3, 5)]
        assert list(scan_blocks(range(0), 3)) == []
