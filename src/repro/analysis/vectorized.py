"""Shared NumPy primitives of the accumulators' ``bind_batch`` kernels.

Every hot accumulator counts small-integer code tuples — (chain, type,
contract) triples, (sender, receiver) pairs, single account codes — or
filters rows with boolean masks before a thin per-row tail.  This module
factors those patterns into a handful of primitives so each accumulator's
``bind_batch`` stays a few lines:

* :func:`block_columns` — slice or fancy-index a block out of zero-copy
  column views (ranges slice for free; index ndarrays gather in one C call);
* :func:`pack_codes` — combine parallel code columns into one ``int64`` key
  per row (mixed-radix, exclusive bound per column — the ``np.bincount``
  trick generalised to keys too sparse to bincount directly);
* :func:`count_codes` — the packed-key histogram: one ``np.unique`` per
  block, **replayed in first-seen order** into the accumulator's existing
  Counter/dict state;
* :func:`matched_rows` — boolean mask → global row indices, for kernels
  whose tail work (grouping by transaction id, oracle checks) is per-row.

The first-seen replay is the load-bearing subtlety: the row-step reference
kernels (each accumulator's ``bind``) insert counter keys in row order, and
several finalizers resolve ties by insertion order
(``Counter.most_common``, the per-bin category order of the throughput
series).  ``np.unique`` returns keys sorted by value, so :func:`count_codes`
re-orders them by each key's first block position before touching the
counter — making the block kernel's counter state (content *and* iteration
order) indistinguishable from the reference's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

from repro.common.columns import RowIndices, as_index_rows

Counts = Union[Dict, "Counter"]  # noqa: F821 - Counter duck-typed via .get

#: Ceiling on the packed-key space for the dense-histogram kernel: the
#: per-bind count vector costs 8 bytes per *possible* key (32 MiB at this
#: bound), so sparser key spaces take the ``np.unique`` path instead.
DENSE_KEYSPACE_MAX = 1 << 22


def dense_space(sizes: Sequence[int]) -> int:
    """The packed-key space of the given column bounds (product, min 1)."""
    space = 1
    for size in sizes:
        space *= max(int(size), 1)
    return space


def fold_dense(target: Counts, dense, sizes: Sequence[int]) -> None:
    """Materialise a dense packed-key count vector into Counter/dict state.

    Keys fold in packed-key (ascending code) order, **not** first-seen row
    order — only accumulators whose finalizers are insertion-order
    independent may use the dense kernel (see
    :class:`~repro.analysis.accounts.AccountActivityAccumulator`); anything
    that tie-breaks via ``Counter.most_common`` must stay on
    :func:`count_codes`.
    """
    import numpy as np

    keys = np.nonzero(dense)[0]
    if not len(keys):
        return
    add_counts(target, unpack_codes(keys, sizes), dense[keys].tolist())


def block_columns(rows: RowIndices, *views) -> Tuple:
    """The block's values of each ndarray column view.

    Ranges become slices (zero-copy views); anything else is normalised to
    an index ndarray and gathered with one fancy-indexing call per column.
    """
    if isinstance(rows, range):
        window = slice(rows.start, rows.stop, rows.step)
        return tuple(view[window] for view in views)
    indices = as_index_rows(rows)
    return tuple(view[indices] for view in views)


def matched_rows(rows: RowIndices, mask):
    """Global row indices of the block positions where ``mask`` is true."""
    import numpy as np

    positions = np.nonzero(mask)[0]
    if isinstance(rows, range):
        if rows.step == 1:
            return positions + rows.start if rows.start else positions
        return rows.start + positions * rows.step
    return as_index_rows(rows)[positions]


def pack_codes(blocks: Sequence, sizes: Sequence[int]):
    """Mixed-radix packing of parallel code columns into one ``int64`` key.

    ``sizes[i]`` is an exclusive upper bound on ``blocks[i]``'s values (a
    string pool's length, ``len(CHAIN_ORDER)``, 2 for a boolean column).
    Returns ``None`` when the key space cannot fit an ``int64`` — callers
    fall back to per-row counting in that (pathological) case.
    """
    import numpy as np

    if dense_space(sizes) >= 2**62:  # pragma: no cover - needs >2^62 distinct keys
        return None
    key = blocks[0].astype(np.int64)
    for block, size in zip(blocks[1:], sizes[1:]):
        key *= max(int(size), 1)
        key += block
    return key


def unpack_codes(keys, sizes: Sequence[int]) -> List:
    """Inverse of :func:`pack_codes`: plain ints for one column, else tuples."""
    import numpy as np

    if len(sizes) == 1:
        return keys.tolist()
    parts = []
    rest = keys
    for size in reversed(sizes[1:]):
        rest, part = np.divmod(rest, max(int(size), 1))
        parts.append(part.tolist())
    parts.append(rest.tolist())
    parts.reverse()
    return list(zip(*parts))


def unique_counts_ordered(keys) -> Tuple:
    """Distinct keys and their counts, in first-seen (row) order."""
    import numpy as np

    uniques, first_index, counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    order = np.argsort(first_index, kind="stable")
    return uniques[order], counts[order]


def add_counts(target: Counts, keys: List, counts: List[int]) -> None:
    """Fold (key, count) pairs into a Counter/dict, preserving key order.

    Assignment order is insertion order, so folding first-seen-ordered keys
    replays exactly the insertion order a per-row reference scan produces.
    """
    get = target.get
    for key, count in zip(keys, counts):
        target[key] = get(key, 0) + count


def count_codes(target: Counts, blocks: Sequence, sizes: Sequence[int]) -> None:
    """One block's packed-key histogram, folded into ``target``.

    ``target`` keys are plain ints for a single column and tuples of ints
    for several — identical to what the row-step reference kernels produce.
    """
    if len(blocks) == 1:
        uniques, counts = unique_counts_ordered(blocks[0])
        add_counts(target, uniques.tolist(), counts.tolist())
        return
    keys = pack_codes(blocks, sizes)
    if keys is None:  # pragma: no cover - int64 key-space overflow
        get = target.get
        for key in zip(*(block.tolist() for block in blocks)):
            target[key] = get(key, 0) + 1
        return
    uniques, counts = unique_counts_ordered(keys)
    add_counts(target, unpack_codes(uniques, sizes), counts.tolist())
