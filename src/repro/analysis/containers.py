"""One state container per kind of statistic.

Every figure the paper draws is a distinct count (Figure 2), a top-k table
(Figures 4-6 and 8) or a distribution (§4.3), and each kind has exactly one
exact state container:

=====================  ===========================================
kind                   container
=====================  ===========================================
distinct ids           :class:`IdRuns`
top-k tallies          :class:`ExactCounts`
float distributions    :class:`SortedColumn`
=====================  ===========================================

An accumulator constructs its container directly and delegates its state
to it.  Every container offers:

``fresh(frame)``
    an empty twin bound to ``frame`` (what ``Accumulator._reset`` installs);
``row_adder()`` / ``block_adder(...)``
    the adders of the row-step reference and of the NumPy block kernel;
``export_state()`` / ``restore_state(payload)``
    the accumulator contract of :mod:`repro.analysis.engine`, delegated —
    the one way two containers' states combine.  ``export_state`` returns
    the payload *fields* the container owns and ``restore_state`` picks
    them out of the accumulator's payload; a payload without them is an
    :class:`AnalysisError` raised before any state changes;

plus the one query its kind answers: ``count()``, ``items()`` with
``total``, or ``summary(quantiles)``.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.common.columns import RowIndices, TxFrame, gather_np
from repro.common.errors import AnalysisError
from repro.common.statecodec import pack_code_table, restore_code_table
from repro.analysis.vectorized import (
    DENSE_KEYSPACE_MAX,
    count_codes,
    dense_space,
    fold_dense,
    pack_codes,
)


class _Container:
    """What the three containers share: the missing-field rejection."""

    #: Payload field that holds this container's state.
    field: str

    def fresh(self, frame: TxFrame) -> "_Container":
        return type(self)(frame)

    def restore_state(self, payload: Dict[str, Any]) -> None:
        # A payload read from disk can lack the field; rejecting it here,
        # before any state changes, keeps a bad restore from half-applying.
        if self.field not in payload:
            raise AnalysisError(
                f"payload has no {self.field!r} field for {type(self).__name__} "
                "state; the restore requires a rescan"
            )
        self._restore(payload)


# -- distinct transaction ids -----------------------------------------------------------


class IdRuns(_Container):
    """The number of id *runs* in row order — exact, O(1) state.

    A transaction occupies one position of one block and committed history
    is append-only, so in a chain's row order a transaction's rows are one
    contiguous run and the distinct count is the number of runs (rows that
    interleave two ids would over-count; the stores this program writes
    refuse them — see :class:`~repro.collection.store.FrameStore`).  State
    is ``(runs, first id, last id)`` and every addition — a row, a block, a
    restored payload — is the same **ordered** fold: a range whose first id
    continues this side's last run brings one run fewer.
    """

    field = "runs"

    def __init__(self, frame: Optional[TxFrame] = None):
        self._frame = frame
        self._runs = 0
        self._first: Optional[str] = None
        self._last: Optional[str] = None

    def _append(self, runs: int, first: str, last: str) -> None:
        """Fold the next row range's ``runs`` id runs, ``first`` … ``last``."""
        if not self._runs:
            self._first = first
        self._runs += runs - (self._last == first)
        self._last = last

    def row_adder(self) -> Callable[[int], None]:
        transaction_ids = self._frame.transaction_id
        append = self._append

        def add(row: int) -> None:
            append(1, transaction_ids[row], transaction_ids[row])

        return add

    def block_adder(self) -> Callable[[RowIndices], None]:
        # One slice (or fancy index) of the frame's cached id ndarray per
        # block, built on first use; run boundaries are one elementwise !=.
        import numpy as np

        frame = self._frame
        append = self._append
        ids = None

        def add(rows: RowIndices) -> None:
            nonlocal ids
            if ids is None:
                ids = frame.transaction_ids_ndarray()
            block = gather_np(ids, rows)
            if len(block):
                breaks = int(np.count_nonzero(block[1:] != block[:-1]))
                append(1 + breaks, block[0], block[-1])

        return add

    def export_state(self) -> Dict[str, Any]:
        return {"runs": self._runs, "first_id": self._first, "last_id": self._last}

    def _restore(self, payload: Dict[str, Any]) -> None:
        runs = payload["runs"]
        first, last = payload.get("first_id"), payload.get("last_id")
        named = isinstance(first, str) and isinstance(last, str)
        if type(runs) is not int or runs < 0 or (runs and not named):
            raise AnalysisError("IdRuns payload is malformed")
        if runs:
            self._append(runs, first, last)

    def count(self) -> int:
        return self._runs


# -- top-k tallies of interned account-code keys ----------------------------------------


class ExactCounts(_Container):
    """A ``Counter`` of ``width``-column code keys, in first-seen order.

    The first key column is an account, and keys of the empty account never
    reach ``items()`` / ``total``, so ``total`` is the chain total the share
    computations divide by.  The tally is exported as ``field``.
    """

    def __init__(self, field: str, width: int, frame: Optional[TxFrame] = None):
        self.field = field
        self.width = width
        empty = None if frame is None else frame.accounts.code("")
        self._empty = -1 if empty is None else empty
        self._counts: Counter = Counter()
        #: Pending (dense count vector, column bounds) of the block adder.
        self._dense: Optional[tuple] = None

    def fresh(self, frame: TxFrame) -> "ExactCounts":
        return ExactCounts(self.field, self.width, frame)

    def row_adder(self) -> Callable[[Any], None]:
        counts = self._counts

        def add(key) -> None:
            counts[key] += 1

        return add

    def block_adder(
        self, sizes: Sequence[int], ordered: bool = True
    ) -> Callable[[Sequence], None]:
        """Adder of parallel code-column blocks bounded by ``sizes``.

        ``ordered=False`` licenses the dense packed-code histogram — one
        ``np.bincount`` accumulated into a per-bind ``int64`` vector, no
        ``np.unique`` sort, no per-key Python work until the state is first
        observed — for callers whose finalizer is insertion-order
        independent: the dense vector folds in packed-key, not first-seen,
        order.  Key spaces too large for it take :func:`count_codes`.
        """
        import numpy as np

        counts = self._counts
        space = dense_space(sizes)
        if ordered or space > DENSE_KEYSPACE_MAX:
            return lambda blocks: count_codes(counts, blocks, sizes)

        def add(blocks: Sequence) -> None:
            # Allocated by the first block: a container that is bound only
            # to be restored into (a fold target) never holds the vector.
            if self._dense is None:
                self._dense = (np.zeros(space, dtype=np.int64), sizes)
            block = np.bincount(pack_codes(blocks, sizes))
            self._dense[0][: len(block)] += block

        return add

    def _flush(self) -> None:
        """Fold any pending dense histogram into the Counter."""
        pending = self._dense
        if pending is not None:
            self._dense = None
            fold_dense(self._counts, *pending)

    def export_state(self) -> Dict[str, Any]:
        self._flush()
        return {self.field: pack_code_table(self._counts, self.width)}

    def _restore(self, payload: Dict[str, Any]) -> None:
        restore_code_table(self._counts, payload[self.field])

    def items(self) -> Iterable[Tuple[Any, int]]:
        self._flush()
        empty = self._empty
        items = self._counts.items()
        if self.width == 1:
            return (item for item in items if item[0] != empty)
        return (item for item in items if item[0][0] != empty)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.items())


# -- quantiles of a float column --------------------------------------------------------


class SortedColumn(_Container):
    """Every value in a flat ``array('d')``, sorted at query time — O(values)."""

    field = "values"

    def __init__(self, frame: Optional[TxFrame] = None):
        self._values = array("d")

    def row_adder(self) -> Callable[[float], None]:
        return self._values.append

    def block_adder(self) -> Callable[[Any], None]:
        import numpy as np

        values = self._values
        return lambda block: values.frombytes(
            np.ascontiguousarray(block, dtype=np.float64).tobytes()
        )

    def export_state(self) -> Dict[str, Any]:
        return {"values": self._values}

    def _restore(self, payload: Dict[str, Any]) -> None:
        values = payload["values"]
        if not isinstance(values, array) or values.typecode != "d":
            raise AnalysisError("SortedColumn payload is malformed")
        self._values.extend(values)

    def summary(self, quantiles: Sequence[float]) -> Tuple:
        """``(count, sum, minimum, maximum, [value at each quantile])``.

        A function of the value *multiset* (sorted fold, exact float
        summation), so shard order never changes the figure.
        """
        values = sorted(self._values)
        count = len(values)
        if not count:
            return 0, 0.0, 0.0, 0.0, [0.0] * len(quantiles)
        ranked = [values[min(count - 1, int(q * (count - 1)))] for q in quantiles]
        return count, math.fsum(values), values[0], values[-1], ranked
