"""One state container per kind of statistic.

Every figure the paper draws is a distinct count (Figure 2), a top-k table
(Figures 4-6 and 8) or a distribution (§4.3), and each kind is held in
exactly two ways: exact state, or a bounded-memory sketch from
:mod:`repro.common.sketches`.  This module is the only place under
:mod:`repro.analysis` that knows two representations exist:

=================  =====================  ==========================
factory            exact                  sketch
=================  =====================  ==========================
:func:`distinct`   :class:`IdRuns`        :class:`HllDistinct`
:func:`top_k`      :class:`ExactCounts`   :class:`SpaceSavingCounts`
:func:`quantiles`  :class:`SortedColumn`  :class:`SketchQuantiles`
=================  =====================  ==========================

An accumulator takes its container from the kind's factory at construction
— the one place the :mod:`~repro.common.statsmode` is read — and is
otherwise mode-blind.  Every container offers:

``fresh(frame)``
    an empty twin bound to ``frame`` (what ``Accumulator._reset`` installs);
``row_adder()`` / ``block_adder(...)``
    the adders of the row-step reference and of the NumPy block kernel;
``export_state()`` / ``restore_state(payload)``
    the accumulator contract of :mod:`repro.analysis.engine`, delegated —
    the one way two containers' states combine.  ``export_state`` returns
    the payload *fields* this representation owns and ``restore_state``
    picks them out of the accumulator's payload; restoring a payload the
    other representation wrote is an :class:`AnalysisError` raised before
    any state changes;
``signature()``
    what the container adds to ``Accumulator.config_signature()``: nothing
    when exact (pre-sketch checkpoints stay restorable), the sketch's
    parameters otherwise — so the two modes never share a cache entry;

plus the one query its kind answers: ``count()``, ``items()`` with
``total``, or ``summary(quantiles)`` with ``approximate``.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.common import statsmode
from repro.common.columns import RowIndices, TxFrame, gather_np
from repro.common.errors import AnalysisError
from repro.common.sketches import (
    DEFAULT_HEAVY_HITTERS,
    HyperLogLog,
    QuantileSketch,
    SpaceSaving,
    hash64,
)
from repro.common.statecodec import pack_code_table, restore_code_table
from repro.analysis.vectorized import (
    DENSE_KEYSPACE_MAX,
    count_codes,
    dense_space,
    fold_dense,
    pack_codes,
)

#: Scratch-tally entries :class:`SpaceSavingCounts` holds before folding the
#: scratch into its summary.  Folding is O(scratch), so a limit of a few
#: sketch capacities keeps the amortised per-key cost O(1) while bounding
#: live state at scratch + 2×capacity entries.
_SCRATCH_LIMIT = 3 * DEFAULT_HEAVY_HITTERS


def _sketching(stats: Optional[str]) -> bool:
    return statsmode.resolve(stats) == statsmode.SKETCH


class _Container:
    """What the six containers share: the cross-representation rejections."""

    #: Payload field that identifies this representation's state.
    field: str

    def fresh(self, frame: TxFrame) -> "_Container":
        return type(self)(frame)

    def signature(self) -> tuple:
        return ()

    def restore_state(self, payload: Dict[str, Any]) -> None:
        # Mode mismatches are normally caught upstream by the
        # ``config_signature`` gate; the payload-shape check here is
        # defense-in-depth so a cross-mode restore can never half-apply.
        if self.field not in payload:
            raise AnalysisError(
                f"payload has no {self.field!r} field for {type(self).__name__} "
                "state; a cross-mode restore requires a rescan"
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


class HllDistinct(_Container):
    """A HyperLogLog over the frame's cached deterministic id hashes.

    State is O(1) in the row count; the count is exact until the sketch's
    sparse limit and carries ~0.81 % standard error beyond it.  The payload
    is the register file or the deduplicated sparse hash column.
    """

    field = "hll"

    def __init__(self, frame: Optional[TxFrame] = None):
        self._frame = frame
        self.sketch = HyperLogLog()

    def row_adder(self) -> Callable[[int], None]:
        add_hash = self.sketch.add_hash
        transaction_ids = self._frame.transaction_id
        return lambda row: add_hash(hash64(transaction_ids[row]))

    def block_adder(self) -> Callable[[RowIndices], None]:
        # One vectorized hash-column build per frame, shared across passes:
        # the per-block cost is a uint64 gather plus a register fold.
        import numpy as np

        update = self.sketch.update_np
        hashes = np.frombuffer(self._frame.transaction_id_hashes(), dtype=np.uint64)
        return lambda rows: update(gather_np(hashes, rows))

    def signature(self) -> tuple:
        return (("sketch", "hll", self.sketch.p, self.sketch.sparse_limit),)

    def export_state(self) -> Dict[str, Any]:
        return {"hll": self.sketch.export_state()}

    def _restore(self, payload: Dict[str, Any]) -> None:
        self.sketch.restore_state(payload["hll"])

    def count(self) -> int:
        return self.sketch.count()


def distinct(stats: Optional[str] = None) -> _Container:
    """The distinct-transaction-id container of the (resolved) stats mode."""
    return HllDistinct() if _sketching(stats) else IdRuns()


# -- top-k tallies of interned account-code keys ----------------------------------------


class _TopK(_Container):
    """Tally of ``width``-column code keys whose first column is an account.

    Keys of the empty account never reach ``items()`` / ``total``, so
    ``total`` is the chain total the share computations divide by.
    """

    def __init__(self, width: int, frame: Optional[TxFrame] = None):
        self.width = width
        empty = None if frame is None else frame.accounts.code("")
        self._empty = -1 if empty is None else empty

    def _named(self, items) -> Iterator[Tuple[Any, int]]:
        empty = self._empty
        if self.width == 1:
            return (item for item in items if item[0] != empty)
        return (item for item in items if item[0][0] != empty)


class ExactCounts(_TopK):
    """A ``Counter`` of every key, in first-seen order; exported as ``field``."""

    def __init__(self, field: str, width: int, frame: Optional[TxFrame] = None):
        super().__init__(width, frame)
        self.field = field
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
        return self._named(self._counts.items())

    @property
    def total(self) -> int:
        return sum(count for _, count in self.items())


class SpaceSavingCounts(_TopK):
    """A capacity-bounded :class:`~repro.common.sketches.SpaceSaving` summary.

    Both adders tally into an exact scratch ``Counter`` that drains into
    the summary whenever it exceeds :data:`_SCRATCH_LIMIT` and at every
    observation point, so live state never holds more than the limit plus
    one block's distinct keys.  There is no dense fast path: a dense vector
    is O(key space) and materialises every key at once.  Below the capacity
    nothing is ever evicted, so the figures are identical to exact mode on
    the paper workloads; beyond it every retained estimate carries its
    documented over-count error.  Empty-account keys are dropped at fold
    time, which keeps the summary's exact ``total`` the chain total.
    """

    field = "ss"

    def __init__(self, width: int, frame: Optional[TxFrame] = None):
        super().__init__(width, frame)
        self.sketch = SpaceSaving()
        self._scratch: Counter = Counter()

    def fresh(self, frame: TxFrame) -> "SpaceSavingCounts":
        return SpaceSavingCounts(self.width, frame)

    def row_adder(self) -> Callable[[Any], None]:
        scratch = self._scratch
        fold = self._fold

        def add(key) -> None:
            scratch[key] += 1
            if len(scratch) > _SCRATCH_LIMIT:
                fold()

        return add

    def block_adder(
        self, sizes: Sequence[int], ordered: bool = True
    ) -> Callable[[Sequence], None]:
        scratch = self._scratch
        fold = self._fold

        def add(blocks: Sequence) -> None:
            count_codes(scratch, blocks, sizes)
            if len(scratch) > _SCRATCH_LIMIT:
                fold()

        return add

    def _fold(self) -> None:
        """Drain the scratch tally into the summary."""
        add = self.sketch.add
        for key, count in self._named(self._scratch.items()):
            add(key, count)
        self._scratch.clear()

    def signature(self) -> tuple:
        return (("sketch", "ss", self.sketch.capacity),)

    def export_state(self) -> Dict[str, Any]:
        self._fold()
        return {"ss": self.sketch.export_state()}

    def _restore(self, payload: Dict[str, Any]) -> None:
        self.sketch.restore_state(payload["ss"])

    def items(self) -> Iterable[Tuple[Any, int]]:
        """The live estimates, in first-seen order while below capacity."""
        self._fold()
        return self.sketch.counts().items()

    @property
    def total(self) -> int:
        self._fold()
        return self.sketch.total


def top_k(stats: Optional[str], field: str, width: int) -> _TopK:
    """The top-k container of the (resolved) stats mode.

    ``field`` names the exact representation's payload field.
    """
    return SpaceSavingCounts(width) if _sketching(stats) else ExactCounts(field, width)


# -- quantiles of a float column --------------------------------------------------------


class SortedColumn(_Container):
    """Every value in a flat ``array('d')``, sorted at query time — O(values)."""

    field = "values"
    approximate = False

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


class SketchQuantiles(_Container):
    """A relative-error :class:`~repro.common.sketches.QuantileSketch` — O(1).

    Everything but the count carries the sketch's ``alpha`` bound.  The
    block adder bins value by value with scalar ``math.log`` deliberately,
    so both kernels bin bit-identically.
    """

    field = "qs"
    approximate = True

    def __init__(self, frame: Optional[TxFrame] = None):
        self.sketch = QuantileSketch()

    def row_adder(self) -> Callable[[float], None]:
        return self.sketch.add

    def block_adder(self) -> Callable[[Any], None]:
        extend = self.sketch.extend
        return lambda block: extend(block.tolist())

    def signature(self) -> tuple:
        return (("sketch", "qs", self.sketch.alpha),)

    def export_state(self) -> Dict[str, Any]:
        return {"qs": self.sketch.export_state()}

    def _restore(self, payload: Dict[str, Any]) -> None:
        self.sketch.restore_state(payload["qs"])

    def summary(self, quantiles: Sequence[float]) -> Tuple:
        sketch = self.sketch
        ranked = [sketch.quantile(q) for q in quantiles]
        return sketch.total, sketch.sum(), sketch.min_value(), sketch.max_value(), ranked


def quantiles(stats: Optional[str] = None) -> _Container:
    """The float-distribution container of the (resolved) stats mode."""
    return SketchQuantiles() if _sketching(stats) else SortedColumn()
