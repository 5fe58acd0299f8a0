"""Single-pass streaming analysis engine.

The seed analysis layer computed every figure with its own full iteration
over the record list: ten figures meant ten passes.  The engine inverts
that: each analysis module exposes its per-row logic as an
:class:`Accumulator`, and :class:`AnalysisEngine` drives any number of
accumulators through **one** streaming scan of a columnar
:class:`~repro.common.columns.TxFrame` (or a zero-copy view of it).

Execution is *block-at-a-time*, the standard design for columnar engines:
the scan advances in bounded row blocks, and every accumulator consumes the
current block before the scan moves on.  Data is read once, stays
cache-hot across accumulators, and memory stays bounded regardless of frame
size.  Inside a block, accumulators use vectorized NumPy primitives over
zero-copy ndarray views of the columns (packed-code histograms, boolean
masks, min/max reductions — see :mod:`repro.analysis.vectorized`) instead
of per-row Python dispatch — that is where the engine's speed over the
seed's per-figure passes comes from.

The accumulator protocol — every accumulator has one scan kernel:

``_reset(frame)``
    Initialises empty state against ``frame``: what the kernel starts
    from, and all a fold target needs before ``restore_state``.  It must
    not touch a scan kernel, so folding cached states never imports numpy.

``bind_batch(frame) -> consume``
    The scan kernel.  Called once before the pass; it resets through
    ``_reset(frame)`` (one state shape, so ``export_state`` /
    ``restore_state`` / ``finalize`` never ask how the state was built),
    captures the column buffers it needs and returns a ``consume(rows)``
    callable invoked with each block (a ``range`` for contiguous scans, an
    ``int64`` index ndarray for filtered views).  A figure that is not hot
    may consume with a plain loop over ``rows``; a hot one uses NumPy block
    operations.  Each kernel equals the plain reference of its figure in
    ``tests/support/reference.py`` (``tests/properties/test_kernel_parity.py``
    compares them for every accumulator).

``finalize() -> result``
    Called once after the scan; returns the figure's result.

Accumulators are one-shot: binding resets state, so an instance can be
reused across engine runs but not shared between concurrent passes.

**State payloads are the one fold.**  Chunk-wise and multi-process
execution, the chunk-state cache and durable checkpoints all combine
partial results the same way: disjoint row ranges are scanned
independently, each range's state is exported as a **payload** (never a
pickled accumulator object), and the payloads are folded in row order into
one accumulator before a single ``finalize``:

``export_state() -> payload``
    Returns the scanned (post-bind, *pre-finalize*) state as a typed,
    columnar payload — plain data values plus packed
    :mod:`repro.common.statecodec` columns (string collections as one
    joined blob, integer/float tallies as ``array('q')``/``array('d')``
    key and count columns).  Configuration never rides along: the payload
    is pure scanned state, and the big collections serialise in O(bytes),
    not O(elements).

``restore_state(payload) -> None``
    Folds an exported payload into this accumulator, leaving the payload
    untouched (the same payload may be folded elsewhere and persisted).
    The target must be initialised (``_reset``, or ``bind_batch``)
    against a frame with **identical string pools** to the exporting
    side's (the guarantee :meth:`TxFrame.with_pools` provides for chunks
    rehydrated against a store's global pools), the exporting side must
    have had an equal :meth:`Accumulator.config_signature`, and payloads
    must be restored in
    row order ahead of any delta scan — under those conditions the folded
    state replays the serial scan and the finalised result is
    deterministic.  Restoring a serial snapshot and scanning the remaining
    rows replays the serial pass exactly — including the bit-for-bit
    Figure 12 float sums.  Row order is load-bearing for ``tx_stats``: it
    counts transaction-id *runs*
    (:class:`~repro.analysis.containers.IdRuns`), so a source whose rows
    interleave two transactions' ids over-counts.  Stores check that where
    they encode a chunk; ``full_report(frame)`` over a frame built from
    caller-ordered records takes it as a precondition.

The surrounding contract has three legs:

1. snapshots are taken **before** ``finalize``, and ``finalize`` does not
   modify state — a payload has one shape, and ``export_state()`` returns
   equal bytes on either side of it (``tests/test_one_fold.py``);
2. state that references interned string codes stays valid because frame
   rehydration (:meth:`TxFrame.from_payload` and
   :meth:`~repro.collection.store.FrameStore.to_frame`) re-interns pools
   append-only and in a deterministic order, so a code assigned at
   checkpoint time maps to the same string in every later rehydration of a
   grown store;
3. ``config_signature()`` is the compatibility gate: a restore is only
   defined between accumulators whose signatures are equal.  Fields
   that legitimately advance between incremental updates (for example a
   throughput series' window *end*) are excluded from the signature by the
   overriding accumulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.columns import (
    CHAIN_ORDER,
    FrameLike,
    RowIndices,
    TxFrame,
    as_index_rows,
    gather_np,
    view_of,
)
from repro.common.digest import sha256
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.analysis.containers import IdRuns

BatchStep = Callable[[RowIndices], None]

#: Rows per scan block.  Large enough that per-block Python overhead is
#: negligible, small enough that the column slices the kernels gather for
#: one block stay cache-friendly and a few MB at most, however many rows the
#: scanned view holds.
BLOCK_ROWS = 16_384


def config_digest(items: Any) -> str:
    """Short stable digest of a configuration mapping or iterable.

    Used by accumulators whose configuration is a table too large to embed
    in :meth:`Accumulator.config_signature` directly (label tables, cluster
    maps, oracle rate tables).  Mappings are digested as sorted items so
    insertion order never matters.
    """
    if isinstance(items, dict):
        items = sorted(items.items())
    payload = repr(items).encode("utf-8")
    return sha256(payload).hexdigest()[:16]


def scan_blocks(rows: RowIndices, block_rows: int) -> Iterator[RowIndices]:
    """Split a row sequence into engine scan blocks.

    The sequence is normalised once through
    :func:`~repro.common.columns.as_index_rows`, so every non-contiguous
    block the consumers see is an ``int64`` index ndarray (sliced zero-copy
    from the full sequence) instead of a per-block ``array`` copy; ranges
    stay ranges.
    """
    rows = as_index_rows(rows)
    total = len(rows)
    for start in range(0, total, block_rows):
        yield rows[start : start + block_rows]


def bind_scan(accumulators: Sequence["Accumulator"], frame: TxFrame) -> BatchStep:
    """Bind every accumulator to ``frame``; returns ``drive(rows)``, the one
    block loop: every accumulator consumes a block before the scan moves on.
    (The incremental pipeline restores saved state between bind and drive.)
    """
    consumers = [accumulator.bind_batch(frame) for accumulator in accumulators]

    def drive(rows: RowIndices) -> None:
        for block in scan_blocks(rows, BLOCK_ROWS):
            for consume in consumers:
                consume(block)

    return drive


def scan(
    accumulators: Sequence["Accumulator"], frame: TxFrame, rows: RowIndices
) -> None:
    """Bind and drive: the accumulators end up scanned over ``rows``, not finalized."""
    bind_scan(accumulators, frame)(rows)


class Accumulator:
    """Base class for single-pass analysis accumulators."""

    #: Key under which the accumulator's result appears in the engine output.
    name: str = "accumulator"

    def _reset(self, frame: TxFrame) -> None:
        """Initialise empty state against ``frame``: what :meth:`bind_batch`
        starts with, and all a fold target needs before :meth:`restore_state`.
        Must not touch a scan kernel (so folding cached states never imports
        numpy)."""
        raise NotImplementedError

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Reset through :meth:`_reset` and return the per-block consumer."""
        raise NotImplementedError

    def finalize(self) -> Any:
        """Return the analysis result after the pass completes."""
        raise NotImplementedError

    def export_state(self) -> Dict[str, Any]:
        """Scanned (pre-finalize) state as a typed, columnar payload.

        The payload must be built from :mod:`repro.common.statecodec` data
        values only — scalars, strings, bytes, lists/tuples/dicts and
        packed ``array`` columns — so a checkpoint can serialise it without
        pickling.  Export only *state*; configuration is reconstructed by
        the restoring side's factory and guarded by
        :meth:`config_signature`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement export_state()"
        )

    def restore_state(self, payload: Dict[str, Any]) -> None:
        """Fold an :meth:`export_state` payload into this accumulator.

        This side must be post-bind / pre-finalize on a frame whose string
        pools are identical to the exporting side's, the exporting side
        must have carried an equal :meth:`config_signature`, and payloads
        must be applied in row order (checkpointed prefix before the delta
        scan); the payload itself is read, never modified (see the module
        docstring).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement restore_state()"
        )

    def config_signature(self) -> tuple:
        """Hashable identity of this accumulator's configuration.

        Restoring one accumulator's exported state into another is only
        defined when their signatures are equal.  Accumulators with
        configuration (a column side, a label
        table, an oracle) override this to include it; fields that may
        legitimately advance between incremental updates (a growing window
        end) are deliberately left out by the override.
        """
        return (type(self).__qualname__, self.name)

    # -- convenience ----------------------------------------------------------------
    def run(self, source: FrameLike) -> Any:
        """Run just this accumulator over ``source`` (one pass)."""
        return AnalysisEngine([self]).run(source)[self.name]


class FigureSpec(NamedTuple):
    """One figure of the report, declared once beside its accumulator.

    ``repro.analysis.report.FIGURES`` lists the specs in order; building the
    accumulators, assembling :class:`~repro.analysis.report.ChainFigures` and
    rendering JSON and text all walk that table, so nothing else names a
    figure.  ``name`` is the accumulator's ``name`` (the result key);
    ``factory(chain, config)`` takes the report's
    :class:`~repro.analysis.report.FigureConfig` and returns a fresh
    accumulator, or ``None`` when ``config`` lacks an input the figure needs
    (an oracle, a clusterer).  ``to_json(value)`` is the figure's ``--json``
    form under ``json_key`` (default: ``name``) and ``render(value)`` its
    text-report lines; both are optional, and ``None`` / no lines means
    "nothing to show" (a case study that found nothing).
    """

    name: str
    chains: Tuple[ChainId, ...]
    factory: Callable[[ChainId, Any], Optional[Accumulator]]
    json_key: Optional[str] = None
    to_json: Optional[Callable[[Any], Any]] = None
    render: Optional[Callable[[Any], Sequence[str]]] = None


class EngineResult:
    """Mapping of accumulator name → finalised result for one pass."""

    __slots__ = ("results", "rows_processed")

    def __init__(self, results: Dict[str, Any], rows_processed: int):
        self.results = results
        self.rows_processed = rows_processed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineResult):
            return NotImplemented
        return (self.results, self.rows_processed) == (
            other.results,
            other.rows_processed,
        )

    def __getitem__(self, name: str) -> Any:
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def get(self, name: str, default: Any = None) -> Any:
        return self.results.get(name, default)

    def keys(self):
        return self.results.keys()

    def items(self):
        return self.results.items()


class AnalysisEngine:
    """Drives a set of accumulators through one streaming scan of a frame.

    The engine is where the "N figures, one pass" guarantee lives: however
    many accumulators are registered, ``run`` scans the row sequence exactly
    once, block by block, fanning each block out to every accumulator.
    """

    def __init__(self, accumulators: Sequence[Accumulator]):
        if not accumulators:
            raise AnalysisError("engine needs at least one accumulator")
        names = [accumulator.name for accumulator in accumulators]
        if len(set(names)) != len(names):
            raise AnalysisError(f"duplicate accumulator names: {sorted(names)}")
        self.accumulators = list(accumulators)

    def run(self, source: FrameLike) -> EngineResult:
        """One streaming scan over ``source``; returns every accumulator's result."""
        view = view_of(source)
        scan(self.accumulators, view.frame, view.rows)
        return EngineResult(
            {acc.name: acc.finalize() for acc in self.accumulators},
            rows_processed=len(view),
        )


class TxStats(NamedTuple):
    """Dataset-characterisation statistics of one pass (Figure 2 counts).

    ``action_count`` counts rows (EOS actions / Tezos operations / XRP
    transactions); ``transaction_count`` collapses rows sharing a
    ``transaction_id`` (the paper's Figure 2 view of EOS traffic).
    """

    action_count: int
    transaction_count: int
    first_timestamp: Optional[float]
    last_timestamp: Optional[float]

    @property
    def duration_seconds(self) -> float:
        if self.first_timestamp is None or self.last_timestamp is None:
            return 0.0
        return self.last_timestamp - self.first_timestamp

    def tps(self, count_actions: bool = False) -> float:
        """Average transactions (or actions) per second over the window."""
        duration = self.duration_seconds
        if duration <= 0:
            return 0.0
        count = self.action_count if count_actions else self.transaction_count
        return count / duration


class TxStatsAccumulator(Accumulator):
    """Row/transaction counts and the time window, in the shared pass.

    The transaction count lives in an
    :class:`~repro.analysis.containers.IdRuns` container — a counter of id
    runs in row order (see the module docstring for the precondition).
    """

    name = "tx_stats"

    def __init__(self):
        self.ids = IdRuns()

    def _reset(self, frame: TxFrame) -> None:
        # [row count, min timestamp, max timestamp]
        self._state: List = [0, None, None]
        self.ids = self.ids.fresh(frame)

    def _widen(self, rows: int, low: float, high: float) -> None:
        """Fold a non-empty range's row count and timestamp span in."""
        state = self._state
        state[0] += rows
        if state[1] is None or low < state[1]:
            state[1] = low
        if state[2] is None or high > state[2]:
            state[2] = high

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: ndarray min/max over the block's timestamps."""
        self._reset(frame)
        timestamps = frame.ndarray("timestamp")
        add_ids = self.ids.block_adder()

        def consume(rows: RowIndices) -> None:
            if len(rows):
                add_ids(rows)
                block = gather_np(timestamps, rows)
                self._widen(len(rows), float(block.min()), float(block.max()))

        return consume

    def export_state(self) -> Dict[str, Any]:
        return {
            "rows": self._state[0],
            "first": self._state[1],
            "last": self._state[2],
            **self.ids.export_state(),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        self.ids.restore_state(payload)
        if payload["first"] is None:
            self._state[0] += payload["rows"]
        else:
            self._widen(payload["rows"], payload["first"], payload["last"])

    def finalize(self) -> TxStats:
        return TxStats(
            action_count=self._state[0],
            transaction_count=self.ids.count(),
            first_timestamp=self._state[1],
            last_timestamp=self._state[2],
        )


TX_STATS_FIGURE = FigureSpec(
    name=TxStatsAccumulator.name,
    chains=CHAIN_ORDER,
    factory=lambda chain, config: TxStatsAccumulator(),
)
