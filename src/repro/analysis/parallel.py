"""Out-of-core execution of the single-pass analysis engine.

Chains are independent, and within a chain the accumulators' scanned state
folds across disjoint row ranges by payload (``export_state`` →
``restore_state``, :mod:`repro.analysis.engine`).  The unit of work is a
**chunk task**, ``(tag, directory, chunk_start, chunk_stop, factories,
cache entries)``: a pointer into an on-disk
:class:`~repro.collection.store.FrameStore`, not data.  A chunk is
rehydrated **one at a time** into a frame sharing the store's global pools
(version-2 manifests carry them as per-chunk deltas, so no chunk is decoded
to learn the code space) and scanned per chain with fresh accumulators.
Peak memory is one decompressed chunk plus accumulator state, and no
process ever holds the full frame.

There is **one fold**, :func:`fold_states`: a scanned chunk's states, a
cached chunk's states, a worker's shipped carry and a pipeline checkpoint
are all ``(qualname, payload)`` lists per chain, validated against the
accumulators they fold into.  Folded in chunk order they replay the serial
scan: counts, rankings, series and orderings are identical to a serial
engine run.  The one caveat is floating-point accumulation —
``ValueFlowAccumulator`` adds chunk subtotals, which may differ from the
serial row-order sum in the last few ulps (``docs/architecture.md``).

There is **one route**, :func:`fold_store`: every report and every pipeline
update folds the state entries it has and scans only the chunks no entry
covers, writing their entries as it goes.  Serial versus pooled is only a
scheduling choice over one task list.  :func:`parallel_report_from_store`
is the full-report entry point.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.columns import LazyMetadata, StringPool, TxFrame
from repro.common import faults
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.analysis.engine import Accumulator, scan
from repro.analysis.report import ChainFigures, FullReport, figure_factory
from repro.analysis.statecache import (
    CacheContext,
    ChainStates,
    ChunkStateCache,
    EntryKey,
    factories_digest,
)

#: A factory producing a fresh, unbound accumulator set.  It is invoked once
#: per chunk (in the worker) and once in the parent, so it must be picklable:
#: a module-level function, a ``functools.partial`` over one, or a class.
AccumulatorFactory = Callable[[], Sequence[Accumulator]]

#: One unit of out-of-core work: (tag, store directory, chunk_start,
#: chunk_stop, per-chain factories keyed by chain value string, optional
#: chunk-state cache directory with one entry key per chunk of the range).
#: No row data crosses the process boundary, and no worker derives a key.
ChunkScanTask = Tuple[
    object, str, int, int, Dict[str, AccumulatorFactory], Optional[Tuple[str, Tuple[EntryKey, ...]]]
]


class StateMismatch(AnalysisError):
    """States do not line up with the accumulators they would fold into."""


def export_states(accumulators: Sequence[Accumulator]) -> List[Tuple[str, dict]]:
    """One chain's scanned state as ``(qualname, payload)`` pairs, in order."""
    return [
        (type(accumulator).__qualname__, accumulator.export_state())
        for accumulator in accumulators
    ]


def fold_states(
    states: ChainStates, targets: Dict[str, Sequence[Accumulator]]
) -> None:
    """Fold one row range's exported states into ``targets``, chain by chain.

    This is the only fold of the chunk engine: a scanned chunk, a cached
    chunk and a worker's shipped carry all arrive here as
    ``{chain value: [(qualname, payload), ...]}``.  Every chain is validated
    (a target set exists, same length, same qualname sequence) before *any*
    state is touched, so states that do not fit raise :class:`StateMismatch`
    with ``targets`` unchanged — a worker reading a cache entry treats that
    as a miss and rescans the chunk; everywhere else it is the
    :class:`AnalysisError` it subclasses.  A payload that passes this
    validation (and, for a cached entry, the entry checksum) and still makes
    ``restore_state`` raise is a code bug (a payload schema change without
    an :data:`~repro.analysis.statecache.ENTRY_MAGIC` bump), not disk
    corruption, and propagates as such.  Payloads are only read, so the
    same states can be folded here and persisted by the caller.
    """
    for chain_key, shipped in states.items():
        base = targets.get(chain_key)
        if base is None:
            raise StateMismatch(f"no accumulators to fold {chain_key!r} states into")
        if len(base) != len(shipped):
            raise StateMismatch(
                f"{chain_key!r} carries {len(shipped)} state payloads, "
                f"expected {len(base)}"
            )
        for target, (qualname, _payload) in zip(base, shipped):
            if type(target).__qualname__ != qualname:
                raise StateMismatch(
                    f"{chain_key!r} state for {qualname} does not match "
                    f"{type(target).__qualname__}"
                )
    for chain_key, shipped in states.items():
        for target, (_qualname, payload) in zip(targets[chain_key], shipped):
            target.restore_state(payload)


def _bound_base(factory: AccumulatorFactory, frame: TxFrame) -> List[Accumulator]:
    """Fresh fold targets, state-initialised against ``frame`` through
    ``_reset`` — never a scan kernel: they are only ever restored into."""
    base = list(factory())
    for accumulator in base:
        accumulator._reset(frame)
    return base


#: How long :func:`_drain_imap` lets every pending result stall with all
#: workers apparently alive before declaring the pool wedged.  Generous — a
#: single chunk scan finishes in seconds — but bounded, because a silently
#: lost task would otherwise block forever.
_POOL_STALL_TIMEOUT = 600.0

#: Poll interval for the dead-worker watchdog.
_POOL_POLL_SECONDS = 0.2


def _drain_imap(pool, results):
    """Yield ``imap`` results, failing fast when a worker process dies.

    ``multiprocessing.Pool`` never surfaces a worker killed mid-task
    (``os._exit``, OOM-kill, SIGKILL): the pool quietly replaces the
    process and ``imap`` waits forever for a result that will never come.
    Each result is therefore polled with a timeout while the pool's
    original worker processes are watched for abnormal exit codes; a dead
    worker raises :class:`AnalysisError`, which consumers treat as a failed
    (retryable, e.g. serially) scan rather than a hang.
    """
    import multiprocessing  # loaded already: only a pooled scan gets here

    procs = list(pool._pool)
    stalled = 0.0
    while True:
        try:
            yield results.next(timeout=_POOL_POLL_SECONDS)
            stalled = 0.0
        except StopIteration:
            return
        except multiprocessing.TimeoutError:
            for proc in procs:
                if proc.exitcode not in (None, 0):
                    raise AnalysisError(
                        f"worker process {proc.pid} died mid-scan "
                        f"(exit code {proc.exitcode}); its task is lost"
                    )
            stalled += _POOL_POLL_SECONDS
            if stalled >= _POOL_STALL_TIMEOUT:
                raise AnalysisError(
                    f"worker pool produced no result for {stalled:.0f}s "
                    "with all workers alive; assuming a wedged pool"
                )


# -- out-of-core chunk scanning --------------------------------------------------------


def chunk_ranges(chunk_count: int, parts: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal ``[start, stop)`` partitions of a chunk index space."""
    parts = max(1, min(parts, chunk_count))
    base, extra = divmod(chunk_count, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(parts):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def row_balanced_ranges(
    row_counts: Sequence[int], parts: int
) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunk partitions balanced by row count.

    :func:`chunk_ranges` splits by chunk *count*, which skews worker
    wall-clock when chunk sizes are ragged (a tail of small flush chunks
    behind full-size ones).  This splits the same index space at cumulative
    row boundaries instead: each part's target is an equal share of the
    rows still unassigned, and a chunk joins the current part when at
    least half of it fits under the target.  Every part gets at least one
    chunk; concatenating the ranges always reproduces ``range(len(row_counts))``
    exactly, so the fold-order (and therefore figure) guarantees of
    :func:`fold_store` are untouched — only the cut points move.
    """
    chunk_count = len(row_counts)
    parts = max(1, min(parts, chunk_count))
    total = sum(row_counts)
    if parts <= 1 or total <= 0:
        return chunk_ranges(chunk_count, parts)
    ranges: List[Tuple[int, int]] = []
    start = 0
    covered = 0.0
    for index in range(parts):
        remaining_parts = parts - index
        if remaining_parts == 1:
            ranges.append((start, chunk_count))
            break
        # Leave at least one chunk for every later part.
        max_stop = chunk_count - (remaining_parts - 1)
        target = covered + (total - covered) / remaining_parts
        stop = start + 1
        covered += row_counts[start]
        while stop < max_stop and covered + row_counts[stop] / 2 <= target:
            covered += row_counts[stop]
            stop += 1
        ranges.append((start, stop))
        start = stop
    return ranges


_POOLS = ("types", "accounts", "currencies", "errors")


def _store_skeleton(store, skeleton: Optional[TxFrame] = None) -> TxFrame:
    """Empty frame adopting the store's global string pools.

    Every chunk frame and every fold target binds against pools built from
    the same :meth:`~repro.collection.store.FrameStore.pool_values`, so
    interned codes in exported state mean the same strings in every process
    without shipping pools per chunk.  Given a ``skeleton`` built from the
    same store earlier, its pools are extended in place with the strings
    committed since (pools are append-only).
    """
    pools = store.pool_values()
    if skeleton is None:
        return TxFrame.with_pools(*(StringPool(pools[name]) for name in _POOLS))
    for name in _POOLS:
        pool = getattr(skeleton, name)
        pool.intern_many(pools[name][len(pool):])
    return skeleton


def fold_targets(
    store, factories: Dict[str, AccumulatorFactory], skeleton: Optional[TxFrame] = None
) -> Tuple[TxFrame, Dict[str, List[Accumulator]]]:
    """``(skeleton, targets)``: the store's pools (``skeleton`` extended when
    given, see :func:`_store_skeleton`) and one fresh fold target set per
    chain, bound to them — what :func:`fold_store` folds into."""
    skeleton = _store_skeleton(store, skeleton)
    return skeleton, {key: _bound_base(factory, skeleton) for key, factory in factories.items()}


def payload_frame(payload: Dict, skeleton: TxFrame) -> TxFrame:
    """A committed chunk's rows in a throwaway frame sharing ``skeleton``'s
    pools.  The payload is read, never written, and its columns are copied,
    so a decoded payload can go before :func:`scan_frame` runs."""
    metadata = payload["metadata"]
    if not isinstance(metadata, LazyMetadata):
        # A held payload's dicts: the frame only reads them, so it adopts
        # them instead of copying each one.
        payload = dict(payload, metadata=LazyMetadata(len(metadata), lambda: metadata))
    chunk = TxFrame.with_pools(*(getattr(skeleton, name) for name in _POOLS))
    chunk.extend_from_payload(payload)
    return chunk


def scan_frame(chunk: TxFrame, factories: Dict[str, AccumulatorFactory]) -> ChainStates:
    """One chunk's states: each chain's rows scanned by fresh accumulators."""
    states: ChainStates = {}
    for chain in chunk.chains():
        factory = factories.get(chain.value)
        if factory is not None:
            scanned = list(factory())
            scan(scanned, chunk, chunk.chain_view(chain).rows)
            states[chain.value] = export_states(scanned)
    return states


def _fold_chunk_range(
    task: ChunkScanTask,
    targets: Dict[str, Sequence[Accumulator]],
    store,
    skeleton: TxFrame,
    payloads: Optional[Dict[int, Dict]] = None,
) -> Dict[str, object]:
    """Fold one task's chunks into ``targets``, in chunk order.

    A chunk folds its chunk-state entry when the task's cache holds one
    under the chunk's key that fits; otherwise its payload
    (``payloads[index]`` when the caller still holds it, else decoded) is
    scanned, and the states come back in ``info["fresh"]`` as
    ``[(EntryKey, chain states), ...]`` for the caller to persist.  Hit or miss, the states go through the same
    :func:`fold_states`.  ``info`` also counts cache ``hits`` / ``misses``,
    the ``rows`` actually scanned and the chains ``present`` in the range.
    """
    _tag, _directory, start, stop, factories, entries = task
    cache = ChunkStateCache(entries[0]) if entries is not None else None
    info = {"hits": 0, "misses": 0, "rows": 0, "fresh": [], "present": set()}

    def fold(states: ChainStates) -> None:
        fold_states(states, targets)
        info["present"].update(states)

    for index in range(start, stop):
        key: Optional[EntryKey] = None
        if cache is not None:
            key = entries[1][index - start]
            loaded = cache.load(key)
            if loaded is not None:
                try:
                    fold(loaded)
                except StateMismatch:
                    pass  # not an entry of these factories: rescan the chunk
                else:
                    info["hits"] += 1
                    continue
            info["misses"] += 1
        held = payloads.get(index) if payloads else None
        # A decoded payload is a temporary: it is freed once the frame has
        # copied it, before the kernels run.
        chunk = payload_frame(held if held is not None else store.chunk_payload(index), skeleton)
        info["rows"] += len(chunk)
        chunk_states = scan_frame(chunk, factories)
        del chunk
        fold(chunk_states)
        if key is not None:
            info["fresh"].append((key, chunk_states))
    return info


def _scan_chunk_range(task: ChunkScanTask):
    """Pool worker entry point: fold one task's range into a carry, ship it.

    Returns ``(tag, {chain value: [(qualname, state payload), ...]}, info)``
    for each chain the range held (``info`` as :func:`_fold_chunk_range`).
    The store is reopened from the task's directory, manifest only.  The
    ``worker.chunk_task`` faultpoint lives here, so its ``kill`` ends a
    worker process, never a parent that folds in-process.
    """
    from repro.collection.store import FrameStore

    action = faults.check("worker.chunk_task")
    if action is not None and action.mode == faults.MODE_KILL:
        os._exit(17)  # hard worker death: no exception, no cleanup
    tag, directory, _start, _stop, factories, _entries = task
    store = FrameStore.open(directory)
    skeleton, carry = fold_targets(store, factories)
    info = _fold_chunk_range(task, carry, store, skeleton)
    return tag, {
        key: export_states(base) for key, base in carry.items() if key in info["present"]
    }, info


def _task_entries(context: Optional[CacheContext], store, start: int, stop: int):
    """A task's cache directory and the entry key of each of its chunks
    (chunk i's state depends on chunks ``[0, i]``); ``None`` without a cache."""
    if context is None:
        return None
    keys = (context.key(store.prefix(i + 1)) for i in range(start, stop))
    return context.directory, tuple(keys)


def chunk_scan_tasks(
    store,
    factories: Dict[str, AccumulatorFactory],
    parts: int,
    cache: Optional[CacheContext] = None,
    first: int = 0,
    stop: Optional[int] = None,
) -> List[ChunkScanTask]:
    """Partition committed chunks ``[first, stop)`` into ``parts`` contiguous
    tasks, tagged in chunk order and balanced by the manifest's per-chunk
    row counts (:func:`row_balanced_ranges`)."""
    ranges = row_balanced_ranges(store.chunk_row_counts()[first:stop], parts)
    return [
        (tag, store.directory, first + start, first + end, factories,
         _task_entries(cache, store, first + start, first + end))
        for tag, (start, end) in enumerate(ranges)
        if end > start
    ]  # fmt: skip


def store_factories(store, oracle=None, clusterer=None) -> Dict[str, AccumulatorFactory]:
    """One figure factory per chain in the store's committed chunks,
    configured from the manifest alone (no chunk is decoded)."""
    totals = store.chain_row_counts()
    return {
        chain.value: figure_factory(chain, store.time_bounds(chain), oracle, clusterer)
        for chain in ChainId
        if chain.value in totals
    }


def fold_store(
    store,
    factories: Dict[str, AccumulatorFactory],
    targets: Dict[str, Sequence[Accumulator]],
    workers: int = 1,
    tasks: Optional[int] = None,
    cache: Optional[ChunkStateCache] = None,
    first: int = 0,
    stop: Optional[int] = None,
    skeleton: Optional[TxFrame] = None,
    payloads: Optional[Dict[int, Dict]] = None,
) -> Dict[str, int]:
    """The one route: fold committed chunks ``[first, stop)`` into ``targets``.

    Each chunk folds its state entry where ``cache`` has one, else is
    scanned and its entry written — by this (the parent) process only — so
    no later command scans it again.  ``targets`` may already hold state (a
    pipeline update folds its checkpoint first).  More than one task with
    ``workers > 1`` runs in a pool (``tasks`` sets the partition count,
    default one per worker); ``imap`` yields carries in task order and the
    tasks are contiguous ranges, so each chain still folds in row order.
    Anything else folds in-process, each chunk straight into ``targets``,
    scanning the ``payloads`` the caller still holds instead of decoding
    them.  Returns ``{"hits", "misses", "rows", "workers"}``: cache lookups
    (also added to ``cache``'s counters), rows scanned, pool size.
    """
    # The digest is pinned here in the parent: the key must match the
    # factories actually shipped.
    context = cache.context(factories_digest(factories)) if cache is not None else None
    chunk_tasks = chunk_scan_tasks(
        store,
        factories,
        tasks if tasks is not None else max(workers, 1),
        cache=context,
        first=first,
        stop=stop,
    )
    stats = {"hits": 0, "misses": 0, "rows": 0, "workers": 0}

    def absorb(info) -> None:
        for name in ("hits", "misses", "rows"):
            stats[name] += info[name]
        for entry_key, states in info["fresh"]:
            cache.store(entry_key, states)

    if workers > 1 and len(chunk_tasks) > 1:
        # Imported here, not at the top: an in-process scan (a warm
        # ``report``, every one-chunk ``update``) never needs it.
        import gc
        import multiprocessing

        stats["workers"] = min(workers, len(chunk_tasks))
        context = multiprocessing.get_context()
        # A forked worker inherits the caller's heap.  ``gc.freeze`` takes
        # those objects out of the worker's collections, so a full
        # collection there neither walks them nor copies every page they
        # sit on (how long that takes depends on where the caller's
        # collector counts stood at the fork).
        with context.Pool(processes=stats["workers"], initializer=gc.freeze) as pool:
            results = pool.imap(_scan_chunk_range, chunk_tasks)
            for _tag, shipped, info in _drain_imap(pool, results):
                fold_states(shipped, targets)
                absorb(info)
    elif chunk_tasks:
        skeleton = _store_skeleton(store) if skeleton is None else skeleton
        for task in chunk_tasks:
            absorb(_fold_chunk_range(task, targets, store, skeleton, payloads))
    if cache is not None:
        cache.hits += stats["hits"]
        cache.misses += stats["misses"]
    return stats


def chunk_scan_states(
    directory: str,
    oracle=None,
    clusterer=None,
    workers: Optional[int] = None,
    tasks: Optional[int] = None,
    cache: Optional[ChunkStateCache] = None,
    store=None,
) -> Tuple[Dict[str, int], Dict[str, List[Accumulator]]]:
    """A store's committed chunks folded by :func:`fold_store` from zero.

    Returns ``(chain_row_totals, bases)``: each chain's fully folded figure
    accumulators, not yet finalized.  ``workers`` defaults to one per core;
    ``cache`` enables the chunk-state cache (its counters say what hit);
    ``store`` reuses an already-open store for ``directory``.
    """
    from repro.collection.store import FrameStore

    workers = (os.cpu_count() or 1) if workers is None else workers
    if store is None:
        store = FrameStore.open(directory)
    # Backfills and commits chunk metadata once, in the parent, so every
    # worker's reopen is manifest-only.
    totals = store.chain_row_counts()
    factories = store_factories(store, oracle, clusterer)
    if not store.committed_chunk_count or not factories:
        return totals, {}
    skeleton, bases = fold_targets(store, factories)
    fold_store(store, factories, bases, workers, tasks, cache, skeleton=skeleton)
    return totals, bases


def parallel_report_from_store(
    directory: str, oracle=None, clusterer=None, **options
) -> FullReport:
    """The full figure set computed out-of-core from an on-disk store.

    The same :class:`~repro.analysis.report.FullReport` as
    :func:`~repro.analysis.report.full_report` over the store's committed
    rows; the keyword ``options`` are :func:`chunk_scan_states`'.  With a
    warm cache and an unchanged store no chunk is decompressed at all.
    """
    totals, bases = chunk_scan_states(directory, oracle, clusterer, **options)
    return FullReport(
        {
            chain: ChainFigures.from_accumulators(
                chain, bases[chain.value], totals[chain.value]
            )
            for chain in ChainId
            if chain.value in bases
        }
    )
