"""Out-of-core parallel execution of the single-pass analysis engine.

The workload is embarrassingly parallel: chains are independent, and within
a chain the accumulators' scanned state folds across disjoint row ranges by
payload (``export_state`` → ``restore_state`` — see
:mod:`repro.analysis.engine`).  The unit of work is a **chunk task**:
``(tag, directory, chunk_start, chunk_stop, factories, cache context)`` — a
pointer into an on-disk :class:`~repro.collection.store.FrameStore`, not
data.  Each worker reopens the store lazily (manifest only — version-2
manifests carry the global string pools as per-chunk deltas, so no chunk is
decompressed to learn the code space), rehydrates **one chunk at a time**
into a frame sharing the store's global pools
(:meth:`~repro.common.columns.TxFrame.with_pools`), scans each chain's rows
of that chunk with fresh accumulators, exports their states and folds those
into per-chain carry accumulators before dropping the chunk frame.  Peak
memory per process is one decompressed chunk plus accumulator state — flat
in the dataset's row count, and no process ever holds the full frame.

There is **one fold**, :func:`fold_states`: a chunk's freshly scanned
states, a chunk's cached states and a task's shipped carry states are all
``(qualname, payload)`` lists per chain, validated against the accumulators
they fold into and applied with
:meth:`~repro.analysis.engine.Accumulator.restore_state`.  The carry state
is exported once per task — compact columnar payloads, not pickled
accumulator objects — and the parent folds task results **in chunk order**
into accumulators bound to the store's pools, then finalises once.  Because
tasks are contiguous chunk ranges folded in order, the folded state replays
the serial scan order: counts, rankings, series and orderings are identical to
a serial engine run.  The one caveat is floating-point accumulation —
``ValueFlowAccumulator`` adds chunk subtotals, which may differ from the
serial row-order sum in the last few ulps (documented in
``docs/architecture.md``).

``workers <= 1`` streams the same tasks in-process (no pool), still
out-of-core: serial versus pooled is only a scheduling choice over one task
list.  :func:`parallel_report_from_store` is the full-report entry point;
the incremental pipeline's cold catch-up reuses the same tasks via
:func:`chunk_scan_states`.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.columns import StringPool, TxFrame
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
from repro.analysis.throughput import DEFAULT_BIN_SECONDS

#: A factory producing a fresh, unbound accumulator set.  It is invoked once
#: per chunk (in the worker) and once in the parent, so it must be picklable:
#: a module-level function, a ``functools.partial`` over one, or a class.
AccumulatorFactory = Callable[[], Sequence[Accumulator]]

#: One unit of out-of-core work: (tag, store directory, chunk_start,
#: chunk_stop, per-chain factories keyed by chain value string, optional
#: chunk-state cache context).  No row data crosses the process
#: boundary — the worker reopens the store and streams the half-open chunk
#: range ``[chunk_start, chunk_stop)``; with a cache context it first
#: consults the chunk-state cache per chunk and only scans the misses.
ChunkScanTask = Tuple[
    object, str, int, int, Dict[str, AccumulatorFactory], Optional[CacheContext]
]


def default_workers() -> int:
    """Worker count used when none is given: one per available core."""
    return os.cpu_count() or 1


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
    :func:`run_chunk_tasks` are untouched — only the cut points move.
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


def _store_skeleton(store) -> TxFrame:
    """Empty frame adopting the store's global string pools.

    Every chunk frame a worker rehydrates — and the parent's fold-target
    accumulators — bind against pools built from the same
    :meth:`~repro.collection.store.FrameStore.pool_values`, so interned
    codes in exported accumulator state mean the same strings in every
    process without shipping pools per chunk.
    """
    pools = store.pool_values()
    return TxFrame.with_pools(
        StringPool(pools["types"]),
        StringPool(pools["accounts"]),
        StringPool(pools["currencies"]),
        StringPool(pools["errors"]),
    )


def _scan_chunk_range(task: ChunkScanTask):
    """Worker entry point: stream one chunk range from disk, ship the state.

    Returns ``(tag, {chain value: [(qualname, state payload), ...]},
    cache info)`` for each chain the range contained.  Memory high-water
    mark is one decompressed chunk plus carry accumulator state: each chunk
    is rehydrated into a throwaway frame (sharing the store's pools),
    scanned per chain with fresh accumulators whose exported states are
    folded into the per-chain carry set, and dropped before the next chunk
    is touched.

    With a cache context, each chunk is first looked up in the chunk-state
    cache, and a hit skips the rehydrate-and-scan entirely.  Hit or miss,
    the chunk's states reach the carry through the same :func:`fold_states`
    — still in chunk order — so the two differ only in where the states
    came from; a miss (absent, corrupt, or mismatched entry) is the plain
    scan, and its states also travel back in the cache info for the parent
    to persist.  ``cache info`` is ``None`` without a context, else
    ``{"hits", "misses", "fresh"}`` where ``fresh`` is
    ``[(EntryKey, chain states), ...]``.
    """
    from repro.collection.store import FrameStore

    tag, directory, start, stop, factories, context = task
    action = faults.check("worker.chunk_task")
    if action is not None and action.mode == faults.MODE_KILL:
        os._exit(17)  # hard worker death: no exception, no cleanup
    store = FrameStore.open(directory)
    skeleton = _store_skeleton(store)
    cache = ChunkStateCache(context.directory) if context is not None else None
    carry = {key: _bound_base(factory, skeleton) for key, factory in factories.items()}
    present = set()  # the chains this range actually held
    hits = misses = 0
    fresh: List[Tuple[EntryKey, ChainStates]] = []
    for index in range(start, stop):
        key: Optional[EntryKey] = None
        if cache is not None:
            checksum, chunk_format = store.chunk_identity(index)
            key = context.key(checksum, chunk_format)
            loaded = cache.load(key)
            if loaded is not None:
                try:
                    fold_states(loaded, carry)
                except StateMismatch:
                    pass  # not an entry of these factories: rescan the chunk
                else:
                    present.update(loaded)
                    hits += 1
                    continue
            misses += 1
        chunk = TxFrame.with_pools(
            skeleton.types, skeleton.accounts, skeleton.currencies, skeleton.errors
        )
        chunk.extend_from_payload(store.chunk_payload(index))
        chunk_states: ChainStates = {}
        for chain in chunk.chains():
            factory = factories.get(chain.value)
            if factory is None:
                continue
            scanned = list(factory())
            scan(scanned, chunk, chunk.chain_view(chain).rows)
            chunk_states[chain.value] = export_states(scanned)
        fold_states(chunk_states, carry)
        present.update(chunk_states)
        if key is not None:
            fresh.append((key, chunk_states))
    cache_info = (
        {"hits": hits, "misses": misses, "fresh": fresh}
        if context is not None
        else None
    )
    return tag, {
        key: export_states(base) for key, base in carry.items() if key in present
    }, cache_info


def chunk_scan_tasks(
    directory: str,
    row_counts: Sequence[int],
    factories: Dict[str, AccumulatorFactory],
    parts: int,
    cache: Optional[CacheContext] = None,
) -> List[ChunkScanTask]:
    """Partition a store's committed chunks into ``parts`` contiguous tasks.

    Task tags are the partition indices, so feeding the list to
    :func:`run_chunk_tasks` folds results in chunk order.  ``row_counts``
    (one entry per committed chunk, from the manifest) places the cut
    points so that cumulative *rows*, not chunk counts, balance — see
    :func:`row_balanced_ranges`.  ``cache`` attaches a chunk-state cache
    context every worker consults before scanning.
    """
    return [
        (index, directory, start, stop, factories, cache)
        for index, (start, stop) in enumerate(row_balanced_ranges(row_counts, parts))
        if stop > start
    ]


def run_chunk_tasks(
    tasks: List[ChunkScanTask],
    workers: int,
    targets: Dict[str, Sequence[Accumulator]],
    cache: Optional[ChunkStateCache] = None,
) -> Dict[str, int]:
    """Scan chunk tasks (a pool when ``workers > 1``), fold in chunk order.

    ``targets`` maps chain value strings to fold-target accumulator sets;
    they may already hold state (the pipeline's cold catch-up seeds them
    before fanning out).  ``imap`` yields in task order regardless of
    completion order, and tasks are contiguous chunk ranges, so each
    chain's state is folded in exact chunk — i.e. row — order.

    ``cache`` is the parent-side :class:`ChunkStateCache`: workers consult
    (and report on) the cache via the context inside each task, but only
    the parent *persists* — freshly scanned per-chunk states travel back in
    the task results and are written here, single-writer, behind the atomic
    entry commit.  Returns the aggregated ``{"hits", "misses"}`` counters
    (also folded into ``cache``'s own counters when given).
    """
    stats = {"hits": 0, "misses": 0}
    if not tasks:
        return stats

    def fold(results) -> None:
        for _tag, shipped_by_chain, cache_info in results:
            fold_states(shipped_by_chain, targets)
            if cache_info is not None:
                stats["hits"] += cache_info["hits"]
                stats["misses"] += cache_info["misses"]
                if cache is not None:
                    for entry_key, states in cache_info["fresh"]:
                        cache.store(entry_key, states)

    if workers <= 1:
        fold(map(_scan_chunk_range, tasks))
    else:
        # Imported here, not at the top: an in-process scan (a warm
        # ``report``, every ``update`` delta) never needs it.
        import multiprocessing

        processes = min(workers, len(tasks))
        context = multiprocessing.get_context()
        with context.Pool(processes=processes) as pool:
            fold(_drain_imap(pool, pool.imap(_scan_chunk_range, tasks)))
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
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
    cache: Optional[ChunkStateCache] = None,
    store=None,
) -> Tuple[Dict[str, int], Dict[str, List[Accumulator]]]:
    """Scan a store's committed chunks out-of-core into accumulator state.

    Returns ``(chain_row_totals, bases)`` where ``bases`` maps each chain
    value to its fully-folded figure accumulators — not yet finalized, so
    callers can also checkpoint the state (the pipeline's cold catch-up
    does exactly that).  No process ever materialises the full frame: the
    parent reads only the manifest, workers stream contiguous chunk
    ranges.  ``tasks`` sets the partition count (default: one per worker);
    ``workers <= 1`` streams the same tasks in-process, still out-of-core.

    ``cache`` enables the chunk-state aggregate cache: already-memoized
    chunks fold their cached states instead of being rescanned, fresh
    chunks populate the cache, and the instance's hit/miss counters say
    which happened.  ``store`` reuses an already-open
    :class:`~repro.collection.store.FrameStore` for ``directory`` instead
    of re-validating the manifest (callers that just opened the store —
    the CLI's single-validation path — pass it straight through).
    """
    from repro.collection.store import FrameStore

    workers = default_workers() if workers is None else workers
    if store is None:
        store = FrameStore.open(directory)
    # Backfill + commit chunk metadata once in the parent so every worker's
    # reopen is manifest-only.
    store.ensure_chunk_stats()
    totals = store.chain_row_counts()
    chains = [chain for chain in ChainId if chain.value in totals]
    if not store.committed_chunk_count or not chains:
        return totals, {}
    factories: Dict[str, AccumulatorFactory] = {
        chain.value: figure_factory(
            chain, store.time_bounds(chain), oracle, clusterer, bin_seconds, top_limit
        )
        for chain in chains
    }
    context = None
    if cache is not None:
        # The digest is pinned here in the parent: the key must match the
        # factories actually shipped.
        context = cache.context(factories_digest(factories))
    task_count = tasks if tasks is not None else max(workers, 1)
    chunk_tasks = chunk_scan_tasks(
        directory,
        store.chunk_row_counts(),
        factories,
        task_count,
        cache=context,
    )
    skeleton = _store_skeleton(store)
    bases: Dict[str, List[Accumulator]] = {
        chain.value: _bound_base(factories[chain.value], skeleton)
        for chain in chains
    }
    run_chunk_tasks(chunk_tasks, workers, bases, cache=cache)
    return totals, bases


def parallel_report_from_store(
    directory: str,
    oracle=None,
    clusterer=None,
    workers: Optional[int] = None,
    tasks: Optional[int] = None,
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
    cache: Optional[ChunkStateCache] = None,
    store=None,
) -> FullReport:
    """The full figure set computed out-of-core from an on-disk store.

    Produces the same :class:`~repro.analysis.report.FullReport` as
    :func:`~repro.analysis.report.full_report` over the store's committed
    rows (staged, unflushed rows are excluded) — see
    :func:`chunk_scan_states` for the execution model and the ``cache`` /
    ``store`` parameters.  With a warm cache and an unchanged store this is
    the O(new-data) report path: no chunk is decompressed at all.
    """
    totals, bases = chunk_scan_states(
        directory,
        oracle=oracle,
        clusterer=clusterer,
        workers=workers,
        tasks=tasks,
        bin_seconds=bin_seconds,
        top_limit=top_limit,
        cache=cache,
        store=store,
    )
    report = FullReport()
    for chain in ChainId:
        if chain.value in bases:
            report.chains[chain] = ChainFigures.from_accumulators(
                chain, bases[chain.value], totals[chain.value]
            )
    return report
