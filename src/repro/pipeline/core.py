"""The append-only, resumable ingestion pipeline.

This module ties the collection and analysis layers into one incremental
system.  Crawled or generated traffic streams straight into a
directory-backed :class:`~repro.collection.store.FrameStore` (no
intermediate ``List[BlockRecord]``), a :class:`~repro.pipeline.checkpoint.
CheckpointStore` persists the scanned accumulator state behind a row
watermark, and :func:`incremental_report` refreshes every figure by merging
the saved state with a scan of only the rows past the watermark.

The identity guarantee: for any split of a workload into ingestion batches,
the report produced after the last ``update`` equals the report of a single
serial :func:`~repro.analysis.report.full_report` over the same rows —
per accumulator and figure-for-figure.  It rests on three mechanisms:

* accumulator ``restore_state`` replays the serial scan when saved states
  are folded in row order (checkpointed prefix first, then the delta scan);
* frame rehydration re-interns string pools append-only and in
  deterministic order, so interned codes inside checkpointed states stay
  valid as the store grows;
* :meth:`~repro.analysis.engine.Accumulator.config_signature` gates every
  restore — a configuration drift (new oracle rates, an earlier series
  anchor caused by out-of-order history) forces a full rescan of the
  affected chain rather than a silently wrong fold.

A cold ``update`` with no usable checkpoint can fan the catch-up scan out
across worker processes as out-of-core chunk tasks (the
:mod:`repro.analysis.parallel` machinery); the task states fold into the
base accumulators in chunk order, preserving the identity guarantee.  A
delta past a watermark is always scanned in-process.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.engine import bind_scan
from repro.analysis.parallel import chunk_scan_states, fold_states
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.report import ChainFigures, FullReport, figure_factory
from repro.analysis.throughput import DEFAULT_BIN_SECONDS
from repro.analysis.value import ExchangeRateOracle, decode_analysis_config
from repro.collection.store import FRAMES_DIR, FrameSink, FrameStore, ensure_directory
from repro.common.columns import TxFrame
from repro.common import faults
from repro.common.errors import AnalysisError, CollectionError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.pipeline.checkpoint import CheckpointStore, PipelineCheckpoint

#: Pipeline meta schema version; bump when the layout changes.
PIPELINE_META_VERSION = 1

#: Meta file name inside a pipeline directory.
PIPELINE_META_NAME = "meta.json"


@dataclass
class UpdateStats:
    """What one incremental update actually did."""

    rows_total: int
    rows_scanned: int
    watermark_before: int
    watermark_after: int
    used_checkpoint: bool
    chains_rescanned: List[str] = field(default_factory=list)
    workers: int = 0
    elapsed_seconds: float = 0.0
    #: Wall-clock cost of loading / saving the durable snapshot (set by
    #: :meth:`Pipeline.update`; zero for direct ``incremental_report`` use).
    checkpoint_load_seconds: float = 0.0
    checkpoint_save_seconds: float = 0.0

    @property
    def incremental(self) -> bool:
        """Whether the update avoided rescanning already-covered rows."""
        return self.used_checkpoint and not self.chains_rescanned


def _rows_past_watermark(rows, watermark: int):
    """The suffix of an ascending row-index sequence at or past ``watermark``.

    Chain views are snapshots in ascending row order (a ``range`` for
    single-chain frames, a sorted index array otherwise), so the suffix is
    located by bisection — O(log n) rather than a filter pass.
    """
    if isinstance(rows, range):
        return range(max(rows.start, watermark), max(rows.stop, watermark))
    lo, hi = 0, len(rows)
    while lo < hi:
        mid = (lo + hi) // 2
        if rows[mid] < watermark:
            lo = mid + 1
        else:
            hi = mid
    return rows[lo:]


def incremental_report(
    frame: TxFrame,
    checkpoint: Optional[PipelineCheckpoint],
    oracle: Optional[ExchangeRateOracle] = None,
    clusterer=None,
    bin_seconds: float = DEFAULT_BIN_SECONDS,
    top_limit: int = 10,
) -> Tuple[FullReport, PipelineCheckpoint, UpdateStats]:
    """Refresh every figure, scanning only rows past the checkpoint watermark.

    Returns the full report, the **new** checkpoint (covering every row of
    ``frame``), and the update statistics.  With no (or an incompatible)
    checkpoint the affected chains are rescanned from row zero — the result
    is identical either way; only the work differs.
    """
    started = time.perf_counter()
    watermark = checkpoint.watermark_rows if checkpoint is not None else 0
    if watermark > len(frame):
        raise AnalysisError(
            f"checkpoint watermark {watermark} exceeds frame rows {len(frame)}; "
            "the store shrank underneath the checkpoint"
        )
    report = FullReport()
    new_checkpoint = PipelineCheckpoint(watermark_rows=len(frame))
    chains_rescanned: List[str] = []
    rows_scanned = 0

    for chain in frame.chains():
        view = frame.chain_view(chain)
        if not len(view):
            continue
        factory = figure_factory(
            chain, frame.chain_bounds(chain), oracle, clusterer, bin_seconds, top_limit
        )
        accumulators = list(factory())
        # Binding initialises state on every accumulator — required before
        # the saved-state restore below.
        drive = bind_scan(accumulators, frame)
        restored = checkpoint is not None and checkpoint.compatible_with(
            chain.value, accumulators
        )
        if restored:
            # The checkpointed prefix folds in first, then the delta rows
            # are scanned — state mutates in place, replaying serial order.
            try:
                fold_states(
                    {chain.value: checkpoint.states[chain.value]},
                    {chain.value: accumulators},
                )
            except Exception:
                # States that do not line up (StateMismatch, nothing touched)
                # or that carry garbage values (hostile or bit-rotted state,
                # partial restores left behind): rebuild the accumulators and
                # rescan the chain instead.
                restored = False
                accumulators = list(factory())
                drive = bind_scan(accumulators, frame)
        if restored:
            delta_rows = _rows_past_watermark(view.rows, watermark)
        else:
            delta_rows = view.rows
            if (
                checkpoint is not None
                and len(delta_rows)
                and delta_rows[0] < watermark
            ):
                # Only a chain with rows *below* the watermark is genuinely
                # rescanned; a chain that first appeared after the checkpoint
                # has nothing saved and nothing to rescan.
                chains_rescanned.append(chain.value)
        rows_scanned += len(delta_rows)
        drive(delta_rows)
        # No payload is consumed later than its restore, so a failure from
        # here on is a bug, not bad checkpoint state: it surfaces.
        new_checkpoint.capture_chain(chain.value, accumulators)
        report.chains[chain] = ChainFigures.from_accumulators(
            chain, accumulators, len(view)
        )
    stats = UpdateStats(
        rows_total=len(frame),
        rows_scanned=rows_scanned,
        watermark_before=watermark,
        watermark_after=len(frame),
        used_checkpoint=checkpoint is not None,
        chains_rescanned=chains_rescanned,
        elapsed_seconds=time.perf_counter() - started,
    )
    return report, new_checkpoint, stats


class Pipeline:
    """A durable, resumable ingest-and-report pipeline in one directory.

    Layout::

        <root>/
          frames/           chunk-compressed columnar rows + manifest.json
          checkpoint.snap   one state entry: prefix states + row watermark
          meta.json         analysis configuration (oracle rates, clusters)

    The pipeline keeps a resident :class:`TxFrame` that *follows* the store's
    committed chunks, so a long-lived process (the ``watch`` loop) ingests
    and updates without ever rehydrating; a cold process rehydrates once on
    first use of :attr:`frame` and is incremental from then on (one that
    only ingests never does).  All writes are append-only and every commit
    point (chunk manifest, checkpoint, meta) is atomic, so the pipeline
    reopens cleanly after a crash at any instant — at worst re-ingesting the
    rows of one uncommitted chunk.
    """

    def __init__(self, root: str, chunk_rows: int = 50_000):
        self.root = root
        ensure_directory(root)
        self.frames_dir = os.path.join(root, FRAMES_DIR)
        self.store = FrameStore.open(self.frames_dir, chunk_rows=chunk_rows)
        self.checkpoints = CheckpointStore(root)
        self._frame: Optional[TxFrame] = None
        self._meta = self._load_meta()
        if self.store.cleaned_paths:
            self._reconcile_after_cleanup()

    def _reconcile_after_cleanup(self) -> None:
        """Re-anchor crawl meta after :meth:`FrameStore.open` cleaned chunks.

        A torn committed chunk truncates the store at reopen, shrinking the
        per-chain height bounds — but the ``crawled_head_*`` meta still
        records the pre-crash frontier.  Left alone, the next tail crawl
        would resume *above* the lost blocks and never re-fetch them
        (silent row loss).  Clamp each chain's crawled head back to the
        store's durable bounds and prune missing-height declarations that
        now fall outside them; the blocks re-enter the crawl frontier and
        are re-ingested on the next tick.
        """
        updates: Dict[str, object] = {}
        for key, value in list(self._meta.items()):
            if key.startswith("crawled_head_"):
                chain_value = key[len("crawled_head_"):]
                bounds = self.store.height_bounds(chain_value)
                durable_head = bounds[1] if bounds is not None else -1
                if int(value) > durable_head:
                    updates[key] = durable_head
            elif key.startswith("missing_heights_"):
                chain_value = key[len("missing_heights_"):]
                bounds = self.store.height_bounds(chain_value)
                kept = [
                    int(height)
                    for height in value
                    if bounds is not None and bounds[0] <= int(height) <= bounds[1]
                ]
                if kept != [int(height) for height in value]:
                    updates[key] = kept
        if updates:
            self.set_meta(**updates)

    # -- meta / analysis configuration ---------------------------------------------
    @property
    def meta_path(self) -> str:
        return os.path.join(self.root, PIPELINE_META_NAME)

    def _load_meta(self) -> Dict:
        if not os.path.exists(self.meta_path):
            return {"version": PIPELINE_META_VERSION}
        # Never reset an unreadable meta silently: it holds the frozen
        # oracle / cluster configuration and the crawl's missing heights.
        try:
            with open(self.meta_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except ValueError as error:
            raise CollectionError(
                f"pipeline meta {self.meta_path!r} is unreadable: {error}"
            ) from error
        if not isinstance(meta, dict):
            raise CollectionError(
                f"pipeline meta {self.meta_path!r} is not a JSON object"
            )
        if meta.get("version") != PIPELINE_META_VERSION:
            raise CollectionError(
                f"unsupported pipeline meta version {meta.get('version')!r}"
            )
        try:
            decode_analysis_config(meta)
        except CollectionError as error:
            raise CollectionError(
                f"pipeline meta {self.meta_path!r} is unreadable: {error}"
            ) from None
        return meta

    def _save_meta(self) -> None:
        temp_path = self.meta_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(self._meta, handle)
        os.replace(temp_path, self.meta_path)

    @property
    def meta(self) -> Dict:
        return self._meta

    def set_meta(self, **entries) -> None:
        """Merge entries into the pipeline meta and persist atomically."""
        self._meta.update(entries)
        self._save_meta()

    def set_analysis_config(
        self, oracle: ExchangeRateOracle, clusterer: StaticAccountClusterer
    ) -> None:
        """Freeze the analysis companions (persisted; stable across sessions).

        The oracle's rate table and the cluster map are part of every XRP
        accumulator's config signature, so they must not drift between
        updates — a drift would force full rescans.  The pipeline therefore
        freezes them once and reuses the frozen copies forever after.
        """
        self.set_meta(
            oracle_rates=[
                [currency, issuer, oracle.rate(currency, issuer)]
                for currency, issuer in oracle.known_assets()
            ],
            clusters=clusterer.to_mapping(),
        )

    def has_analysis_config(self) -> bool:
        return "oracle_rates" in self._meta

    def analysis_config(
        self,
    ) -> Tuple[Optional[ExchangeRateOracle], Optional[StaticAccountClusterer]]:
        """The frozen oracle and clusterer, or ``(None, None)`` if unset."""
        return decode_analysis_config(self._meta) or (None, None)

    # -- the resident frame ----------------------------------------------------------
    @property
    def frame(self) -> TxFrame:
        """The resident columnar frame: a follower of the store's committed chunks.

        The frame only ever grows by whole committed chunks.
        :meth:`ingest_records` hands it each chunk's in-memory payload right
        after the manifest commit; this property reads from disk the chunks
        it was *not* handed — all of them on first access (the one
        rehydration), later only rows a crawler committed through a
        :meth:`sink` or a commit whose hand-off a failure interrupted — so a
        long-lived loop never pays O(history) per tick.  Invariant:
        ``len(frame) <= store.flushed_rows`` at all times (the frame never
        runs ahead of the durable store), with equality on return from this
        property.
        """
        if self._frame is None:
            self._frame = TxFrame()
        frame = self._frame
        if len(frame) < self.store.flushed_rows:
            for payload in self.store.payload_tail(len(frame)):
                frame.extend_from_payload(payload)
        return frame

    # -- ingest -----------------------------------------------------------------------
    def _follow(self, payload: Optional[Dict]) -> None:
        """Hand a just-committed chunk payload to the resident frame, if any.

        Skipped when no frame is resident, and when the frame is not exactly
        one chunk behind (it still owes a disk catch-up, which then covers
        this chunk too).
        """
        frame = self._frame
        if (
            frame is not None
            and payload is not None
            and len(frame) + len(payload["transaction_id"]) == self.store.flushed_rows
        ):
            frame.extend_from_payload(payload)

    def ingest_records(self, records: Iterable[TransactionRecord]) -> int:
        """Append a record stream to the store; the resident frame follows.

        Rows are staged into the store's chunking as they arrive and
        committed with one flush at the end, so a completed ingest call is
        always durable.  Returns the number of rows ingested.
        """
        before = self.store.row_count
        for payload in self.store.iter_commits(records):
            self._follow(payload)
        self._follow(self.store.flush())
        return self.store.row_count - before

    def ingest_blocks(self, blocks: Iterable[BlockRecord], skip_rows: int = 0) -> int:
        """Append every transaction of a block stream (oldest block first).

        ``skip_rows`` drops the leading rows of the flattened stream — the
        resume hook for deterministic batch replays: rows already durable in
        the store are skipped instead of re-appended, so a crash that
        committed part of a batch never produces duplicates.
        """
        records = (record for block in blocks for record in block.transactions)
        if skip_rows:
            records = itertools.islice(records, skip_rows, None)
        return self.ingest_records(records)

    def sink(self, chain: Optional[ChainId] = None, missing_heights=()) -> FrameSink:
        """A crawler-compatible sink writing into this pipeline's store.

        The sink writes to the store only; the resident frame catches up
        from the newly committed chunks on its next access (see
        :attr:`frame`).  ``missing_heights`` declares known holes inside
        the committed range (previously failed fetches) so the sink never
        reports them as stored.
        """
        return FrameSink(self.store, chain=chain, missing_heights=missing_heights)

    def missing_heights(self, chain: ChainId) -> List[int]:
        """Persisted crawl holes for ``chain`` (failed fetches to retry)."""
        return [int(h) for h in self._meta.get(f"missing_heights_{chain.value}", [])]

    def set_missing_heights(self, chain: ChainId, heights) -> None:
        self.set_meta(**{f"missing_heights_{chain.value}": sorted(int(h) for h in heights)})

    # -- report -----------------------------------------------------------------------
    @property
    def watermark(self) -> int:
        """Rows covered by the durable checkpoint (0 when none exists)."""
        checkpoint = self.checkpoints.load()
        return checkpoint.watermark_rows if checkpoint is not None else 0

    def update(
        self,
        workers: int = 0,
        bin_seconds: float = DEFAULT_BIN_SECONDS,
        top_limit: int = 10,
    ) -> Tuple[FullReport, UpdateStats]:
        """Bring every figure up to date with the rows ingested so far.

        Loads the durable checkpoint, scans only the rows past its
        watermark, persists the refreshed checkpoint, and returns the full
        figure report — identical to a batch ``full_report`` over the same
        rows.  ``workers > 1`` matters only to a cold catch-up (no usable
        checkpoint, no resident frame): that scan fans out as chunk tasks;
        ``stats.workers`` reports what actually ran.
        """
        self.store.flush()
        faults.maybe_crash("pipeline.update")
        oracle, clusterer = self.analysis_config()
        checkpoint = self.checkpoints.load()
        if (
            workers > 1
            and checkpoint is None
            and self._frame is None
            and self.store.committed_chunk_count
        ):
            # Cold catch-up: no checkpoint to seed from and no resident
            # frame yet, so scanning is the whole job.  Run it as
            # out-of-core chunk tasks instead of rehydrating the frame — the
            # parent reads only the manifest, workers stream their chunk
            # ranges, and the folded accumulator states checkpoint exactly
            # like a serial scan's.  Memory stays bounded in every process.
            started = time.perf_counter()
            # The chunk-state cache turns a *repeated* cold catch-up (a
            # process that keeps restarting before its first checkpoint
            # lands) into a fold of memoized per-chunk states; corrupt or
            # stale entries degrade to plain rescans of those chunks.
            totals, bases = chunk_scan_states(
                self.frames_dir,
                oracle=oracle,
                clusterer=clusterer,
                workers=workers,
                bin_seconds=bin_seconds,
                top_limit=top_limit,
                cache=ChunkStateCache.for_store(self.frames_dir),
                store=self.store,
            )
            rows_total = self.store.row_count
            report = FullReport()
            new_checkpoint = PipelineCheckpoint(watermark_rows=rows_total)
            for chain in ChainId:
                accumulators = bases.get(chain.value)
                if accumulators is None:
                    continue
                new_checkpoint.capture_chain(chain.value, accumulators)
                report.chains[chain] = ChainFigures.from_accumulators(
                    chain, accumulators, totals[chain.value]
                )
            stats = UpdateStats(
                rows_total=rows_total,
                rows_scanned=rows_total,
                watermark_before=0,
                watermark_after=rows_total,
                used_checkpoint=False,
                chains_rescanned=[],
                workers=workers,
                elapsed_seconds=time.perf_counter() - started,
            )
        else:
            # The frame property catches up with any rows the store committed
            # behind the resident frame's back (e.g. via a crawler sink).
            frame = self.frame
            if checkpoint is not None and checkpoint.watermark_rows > len(frame):
                # A crash truncated the store behind the checkpoint: the saved
                # states cover rows that no longer exist.  Discard them and
                # fall back to a full rescan — result-identical, just slower.
                checkpoint = None
            report, new_checkpoint, stats = incremental_report(
                frame,
                checkpoint,
                oracle=oracle,
                clusterer=clusterer,
                bin_seconds=bin_seconds,
                top_limit=top_limit,
            )
        self.checkpoints.save(new_checkpoint)
        stats.checkpoint_load_seconds = self.checkpoints.last_load_seconds
        stats.checkpoint_save_seconds = self.checkpoints.last_save_seconds
        return report, stats
