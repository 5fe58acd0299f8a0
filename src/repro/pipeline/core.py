"""The append-only, resumable ingestion pipeline.

This module ties the collection and analysis layers into one incremental
system.  Crawled or generated traffic streams straight into a
directory-backed :class:`~repro.collection.store.FrameStore` (no
intermediate ``List[BlockRecord]``), a :class:`~repro.pipeline.checkpoint.
CheckpointStore` persists the scanned accumulator state behind a row
watermark, and :meth:`Pipeline.update` refreshes every figure by folding
the saved state and scanning only the chunks past the watermark.

The identity guarantee: for any split of a workload into ingestion batches,
the report after the last serial ``update`` is bit-for-bit the chunk
engine's over the same store and equals a serial
:func:`~repro.analysis.report.full_report` over the same rows, Figure 12's
value sums (one subtotal per chunk) within rounding.  It rests on:

* accumulator ``restore_state`` replays the serial scan when saved states
  are folded in row order (checkpointed prefix first, then the chunks past
  it, each from its state entry or a scan);
* the store's global string pools are append-only and replayed in
  deterministic order, so interned codes inside checkpointed states stay
  valid as the store grows;
* state is keyed by the chunks it depends on (:meth:`~repro.collection.
  store.FrameStore.prefix`): state over a dropped chunk is never found;
* :meth:`~repro.analysis.engine.Accumulator.config_signature` gates every
  restore — a configuration drift (new oracle rates, an earlier series
  anchor caused by out-of-order history) forces a fold from chunk zero
  rather than a silently wrong fold.

An update is the same route as a report (:func:`~repro.analysis.parallel.
fold_store`) with the checkpoint folded first: no process holds the frame,
a cold process decodes only the chunks past the watermark, and the chunks
this pipeline committed itself since the last update are scanned from the
payloads the store handed back instead of being decoded again.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.parallel import fold_states, fold_store, fold_targets, store_factories
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.report import ChainFigures, FullReport
from repro.analysis.value import ExchangeRateOracle, decode_analysis_config
from repro.collection.store import FRAMES_DIR, FrameSink, FrameStore, ensure_directory
from repro.common.columns import TxFrame
from repro.common import faults
from repro.common.durable import commit, read_json
from repro.common.errors import CollectionError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.pipeline.checkpoint import CheckpointStore, PipelineCheckpoint

#: Pipeline meta schema version; bump when the layout changes.
PIPELINE_META_VERSION = 1

#: Meta file name inside a pipeline directory.
PIPELINE_META_NAME = "meta.json"


def read_pipeline_meta(path: str) -> Dict:
    """The pipeline meta at ``path``: a JSON object of
    :data:`PIPELINE_META_VERSION` whose oracle and cluster map decode, whose
    batch cursor and crawled heads are ints and whose missing heights are
    lists of ints, or a ``meta_unreadable`` :class:`CollectionError`.

    An unreadable meta is never reset: it holds the frozen oracle / cluster
    configuration and the crawl's missing heights.
    """
    meta = read_json(path, "pipeline meta", "meta_unreadable")
    try:
        if meta.get("version") != PIPELINE_META_VERSION:
            raise CollectionError(f"unsupported version {meta.get('version')!r}")
        decode_analysis_config(meta)
        for key, value in meta.items():
            if key == "next_batch_index" or key.startswith("crawled_head_"):
                value = [value]
            elif not key.startswith("missing_heights_"):
                continue
            if type(value) is not list or any(type(height) is not int for height in value):
                raise CollectionError(f"{key!r} is not an int or a list of ints")
    except CollectionError as error:
        raise CollectionError(
            f"pipeline meta {path!r} is unreadable: {error}", "meta_unreadable"
        ) from None
    return meta


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
    #: Wall-clock cost of loading / saving the durable snapshot.
    checkpoint_load_seconds: float = 0.0
    checkpoint_save_seconds: float = 0.0

    @property
    def incremental(self) -> bool:
        """Whether the update avoided rescanning already-covered rows."""
        return self.used_checkpoint and not self.chains_rescanned


class Pipeline:
    """A durable, resumable ingest-and-report pipeline in one directory.

    Layout::

        <root>/
          frames/           chunk-compressed columnar rows + manifest.json
          checkpoint.snap   one state entry: prefix states, row watermark, prefix key
          meta.json         analysis configuration (oracle rates, clusters)

    No command holds the frame: :meth:`update` folds the checkpoint and
    scans only the chunks committed since, so a long-lived process (the
    ``watch`` loop) and a cold one do the same work per update.  A crash at
    any instant costs at most the rows of one uncommitted chunk.
    """

    def __init__(self, root: str, chunk_rows: int = 50_000):
        self.root = root
        ensure_directory(root)
        self.frames_dir = os.path.join(root, FRAMES_DIR)
        self.store = FrameStore.open(self.frames_dir, chunk_rows=chunk_rows)
        self.checkpoints = CheckpointStore(root)
        #: Payloads of the chunks this pipeline committed since the last
        #: update, by chunk index: at most ``chunk_rows`` rows, newest kept.
        self._held: Dict[int, Dict] = {}
        #: The store's string pools, extended by each update (see
        #: :func:`~repro.analysis.parallel.fold_targets`).
        self._skeleton: Optional[TxFrame] = None
        self._meta = (
            read_pipeline_meta(self.meta_path)
            if os.path.exists(self.meta_path)
            else {"version": PIPELINE_META_VERSION}
        )
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

    @property
    def meta(self) -> Dict:
        return self._meta

    def set_meta(self, **entries) -> None:
        """Merge entries into the pipeline meta and persist atomically."""
        self._meta.update(entries)
        commit(self.meta_path, json.dumps(self._meta).encode("utf-8"))

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

    @property
    def frame(self) -> TxFrame:
        """Every committed row, decoded from the store into one frame.

        No command reads this: it is what tests and benchmarks compare
        :meth:`update` against.
        """
        return self.store.to_frame()

    # -- ingest -----------------------------------------------------------------------
    def _hold(self, payload: Optional[Dict]) -> None:
        """Keep a chunk payload this pipeline has just committed for the next
        :meth:`update`, dropping the oldest past ``chunk_rows`` rows."""
        if payload is None:
            return
        held = self._held
        held[self.store.committed_chunk_count - 1] = payload
        while sum(len(kept["transaction_id"]) for kept in held.values()) > self.store.chunk_rows:
            del held[next(iter(held))]

    def ingest_records(self, records: Iterable[TransactionRecord]) -> int:
        """Append a record stream to the store.

        Rows are staged into the store's chunking as they arrive and
        committed with one flush at the end, so a completed ingest call is
        always durable.  Returns the number of rows ingested.
        """
        before = self.store.row_count
        for payload in self.store.iter_commits(records):
            self._hold(payload)
        self._hold(self.store.flush())
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

        The sink writes to the store only; the next :meth:`update` decodes
        the chunks it committed.  ``missing_heights`` declares known holes inside
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

    def update(self, workers: int = 0) -> Tuple[FullReport, UpdateStats]:
        """Bring every figure up to date with the rows ingested so far.

        Flushes, folds the durable checkpoint, then :func:`fold_store` over
        the chunks past it (held payloads are scanned, not decoded), saves
        the new checkpoint and returns the report.  A checkpoint folds only
        when its key is the store's ``prefix(n)`` for some ``n``, the chunk
        the fold goes on from; when a chain's saved state does not restore,
        every chain folds from chunk zero through the chunk-state cache,
        and ``stats.chains_rescanned`` names the chains that failed.
        ``stats.workers`` is the pool size that ran (0 in-process).
        """
        started = time.perf_counter()
        store = self.store
        self._hold(store.flush())
        faults.maybe_crash("pipeline.update")
        oracle, clusterer = self.analysis_config()
        checkpoint = self.checkpoints.load()
        covered = range(store.committed_chunk_count, -1, -1) if checkpoint is not None else ()
        first = next((n for n in covered if store.prefix(n) == checkpoint.prefix), None)
        if first is None:
            checkpoint, first = None, 0
        factories = store_factories(store, oracle, clusterer)
        skeleton, targets = fold_targets(store, factories, self._skeleton)
        self._skeleton = skeleton
        rescanned: List[str] = []
        if checkpoint is not None:
            behind = store.chain_row_counts(stop=first)
            for key, base in targets.items():
                if checkpoint.compatible_with(key, base):
                    try:
                        fold_states({key: checkpoint.states[key]}, {key: base})
                        continue
                    except Exception:
                        # States that do not line up (StateMismatch, nothing
                        # touched) or that carry garbage values (hostile or
                        # bit-rotted state, partial restores left behind).
                        rescanned.append(key)
                elif behind.get(key):
                    # Nothing saved or a config drift; a chain that first
                    # appeared past the watermark has nothing to rescan.
                    rescanned.append(key)
        if rescanned:
            # Every chain folds from chunk zero again, through the
            # chunk-state cache: a cold scan of the store at worst.
            _, targets = fold_targets(store, factories, skeleton)
            first = 0
        # No payload is consumed later than its restore, so a failure from
        # here on is a bug, not bad checkpoint state: it surfaces.
        scan = fold_store(
            store, factories, targets, workers, first=first, skeleton=skeleton,
            cache=ChunkStateCache.for_store(self.frames_dir), payloads=self._held,
        )  # fmt: skip
        self._held = {}
        rows_total, prefix = store.flushed_rows, store.prefix(store.committed_chunk_count)
        new_checkpoint = PipelineCheckpoint(watermark_rows=rows_total, prefix=prefix)
        report = FullReport()
        totals = store.chain_row_counts()
        for key, accumulators in targets.items():  # in ChainId order
            new_checkpoint.capture_chain(key, accumulators)
            report.chains[ChainId(key)] = ChainFigures.from_accumulators(
                ChainId(key), accumulators, totals[key]
            )
        stats = UpdateStats(
            rows_total=rows_total,
            rows_scanned=scan["rows"],
            watermark_before=checkpoint.watermark_rows if checkpoint is not None else 0,
            watermark_after=rows_total,
            used_checkpoint=checkpoint is not None,
            chains_rescanned=rescanned,
            workers=scan["workers"],
            elapsed_seconds=time.perf_counter() - started,
        )
        self.checkpoints.save(new_checkpoint)
        stats.checkpoint_load_seconds = self.checkpoints.last_load_seconds
        stats.checkpoint_save_seconds = self.checkpoints.last_save_seconds
        return report, stats
