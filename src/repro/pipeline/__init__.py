"""Incremental ingestion pipeline: append-only stores, checkpointed
accumulators, and live figure updates.

Public surface:

* :class:`~repro.pipeline.core.Pipeline` — a durable pipeline directory
  (columnar frame store + checkpoint + analysis config) with append-only
  ingest and incremental :meth:`~repro.pipeline.core.Pipeline.update`;
* :func:`~repro.pipeline.core.incremental_report` — the checkpoint-restore +
  delta-scan reporter (usable on any frame, no directory required);
* :class:`~repro.pipeline.checkpoint.CheckpointStore` /
  :class:`~repro.pipeline.checkpoint.PipelineCheckpoint` — durable
  accumulator state behind a row watermark;
* :class:`~repro.pipeline.live.LiveTailRunner`,
  :func:`~repro.pipeline.live.stream_block_batches`,
  :func:`~repro.pipeline.live.tail_crawl` — the live-tail loop;
* :func:`~repro.pipeline.soak.run_soak` / :func:`~repro.pipeline.fsck.run_fsck`
  — the fault-schedule soak harness and the store/pipeline doctor.
"""

from repro.pipeline.checkpoint import CheckpointStore, PipelineCheckpoint
from repro.pipeline.core import (
    Pipeline,
    UpdateStats,
    incremental_report,
)
from repro.pipeline.fsck import FsckIssue, FsckReport, run_fsck
from repro.pipeline.live import (
    DEFAULT_BATCH_SECONDS,
    LiveTailRunner,
    LiveUpdate,
    frozen_analysis_config,
    pending_batches,
    scenario_generators,
    stream_block_batches,
    tail_crawl,
)
from repro.pipeline.soak import SoakError, SoakResult, run_soak

__all__ = [
    "CheckpointStore",
    "DEFAULT_BATCH_SECONDS",
    "FsckIssue",
    "FsckReport",
    "LiveTailRunner",
    "LiveUpdate",
    "Pipeline",
    "PipelineCheckpoint",
    "SoakError",
    "SoakResult",
    "UpdateStats",
    "frozen_analysis_config",
    "incremental_report",
    "pending_batches",
    "run_fsck",
    "run_soak",
    "scenario_generators",
    "stream_block_batches",
    "tail_crawl",
]
