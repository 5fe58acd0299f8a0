"""Incremental ingestion pipeline: append-only stores, checkpointed
accumulators, and live figure updates.

Public surface:

* :class:`~repro.pipeline.core.Pipeline` — a durable pipeline directory
  (columnar frame store + checkpoint + analysis config) with append-only
  ingest and incremental :meth:`~repro.pipeline.core.Pipeline.update`;
* :class:`~repro.pipeline.checkpoint.CheckpointStore` /
  :class:`~repro.pipeline.checkpoint.PipelineCheckpoint` — durable
  accumulator state behind a row watermark;
* :class:`~repro.pipeline.live.LiveTailRunner`,
  :func:`~repro.pipeline.live.stream_block_batches`,
  :func:`~repro.pipeline.live.tail_crawl` — the live-tail loop;
* :func:`~repro.pipeline.soak.run_soak` / :func:`~repro.pipeline.fsck.run_fsck`
  — the fault-schedule soak harness and the store/pipeline doctor.
"""

import importlib

from repro.pipeline.checkpoint import CheckpointStore, PipelineCheckpoint
from repro.pipeline.core import Pipeline, UpdateStats
from repro.pipeline.fsck import FsckIssue, FsckReport, run_fsck

#: The live-tail and soak names, with the module that defines each: they are
#: resolved on first use, because those modules load the chain simulators and
#: the scenario registry, which ``update`` and ``fsck`` never need.
_ON_FIRST_USE = dict.fromkeys(
    ("DEFAULT_BATCH_SECONDS", "LiveTailRunner", "LiveUpdate", "frozen_analysis_config",
     "pending_batches", "scenario_generators", "stream_block_batches", "tail_crawl"),
    "live",
)  # fmt: skip
_ON_FIRST_USE.update(dict.fromkeys(("SoakError", "SoakResult", "run_soak"), "soak"))


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


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
    "pending_batches",
    "run_fsck",
    "run_soak",
    "scenario_generators",
    "stream_block_batches",
    "tail_crawl",
]
