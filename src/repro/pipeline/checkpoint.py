"""Durable accumulator checkpoints for the incremental pipeline.

A checkpoint freezes the analysis layer's position in the append-only row
stream: for every chain it stores the **pre-finalize** scanned state of the
full figure accumulator set together with the row watermark those states
cover, the store's key of those chunks (:meth:`~repro.collection.store.
FrameStore.prefix`) and each accumulator's ``config_signature``.  An update
folds the states only while the key is a prefix key of the store, scans
the chunks past it and re-finalizes — figures identical to a batch run.

**A checkpoint is a state entry.**  The folded state of the row prefix
``[0, watermark)`` is one more row range's :data:`~repro.analysis.statecache.
ChainStates`, so ``checkpoint.snap`` is written by
:func:`~repro.analysis.statecache.encode_entry` and read by
:func:`~repro.analysis.statecache.decode_body` like any chunk entry, with
``watermark_rows``, ``signatures`` and ``prefix`` beside the states in the body.  One
magic (:data:`~repro.analysis.statecache.ENTRY_MAGIC`, the one epoch marker
of persisted state) and one adler32 cover every byte of the file.  State is
codec data — typed columns, never pickle — so decoding a hostile snapshot
can yield garbage values but cannot instantiate objects or execute anything.

An unreadable, corrupt or foreign-format snapshot (any earlier life of this
file included) loads as ``None`` — the reporter then falls back to a full
rescan, which is always correct, and overwrites it in place.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import Accumulator
from repro.analysis.parallel import export_states
from repro.analysis.statecache import ChainStates, decode_body, encode_entry
from repro.collection.store import ensure_directory
from repro.common.durable import commit, read_bytes

#: File name of the durable snapshot inside a pipeline directory.
CHECKPOINT_NAME = "checkpoint.snap"


@dataclass
class PipelineCheckpoint:
    """Scanned accumulator states for every chain, as of a row watermark."""

    #: Number of frame rows the saved states cover (rows ``[0, watermark)``).
    watermark_rows: int
    #: chain value → ``(qualname, export_state())`` per accumulator: what
    #: :func:`~repro.analysis.parallel.fold_states` folds.
    states: ChainStates = field(default_factory=dict)
    #: chain value → the saved accumulators' config signatures: compatibility
    #: is checked before any state is folded.
    signatures: Dict[str, List[tuple]] = field(default_factory=dict)
    #: The store's key of the chunks covered; ``None`` matches no store.
    prefix: Optional[str] = None

    def capture_chain(
        self, chain_value: str, accumulators: Sequence[Accumulator]
    ) -> None:
        """Snapshot one chain's scanned accumulators."""
        self.states[chain_value] = export_states(accumulators)
        self.signatures[chain_value] = [
            accumulator.config_signature() for accumulator in accumulators
        ]

    def compatible_with(
        self, chain_value: str, accumulators: Sequence[Accumulator]
    ) -> bool:
        """Whether the saved chain state may fold into ``accumulators``.

        Requires the same accumulator sequence with equal config signatures.
        Signature fields that legitimately advance between updates (a
        throughput window's end) are excluded by the accumulators
        themselves; anything else differing — an oracle with new rates, a
        shifted series anchor, a changed top-N limit — makes the saved
        state unusable and forces a full rescan of the chain.
        """
        saved = self.signatures.get(chain_value)
        if saved is None:
            return False
        current = [accumulator.config_signature() for accumulator in accumulators]
        return saved == current


def decode_snapshot(blob: bytes) -> Optional[PipelineCheckpoint]:
    """The checkpoint inside ``checkpoint.snap`` bytes, or ``None`` if unusable.

    The one reader of the file (:meth:`CheckpointStore.load`, ``fsck``):
    anything that is not an intact entry carrying a watermark and signatures
    is ``None``, never an error and never a partly trusted snapshot.
    """
    body = decode_body(blob)
    if body is None:
        return None
    watermark = body.get("watermark_rows")
    signatures = body.get("signatures")
    if not (isinstance(watermark, int) and watermark >= 0 and isinstance(signatures, dict)):
        return None
    prefix = body.get("prefix")  # absent from snapshots older than the key chain
    return PipelineCheckpoint(watermark, body["chains"], signatures, prefix)


class CheckpointStore:
    """Atomic persistence of one :class:`PipelineCheckpoint` in a directory.

    The store exposes its last save/load wall-clock cost
    (:attr:`last_save_seconds` / :attr:`last_load_seconds`) so the pipeline
    can surface checkpoint overhead in update statistics and benchmarks.
    """

    def __init__(self, directory: str):
        self.directory = directory
        ensure_directory(directory)
        self.last_save_seconds = 0.0
        self.last_load_seconds = 0.0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_NAME)

    def save(self, checkpoint: PipelineCheckpoint) -> None:
        """Commit ``checkpoint`` (under the ``checkpoint.save`` faultpoint)."""
        started = time.perf_counter()
        blob = encode_entry(
            checkpoint.states,
            watermark_rows=checkpoint.watermark_rows,
            signatures=checkpoint.signatures,
            prefix=checkpoint.prefix,
        )
        commit(self.path, blob, "checkpoint.save")
        self.last_save_seconds = time.perf_counter() - started

    def load(self) -> Optional[PipelineCheckpoint]:
        """The committed checkpoint, or ``None`` when absent or unreadable.

        Unreadable — truncated, bit-rotted, written in another format —
        degrades to a full rescan instead of failing the update.
        """
        started = time.perf_counter()
        checkpoint = decode_snapshot(read_bytes(self.path, "checkpoint.load"))
        self.last_load_seconds = time.perf_counter() - started
        return checkpoint

    def clear(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)
