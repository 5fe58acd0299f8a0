"""Durable accumulator checkpoints for the incremental pipeline.

A checkpoint freezes the analysis layer's position in the append-only row
stream: for every chain it stores the **pre-finalize** scanned state of the
full figure accumulator set together with the row watermark those states
cover and each accumulator's :meth:`~repro.analysis.engine.Accumulator.
config_signature`.  An incremental update restores the states into freshly
bound accumulators, scans only the rows past the watermark and re-finalizes
— producing figures identical to a from-scratch batch run.

**Snapshot format (version 3).**  Accumulator state is serialised with the
:mod:`repro.common.statecodec` value codec, not pickle: each chain's blob is
the codec encoding of its accumulators' :meth:`~repro.analysis.engine.
Accumulator.export_state` payloads — typed columnar data (packed int64 /
float64 / joined-string columns for the big collections), never code.  That
removes ``pickle.load`` of accumulator state from the checkpoint trust
boundary (decoding a hostile snapshot can yield garbage values, but cannot
instantiate objects or execute anything) and makes the round-trip cost scale
with column bytes instead of Python objects.  The version moves together
with :data:`~repro.analysis.statecache.ENTRY_MAGIC` whenever a payload's
shape does (version 2 carried the transaction-id *set*, 3 its run counter),
so an older snapshot loads as ``None``, never as the wrong shape.

**Delta-aware writes.**  Per-chain blobs are immutable byte strings, so a
chain whose watermark did not advance carries its stored blob forward
(:meth:`PipelineCheckpoint.carry_chain`) instead of being re-exported and
re-encoded; saving then just re-writes the file from already-encoded
segments.

Persistence is a single file written atomically (temp file + rename), so a
crash can never leave a torn checkpoint: either the previous checkpoint
survives intact or the new one is fully committed.  An unreadable,
corrupt or version-skewed snapshot degrades to ``None`` — the reporter then
falls back to a full rescan, which is always correct.  The same holds for a
directory that still carries a version-1 ``checkpoint.pkl`` from an earlier
life of this pipeline: the file is never opened, the first update rescans
and commits a ``checkpoint.snap`` beside it.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.engine import Accumulator
from repro.common import faults, statecodec

#: Checkpoint schema version; bump when the layout changes.
CHECKPOINT_VERSION = 3

#: File name of the durable snapshot inside a pipeline directory.
CHECKPOINT_NAME = "checkpoint.snap"

#: Top-level format marker inside the snapshot payload.
SNAPSHOT_FORMAT = "repro-checkpoint"


@dataclass
class PipelineCheckpoint:
    """Scanned accumulator states for every chain, as of a row watermark."""

    #: Number of frame rows the saved states cover (rows ``[0, watermark)``).
    watermark_rows: int
    #: chain value → codec-encoded list of per-accumulator state payloads.
    chain_states: Dict[str, bytes] = field(default_factory=dict)
    #: chain value → the saved accumulators' config signatures, stored
    #: separately so compatibility is checked before any state is decoded.
    signatures: Dict[str, List[tuple]] = field(default_factory=dict)
    #: chain value → adler32 of the stored blob.  Restores verify it before
    #: decoding, so bit-rot anywhere in a blob degrades to a chain rescan
    #: instead of a crash or a silently wrong count.
    checksums: Dict[str, int] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    @classmethod
    def capture(
        cls, watermark_rows: int, chain_accumulators: Dict[str, Sequence[Accumulator]]
    ) -> "PipelineCheckpoint":
        """Snapshot scanned accumulators per chain."""
        checkpoint = cls(watermark_rows=watermark_rows)
        for chain_value, accumulators in chain_accumulators.items():
            checkpoint.capture_chain(chain_value, accumulators)
        return checkpoint

    def capture_chain(
        self, chain_value: str, accumulators: Sequence[Accumulator]
    ) -> None:
        """Snapshot one chain's scanned accumulators."""
        accumulators = list(accumulators)
        blob = statecodec.encode(
            [accumulator.export_state() for accumulator in accumulators]
        )
        self.chain_states[chain_value] = blob
        self.checksums[chain_value] = zlib.adler32(blob)
        self.signatures[chain_value] = [
            accumulator.config_signature() for accumulator in accumulators
        ]

    def carry_chain(self, chain_value: str, previous: "PipelineCheckpoint") -> bool:
        """Carry one chain's stored blob forward from ``previous`` unchanged.

        The delta-aware write path: a chain that received no rows since the
        previous checkpoint re-uses its already-encoded state segment — no
        export, no encode.  Returns ``False`` (caller must capture) when
        ``previous`` has nothing stored for the chain.
        """
        blob = previous.chain_states.get(chain_value)
        if blob is None:
            return False
        self.chain_states[chain_value] = blob
        self.signatures[chain_value] = previous.signatures[chain_value]
        self.checksums[chain_value] = previous.checksums[chain_value]
        return True

    def restore_payloads(self, chain_value: str) -> Optional[List[dict]]:
        """Decode one chain's saved state payloads (``None`` if unusable).

        Returns one :meth:`~repro.analysis.engine.Accumulator.export_state`
        payload per saved accumulator, in capture order.  A corrupt or
        truncated blob degrades to ``None`` — the incremental reporter then
        rescans the chain.
        """
        blob = self.chain_states.get(chain_value)
        if blob is None:
            return None
        action = faults.check("checkpoint.decode")
        if action is not None:
            # Corrupt this one chain's blob: the adler32 below must catch
            # it and degrade the chain — and only this chain — to a rescan.
            blob = action.corrupt(blob)
        if zlib.adler32(blob) != self.checksums.get(chain_value):
            return None
        try:
            payloads = statecodec.decode(blob)
        except Exception:
            # CodecError is the designed signal, but any failure mode of a
            # corrupt blob must degrade to a rescan, never crash an update.
            return None
        if not isinstance(payloads, list):
            return None
        return payloads

    def compatible_with(
        self, chain_value: str, accumulators: Sequence[Accumulator]
    ) -> bool:
        """Whether the saved chain state may restore into ``accumulators``.

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


class CheckpointStore:
    """Atomic persistence of one :class:`PipelineCheckpoint` in a directory.

    The store exposes its last save/load wall-clock cost
    (:attr:`last_save_seconds` / :attr:`last_load_seconds`) so the pipeline
    can surface checkpoint overhead in update statistics and benchmarks.
    """

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.last_save_seconds = 0.0
        self.last_load_seconds = 0.0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_NAME)

    def save(self, checkpoint: PipelineCheckpoint) -> None:
        """Commit ``checkpoint`` atomically (write-temp + rename).

        Chain blobs are already codec-encoded bytes, so carried-forward
        chains cost their length, not their element count.
        """
        started = time.perf_counter()
        blob = statecodec.encode(
            {
                "format": SNAPSHOT_FORMAT,
                "version": checkpoint.version,
                "watermark_rows": checkpoint.watermark_rows,
                "chains": checkpoint.chain_states,
                "checksums": dict(checkpoint.checksums),
                "signatures": {
                    chain: list(signatures)
                    for chain, signatures in checkpoint.signatures.items()
                },
            }
        )
        temp_path = self.path + ".tmp"
        action = faults.check("checkpoint.save")
        if action is not None and action.mode == faults.MODE_BITFLIP:
            # Flip a byte inside the committed snapshot: the next load must
            # reject it and degrade to a rescan, never crash.
            blob = action.corrupt(blob)
        with open(temp_path, "wb") as handle:
            handle.write(blob)
        if action is not None and action.mode == faults.MODE_CRASH:
            # Death before the rename: the previous snapshot stays committed.
            raise faults.InjectedCrash("injected crash at checkpoint.save")
        os.replace(temp_path, self.path)
        self.last_save_seconds = time.perf_counter() - started

    def load(self) -> Optional[PipelineCheckpoint]:
        """The committed checkpoint, or ``None`` when absent or unreadable.

        Unreadable includes a truncated or corrupt file and a version
        mismatch: both degrade to a full rescan instead of failing the
        update.
        """
        started = time.perf_counter()
        checkpoint = self._load_snapshot() if os.path.exists(self.path) else None
        self.last_load_seconds = time.perf_counter() - started
        return checkpoint

    def _load_snapshot(self) -> Optional[PipelineCheckpoint]:
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
            action = faults.check("checkpoint.load")
            if action is not None:
                raw = action.corrupt(raw)
            payload = statecodec.decode(raw)
            if (
                not isinstance(payload, dict)
                or payload.get("format") != SNAPSHOT_FORMAT
                or payload.get("version") != CHECKPOINT_VERSION
            ):
                return None
            chains = payload["chains"]
            signatures = payload["signatures"]
            checksums = payload["checksums"]
            watermark = payload["watermark_rows"]
            if not isinstance(chains, dict) or not isinstance(signatures, dict):
                return None
            if not isinstance(checksums, dict):
                return None
            if not isinstance(watermark, int) or watermark < 0:
                return None
            return PipelineCheckpoint(
                watermark_rows=watermark,
                chain_states=chains,
                signatures=signatures,
                checksums=checksums,
                version=CHECKPOINT_VERSION,
            )
        except Exception:
            return None

    def clear(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)
