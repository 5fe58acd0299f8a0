"""Chunk-state aggregate cache: memoized per-chunk accumulator states.

Every committed :class:`~repro.collection.store.FrameStore` chunk is
immutable and checksummed, and every figure accumulator speaks
``export_state`` / ``restore_state`` — which makes a chunk's
folded accumulator state a *materialized partial aggregate*: computed once,
reusable by every later report over the same chunks.  This module is that
cache.  A report over an unchanged store folds cached states instead of
rescanning, so repeated reports cost O(new data), not O(history).

Layout
------

Entries live in a ``cache/`` directory beside the store's chunk files
(:data:`~repro.collection.store.STATE_CACHE_DIR`), one file per
(chunk, configuration) pair.  The **key** — embedded in the file name, so
a lookup is one ``open`` — is the tuple:

* the store's key of chunks ``[0, i]`` for chunk ``i``, on all of which
  its state depends (:meth:`~repro.collection.store.FrameStore.prefix`);
* a digest of every chain's accumulator ``config_signature`` tuples;
* the constant :data:`ENTRY_MODE` token;
* the chunk's serialisation format (``v1`` / ``v2`` / ``v3``).

Any drift — a chunk at or before ``i`` rewritten or dropped, a different
oracle or clusterer — changes the key, so incompatible state can never be
*found*, let alone folded.  Invalidation is therefore free: stale entries
are dead files, cleared wholesale by format migration
(:func:`~repro.collection.store.invalidate_state_cache`), quarantined by
``fsck --repair``, or simply left to miss.

Entry encoding is the one framing of persisted accumulator state (the
pipeline's ``checkpoint.snap`` is an entry too): a
:mod:`~repro.common.statecodec` body carrying each chain's
``(qualname, export_state())`` pairs, framed by magic bytes and an adler32
of the body, written atomically (temp file + ``os.replace``).  A failed
checksum, a codec error, an unexpected shape, or a qualname mismatch all
degrade to a **miss** — the consumer rescans that one chunk and overwrites
the bad entry; corruption never surfaces as an error and never changes a
figure.  The ``store.cache_read`` / ``store.cache_write`` faultpoints
(:mod:`repro.common.faults`) exercise exactly those paths.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.engine import config_digest
from repro.common import faults, statecodec

#: Entry framing magic — the one epoch marker of persisted accumulator state
#: (chunk entries here, the pipeline's ``checkpoint.snap``).  Bump the trailing
#: byte when the body layout or a payload's shape changes: old entries then
#: miss and are overwritten in place.  ``\x01`` carried the transaction-id
#: set, ``\x02`` its run counter.
ENTRY_MAGIC = b"RCS\x02"

#: Body schema version inside the codec payload.
ENTRY_VERSION = 1

#: Cache entry file extension.
ENTRY_SUFFIX = ".state"

#: The third token of every entry name.  Entries written under any other
#: token can never be read, so fsck reports them as stale.
ENTRY_MODE = "exact"

_CHECKSUM = struct.Struct(">I")

#: Per-chain shipped accumulator states, exactly as the out-of-core workers
#: ship them: ``{chain value: [(accumulator qualname, state payload), ...]}``.
ChainStates = Dict[str, List[Tuple[str, dict]]]


class EntryKey(NamedTuple):
    """The full cache key of one chunk's folded state (all filename-safe)."""

    prefix: str
    config: str
    mode: str
    chunk_format: str

    def filename(self) -> str:
        return (
            f"state-{self.prefix}-{self.config}"
            f"-{self.mode}-{self.chunk_format}{ENTRY_SUFFIX}"
        )


class CacheContext(NamedTuple):
    """The chunk-independent half of a key, shipped to worker processes.

    The config digest is captured once in the parent, so every process keys
    entries identically.
    """

    directory: str
    config: str

    def key(self, prefix: str, chunk_format: str) -> EntryKey:
        return EntryKey(prefix, self.config, ENTRY_MODE, chunk_format)


def parse_entry_name(name: str) -> Optional[EntryKey]:
    """Recover an :class:`EntryKey` from an entry file name, or ``None``.

    ``None`` means the file is not a recognisable cache entry (a crash
    leftover ``.tmp``, a foreign file) — fsck flags those as orphaned.
    """
    if not (name.startswith("state-") and name.endswith(ENTRY_SUFFIX)):
        return None
    parts = name[len("state-") : -len(ENTRY_SUFFIX)].split("-")
    if len(parts) != 4 or not all(parts):
        return None
    return EntryKey(*parts)


def factories_digest(factories: Dict) -> str:
    """Digest of every chain factory's accumulator configuration.

    Instantiates each factory once and digests the sorted per-chain
    ``config_signature`` tuples — the exact compatibility gate
    ``restore_state`` defines, so two runs share cache entries if and only
    if folding state between them would be well-defined.
    """
    signatures = []
    for chain_key in sorted(factories):
        accumulators = list(factories[chain_key]())
        signatures.append(
            (
                chain_key,
                tuple(
                    accumulator.config_signature()
                    for accumulator in accumulators
                ),
            )
        )
    return config_digest(signatures)


def encode_entry(states: ChainStates, **header) -> bytes:
    """Frame per-chain states as a durable entry blob.

    ``header`` fields ride in the body beside the states, under the same
    checksum (a checkpoint's ``watermark_rows``, ``signatures`` and
    ``prefix``); a chunk entry has none.
    """
    body = statecodec.encode({"version": ENTRY_VERSION, "chains": states, **header})
    return ENTRY_MAGIC + _CHECKSUM.pack(zlib.adler32(body) & 0xFFFFFFFF) + body


def decode_body(blob: bytes) -> Optional[dict]:
    """The validated body of an entry blob, or ``None`` if unusable.

    Every failure mode — short blob, wrong magic, checksum mismatch, codec
    error, unexpected shape — returns ``None``: a bad entry is
    indistinguishable from an absent one.  ``body["chains"]`` holds the
    :data:`ChainStates`; any header fields are returned as written.
    """
    prefix = len(ENTRY_MAGIC) + _CHECKSUM.size
    if len(blob) < prefix or not blob.startswith(ENTRY_MAGIC):
        return None
    (expected,) = _CHECKSUM.unpack(blob[len(ENTRY_MAGIC) : prefix])
    body = blob[prefix:]
    if zlib.adler32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        payload = statecodec.decode(body)
    except statecodec.CodecError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != ENTRY_VERSION
        or not isinstance(payload.get("chains"), dict)
    ):
        return None
    chains = payload["chains"]
    for shipped in chains.values():
        if not isinstance(shipped, (list, tuple)):
            return None
        for pair in shipped:
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and isinstance(pair[0], str)
                and isinstance(pair[1], dict)
            ):
                return None
    payload["chains"] = {
        key: [tuple(pair) for pair in shipped] for key, shipped in chains.items()
    }
    return payload


def decode_entry(blob: bytes) -> Optional[ChainStates]:
    """The per-chain states inside an entry blob, or ``None`` (see :func:`decode_body`)."""
    body = decode_body(blob)
    return None if body is None else body["chains"]


class ChunkStateCache:
    """Reader/writer for one store's chunk-state cache directory.

    Instances carry ``hits`` / ``misses`` counters for the lookups they
    performed (or that workers reported back through them), so callers can
    assert and surface exactly how much history a report skipped.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_store(cls, store_directory: str) -> "ChunkStateCache":
        from repro.collection.store import state_cache_dir

        return cls(state_cache_dir(store_directory))

    def context(self, config: str) -> CacheContext:
        return CacheContext(self.directory, config)

    def entry_path(self, key: EntryKey) -> str:
        return os.path.join(self.directory, key.filename())

    def load(self, key: EntryKey) -> Optional[ChainStates]:
        """One keyed entry's states, or ``None`` (miss; never raises).

        Does not touch the hit/miss counters — the consumer counts, because
        a decodable entry can still fail the restore step and must then be
        recounted as a miss (see the scan loop in
        :mod:`repro.analysis.parallel`).
        """
        try:
            with open(self.entry_path(key), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        action = faults.check("store.cache_read")
        if action is not None:
            blob = action.corrupt(blob)
        return decode_entry(blob)

    def store(self, key: EntryKey, states: ChainStates) -> None:
        """Atomically persist one chunk's states; best-effort, never raises.

        Rides the manifest-commit idiom: full write to this process's own
        temp file (a plain ``open``, so an entry gets the umask-derived mode
        of the chunks beside it), then one ``os.replace`` — a reader sees
        the old entry or the new one, never a torn half.  Real I/O errors
        are swallowed (the cache is an optimisation; a read-only disk must
        not fail the report).  An injected ``crash`` propagates as
        :class:`~repro.common.faults.InjectedCrash` — the simulated process
        death the soak harness recovers from.
        """
        blob = encode_entry(states)
        action = faults.check("store.cache_write")
        disk_blob = blob
        if action is not None and action.mode in (
            faults.MODE_TORN,
            faults.MODE_BITFLIP,
            faults.MODE_TRUNCATE,
        ):
            disk_blob = action.corrupt(blob)
        temp_path = f"{self.entry_path(key)}.{os.getpid()}.tmp"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(temp_path, "wb") as handle:
                handle.write(disk_blob)
            if action is not None and action.mode == faults.MODE_CRASH:
                raise faults.InjectedCrash("injected crash before cache entry rename")
            os.replace(temp_path, self.entry_path(key))
        except OSError:
            try:
                os.remove(temp_path)
            except OSError:
                pass

    def clear(self) -> int:
        """Remove every entry (and temp leftover); returns files removed."""
        if not os.path.isdir(self.directory):
            return 0
        removed = 0
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            if os.path.isfile(path):
                try:
                    os.remove(path)
                except OSError:
                    continue
                removed += 1
        return removed

    def stat(self) -> Dict[str, object]:
        """On-disk accounting: entry count, total bytes, leftovers."""
        entries = 0
        entry_bytes = 0
        other_files = 0
        if os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                path = os.path.join(self.directory, name)
                if not os.path.isfile(path):
                    continue
                if parse_entry_name(name) is not None:
                    entries += 1
                    entry_bytes += os.path.getsize(path)
                else:
                    other_files += 1
        return {
            "directory": self.directory,
            "entries": entries,
            "bytes": entry_bytes,
            "other_files": other_files,
        }
