"""The columnar frame store: chunked, compressed transaction rows.

The paper stores roughly 200 GB of gzip-compressed raw block data across the
three chains (Figure 2).  :class:`FrameStore` keeps the columnar analysis
substrate the same way: rows are chunk-compressed **directly from a**
:class:`~repro.common.columns.TxFrame` — the columnar payload skips record
materialisation entirely and compresses better than per-record
dictionaries — with byte-level accounting, so the dataset characterisation
reports Figure 2's storage column from the chunks' compressed bytes.  A
store can live purely in memory (the default, used by tests and benchmarks)
or spill chunks to a directory on disk.  :class:`FrameSink` adapts a frame
store to the block crawler's sink protocol, which is how a crawl streams
straight into the columnar substrate without materialising block-record
lists.

A directory-backed store has exactly one layout: chunk files plus a
**manifest** (``manifest.json``, version :data:`MANIFEST_VERSION`, written
atomically).  The manifest is the store's commit point.  A fresh store
commits an empty manifest before its first chunk file, and every chunk
commit rewrites it, so a directory this program wrote always has one.  A
crash mid-chunk leaves a chunk file the manifest never references;
:meth:`FrameStore.open` cleans such stale partials (as well as
manifest-listed files whose size no longer matches), so the incremental
ingestion pipeline can always reopen a store at its last durable watermark
and re-ingest only what was lost.  A directory holding chunk files but no
manifest was not written by this program: ``open`` refuses it and leaves
the files alone (``repro fsck --repair`` quarantines them).

Every manifest entry records, beside the chunk's file, row count and byte
sizes, the metadata the chunk-parallel analysis layer needs without
touching any chunk payload:

* ``heights`` / ``times`` — per-chain ``[min, max]`` block heights (the
  crawl watermark) and timestamps (the figure window);
* ``chain_rows`` — per-chain row counts (workers skip chains a chunk does
  not touch; the parent knows per-chain totals without a scan);
* ``pools`` — the chunk's *string-pool deltas*: the strings this chunk
  introduced that no earlier chunk had, in first-seen order.  Concatenating
  the deltas in chunk order reproduces exactly the pools
  :meth:`FrameStore.to_frame` would build (every chunk re-interns its
  payload pools in payload order), so any process can build the store's
  *global* code space from the manifest alone — which is what lets worker
  processes scan disjoint chunk ranges and still return accumulator state
  in one shared code space.

An entry that lacks any of these is refused with a :class:`CollectionError`
naming the chunk; ``repro fsck --repair`` recomputes missing pool deltas.

Analysis state over a chunk depends on every chunk before it (its string
codes index their pools), so such state is keyed by :meth:`FrameStore.prefix`,
a hash chain over the chunks' headers and sizes that no manifest byte records.

Frame chunks themselves come in three **serialisation formats**: the
``v1`` gzip-JSON files (``frame-chunk-*.json.gz``) and the binary columnar
``v2`` (``frame-chunk-*.bin``) and ``v3`` (``frame-chunk-*.v3.bin``) files
of :mod:`repro.collection.chunkformat`.  New chunks are always written as
v3; v1 and v2 are read-only input from archives written by older versions.
Reads dispatch on each blob's magic bytes, so a store may freely mix
formats — e.g. a v2 archive that keeps growing v3 chunks after an upgrade.
:meth:`FrameStore.migrate_format` rewrites the v1 and v2 chunks of a store
in place behind the same atomic-manifest commit point.
"""

from __future__ import annotations

import glob
import json
import os
import zlib
from collections import deque
from functools import partial
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common import faults
from repro.common.columns import CHAIN_ORDER, LazyMetadata, TxFrame
from repro.common.compression import CompressionStats, accumulate, decompress_json
from repro.common.digest import blake2b
from repro.common.errors import CollectionError
from repro.common.records import BlockRecord, TransactionRecord

#: Manifest schema version, the only one :meth:`FrameStore.open` reads;
#: bump when the manifest layout changes.
MANIFEST_VERSION = 2

#: The keys every manifest chunk entry carries.
MANIFEST_ENTRY_KEYS = (
    "file", "rows", "compressed_bytes", "raw_bytes", "heights", "times", "chain_rows", "pools",
)

#: Manifest file name inside a directory-backed frame store.
MANIFEST_NAME = "manifest.json"

#: The string pools every frame payload carries, in canonical order.
POOL_NAMES = ("types", "accounts", "currencies", "errors")

#: Chunk serialisation formats a :class:`FrameStore` can read.  ``v1`` is
#: gzip-compressed JSON and ``v2`` the first binary columnar format (legacy
#: archives only — never written); ``v3`` is the binary columnar format with
#: projected metadata columns (:mod:`repro.collection.chunkformat`), the one
#: format written.  Reads dispatch per chunk file, so mixed-format stores
#: work.
CHUNK_FORMAT_V1 = "v1"
CHUNK_FORMAT_V2 = "v2"
CHUNK_FORMAT_V3 = "v3"

#: Per-format chunk file extensions.  The extension is what makes mixed
#: stores and in-place migration safe: a chunk's format is visible in the
#: manifest's file names, and a migrated chunk never collides with the
#: file it replaces.
CHUNK_EXTENSIONS = {CHUNK_FORMAT_V1: ".json.gz", CHUNK_FORMAT_V2: ".bin", CHUNK_FORMAT_V3: ".v3.bin"}

#: Glob patterns matching chunk files of any format (crash cleanup scans;
#: ``*.bin`` covers v2 and v3).
_CHUNK_GLOBS = ("frame-chunk-*.json.gz", "frame-chunk-*.bin")

#: Sub-directory (inside a directory-backed store) holding memoized
#: per-chunk accumulator states — the chunk-state aggregate cache of
#: :mod:`repro.analysis.statecache`.  The store owns only the *layout*:
#: where the cache lives and when it must be invalidated wholesale
#: (chunk rewrites).  Entry encoding and keying live with the analysis
#: layer, which is the only reader/writer of entry contents.
STATE_CACHE_DIR = "cache"


def state_cache_dir(directory: str) -> str:
    """The chunk-state cache directory beside a store's chunk files."""
    return os.path.join(directory, STATE_CACHE_DIR)


#: Sub-directory of a pipeline (``--data``) directory holding its frame store.
FRAMES_DIR = "frames"


def resolve_store_dir(root: str) -> str:
    """The frame-store directory for ``root`` (bare store or pipeline dir)."""
    if os.path.exists(os.path.join(root, MANIFEST_NAME)):
        return root
    nested = os.path.join(root, FRAMES_DIR)
    if os.path.isdir(nested):
        return nested
    return root


def ensure_directory(path: str) -> None:
    """Create ``path`` if missing; a path that cannot be a directory is an error.

    ``os.makedirs`` on a regular file (or under one) is a raw ``OSError``;
    every durable directory this package opens goes through here instead.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as error:
        raise CollectionError(f"{path!r} cannot be used as a directory: {error}") from error


def invalidate_state_cache(directory: str) -> int:
    """Drop every chunk-state cache entry under ``directory``'s store.

    Used by operations that rewrite chunk bytes in place (format
    migration): entry keys chain over the chunk bytes, so stale entries
    could never *hit* — but they would linger as dead weight and show up
    as stale in ``fsck``, so rewrites clear the cache outright.  Returns
    the number of files removed; a missing cache directory is a no-op.
    """
    cache_dir = state_cache_dir(directory)
    if not os.path.isdir(cache_dir):
        return 0
    removed = 0
    for name in os.listdir(cache_dir):
        path = os.path.join(cache_dir, name)
        if os.path.isfile(path):
            os.remove(path)
            removed += 1
    return removed


def _chunk_format_of(path: str) -> str:
    """A chunk file's format, read off its extension."""
    if path.endswith(CHUNK_EXTENSIONS[CHUNK_FORMAT_V3]):
        return CHUNK_FORMAT_V3
    return CHUNK_FORMAT_V1 if path.endswith(".json.gz") else CHUNK_FORMAT_V2


def _glob_chunk_files(directory: str) -> List[str]:
    """Every chunk file in ``directory``, sorted by chunk id (any format)."""
    paths: List[str] = []
    for pattern in _CHUNK_GLOBS:
        paths.extend(glob.glob(os.path.join(directory, pattern)))
    return sorted(paths)


#: ``prefix(0)``, the key of no chunks (see :meth:`FrameStore.prefix`).
CHAIN_ROOT = "0" * 16

#: A binary chunk's header: family, version and the adler32 of its body.
_HEAD_BYTES = 8


def chain_link(prefix: str, blob: bytes, fmt: str, size: int) -> str:
    """``prefix(i + 1)`` from ``prefix(i)`` and chunk i's blob (a binary
    chunk's header is enough: it checksums the body; a v1 chunk links by its
    whole-blob adler32), format and committed size, as 16 hex digits."""
    head = blob[:_HEAD_BYTES]
    if fmt == CHUNK_FORMAT_V1:
        head = fmt.encode() + (zlib.adler32(blob) & 0xFFFFFFFF).to_bytes(4, "big")
    material = bytes.fromhex(prefix) + head + size.to_bytes(8, "big")
    return blake2b(material, digest_size=8).hexdigest()


def _decode_chunk_blob(blob: bytes, chunk_id: int) -> Dict:
    """Decode one chunk blob, dispatching on the format magic.

    Corruption in any format surfaces as :class:`CollectionError` — the
    same degradation contract checkpoints follow (:class:`CodecError` →
    "no usable snapshot"), so callers can treat a damaged chunk as a
    recoverable condition instead of a crash.  Any blob of the binary
    family goes to its decoder, which names a version it does not read
    rather than letting the v1 reader call the chunk corrupt.
    """
    from repro.collection import chunkformat

    if chunkformat.chunk_version(blob) is not None:
        return chunkformat.decode_chunk(blob)
    try:
        return decompress_json(blob)
    except (OSError, EOFError, ValueError, RecursionError, zlib.error) as error:
        # gzip.BadGzipFile is an OSError; truncated streams raise EOFError;
        # a damaged deflate stream raises zlib.error; json/unicode failures
        # are ValueErrors, JSON nested too deeply a RecursionError.
        raise CollectionError(
            f"frame chunk {chunk_id} is corrupt: {error}"
        ) from None


def _shared_dicts(metadata: LazyMetadata) -> List[Optional[Dict]]:
    """A chunk's parsed metadata with equal dicts replaced by the first one."""
    items = metadata.materialise()
    memo: Dict[str, Optional[Dict]] = {}
    return list(map(memo.setdefault, map(repr, items), items))


def _payload_chain_stats(
    payload: Dict,
) -> Tuple[Dict[str, List[int]], Dict[str, List[float]], Dict[str, int]]:
    """Per-chain height bounds, timestamp bounds and row counts of a payload.

    Chains are keyed in first-seen row order (the manifest and the chunk
    header serialise these dicts, so the order is part of the store bytes).
    """
    import numpy as np

    heights: Dict[str, List[int]] = {}
    times: Dict[str, List[float]] = {}
    chain_rows: Dict[str, int] = {}
    columns = payload["columns"]
    chain_codes = np.asarray(columns["chain_code"])
    block_heights = np.asarray(columns["block_height"])
    timestamps = np.asarray(columns["timestamp"])
    present, first_seen = np.unique(chain_codes, return_index=True)
    for chain_code in present[np.argsort(first_seen)].tolist():
        mask = chain_codes == chain_code
        chain = CHAIN_ORDER[chain_code].value
        chain_heights, chain_times = block_heights[mask], timestamps[mask]
        heights[chain] = [int(chain_heights.min()), int(chain_heights.max())]
        times[chain] = [float(chain_times.min()), float(chain_times.max())]
        chain_rows[chain] = len(chain_heights)
    return heights, times, chain_rows


def _check_id_runs(payload: Dict) -> None:
    """The store invariant: per chain, a transaction's rows are contiguous.

    ``tx_stats`` counts transactions as id *runs* in O(1) state
    (:class:`~repro.analysis.containers.IdRuns`), so rows that interleave
    two transactions' ids are refused here, before anything is written.
    """
    import numpy as np

    ids = np.asarray(payload["transaction_id"], dtype=object)
    chain_codes = np.asarray(payload["columns"]["chain_code"])
    for code, chain in enumerate(CHAIN_ORDER):
        chain_ids = ids[chain_codes == code]
        runs = int(np.count_nonzero(chain_ids[1:] != chain_ids[:-1])) + 1
        distinct = len(set(chain_ids.tolist()))
        if distinct and runs != distinct:
            raise CollectionError(
                f"{chain.value} rows interleave transaction ids ({runs} id runs, "
                f"{distinct} distinct ids): a transaction's rows must be contiguous"
            )


#: Each pool's code columns, read row-major in this order (a fresh frame
#: interns a row's four account roles in it).
_POOL_COLUMNS = {
    "types": ("type_code",),
    "accounts": ("sender_code", "receiver_code", "contract_code", "issuer_code"),
    "currencies": ("currency_code",),
    "errors": ("error_code",),
}


def _local_strings(values: List, columns: Dict, names: Sequence[str]) -> List:
    """The ``values`` that ``columns[names]`` use, in first-seen row-major
    order; the columns are recoded to index the result (``-1`` stays)."""
    import numpy as np

    codes = np.stack([np.asarray(columns[name]) for name in names], axis=1).ravel()
    used, first = np.unique(codes[codes >= 0], return_index=True)
    order = used[np.argsort(first)]
    remap = np.full(len(values) + 1, -1, np.int32)  # remap[-1]: absent stays -1
    remap[order] = np.arange(len(order), dtype=np.int32)
    for name in names:
        columns[name] = remap[np.asarray(columns[name])]
    return [values[code] for code in order.tolist()]


def _localise(payload: Dict) -> Dict:
    """``payload`` with only the strings its rows use, in the order a fresh
    frame of those rows would intern them, so a chunk's bytes depend on its
    rows alone, whichever writer cut them."""
    from repro.common.projection import PROJECTED_KEYS, Projection

    columns = payload["columns"] = dict(payload["columns"])
    payload["pools"] = {
        name: _local_strings(payload["pools"][name], columns, _POOL_COLUMNS[name])
        for name in POOL_NAMES
    }
    projection = payload["projected"]
    texts = [key for key, kind in PROJECTED_KEYS.items() if kind != "flag"]
    projected = dict(projection.columns)
    strings = _local_strings(projection.strings, projected, texts)
    payload["projected"] = Projection(projected, strings)
    return payload


def absorb_pool_deltas(
    pools: Dict[str, Dict[str, None]], payload_pools: Dict
) -> Dict[str, List[str]]:
    """Fold one chunk's payload pools into running global pools.

    ``pools`` maps each pool name to an insertion-ordered dict of the strings
    seen so far (the store's code order).  Returns the chunk's deltas: the
    payload-pool strings not already in ``pools``, in payload order — exactly
    the order :meth:`TxFrame.extend_from_payload` would intern them, so
    folding chunks in order reproduces :meth:`FrameStore.to_frame`'s pools.
    """
    deltas = payload_pool_deltas(pools, payload_pools)
    fold_pool_deltas(pools, deltas)
    return deltas


def payload_pool_deltas(
    pools: Dict[str, Dict[str, None]], payload_pools: Dict
) -> Dict[str, List[str]]:
    """:func:`absorb_pool_deltas`'s deltas, leaving ``pools`` unchanged."""
    return {
        name: [value for value in payload_pools[name] if value not in pools[name]]
        for name in POOL_NAMES
    }


def fold_pool_deltas(
    pools: Dict[str, Dict[str, None]], deltas: Dict[str, List[str]]
) -> None:
    """Append committed deltas to the running pools, in code order."""
    for name, values in deltas.items():
        pools[name].update(dict.fromkeys(values))


class StoredFrameChunk:
    """One compressed chunk of consecutive frame rows (a plain class: a
    store fills in ``path`` or ``blob`` after encoding, and migration
    replaces ``stats``)."""

    def __init__(
        self,
        chunk_id: int,
        row_count: int,
        stats: CompressionStats,
        heights: Dict[str, List[int]],
        times: Dict[str, List[float]],
        chain_rows: Dict[str, int],
        pool_deltas: Dict[str, List[str]],
        path: Optional[str] = None,
    ):
        self.chunk_id = chunk_id
        self.row_count = row_count
        self.stats = stats
        self.blob: Optional[bytes] = None
        self.path = path
        #: Per-chain ``[min_height, max_height]`` of the chunk's rows, keyed by
        #: the chain value string.  Recorded in the manifest so a reopened store
        #: knows its crawl watermark without decompressing anything.
        self.heights = heights
        #: Per-chain ``[min_timestamp, max_timestamp]`` of the chunk's rows.
        self.times = times
        #: Per-chain row counts.
        self.chain_rows = chain_rows
        #: String-pool deltas: the strings this chunk's payload pools introduce
        #: that no earlier chunk did, in first-seen order, keyed by pool name.
        self.pool_deltas = pool_deltas

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"StoredFrameChunk({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def payload(self) -> Dict:
        """Decode the chunk's columnar payload (format read off the blob)."""
        if self.blob is not None:
            blob = self.blob
        elif self.path is not None:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        else:
            raise CollectionError(f"frame chunk {self.chunk_id} has no data attached")
        return _decode_chunk_blob(blob, self.chunk_id)


class FrameStore:
    """Append-only chunked store of columnar transaction rows.

    Rows are compressed straight from a :class:`TxFrame`'s columns: each
    chunk is the frame's columnar payload for a row slice (typed columns
    plus the string pools), so storing a crawled or generated frame never
    materialises a single :class:`TransactionRecord`.
    """

    def __init__(
        self,
        chunk_rows: int = 50_000,
        directory: Optional[str] = None,
    ):
        if chunk_rows <= 0:
            raise CollectionError("chunk_rows must be positive")
        self.chunk_rows = chunk_rows
        self.directory = directory
        if directory is not None:
            ensure_directory(directory)
        self._chunks: List[StoredFrameChunk] = []
        self._staging = TxFrame()
        self._row_count = 0
        self._height_bounds: Dict[str, List[int]] = {}
        #: Running global string pools over the committed chunks, in the
        #: exact order :meth:`to_frame` would intern them (see
        #: :func:`absorb_pool_deltas`).
        self._pools: Dict[str, Dict[str, None]] = {name: {} for name in POOL_NAMES}
        #: ``prefix(0..k)``, extended by :meth:`prefix` and chunk writes.
        self._chain: List[str] = [CHAIN_ROOT]
        #: Whether the directory's manifest describes this store; until it
        #: does, the first chunk write commits an empty one first.
        self._manifest_committed = False
        #: Stale partial chunk files removed by :meth:`open` (crash cleanup).
        self.cleaned_paths: List[str] = []

    @classmethod
    def open(cls, directory: str, chunk_rows: int = 50_000) -> "FrameStore":
        """Reopen a directory-backed store written by an earlier process.

        The open is **lazy and crash-safe**: only the manifest is read;
        chunk payloads stay on disk until :meth:`to_frame` needs them.  The
        manifest is the commit point of every append, so two kinds of stale
        data are detected and cleaned here:

        * chunk files on disk that the manifest never committed (an ingest
          died after writing the file but before the manifest rename), and
        * manifest-listed files whose on-disk size no longer matches the
          committed byte count (a torn write); the manifest is truncated at
          the first such chunk, dropping it and everything after it.

        Cleaned file paths are reported in :attr:`cleaned_paths` so the
        pipeline can log what a crash cost; the store reopens at its last
        durable watermark and appends continue from there.

        A directory with neither a manifest nor chunk files opens as a new
        empty store.  Chunk files without a manifest were not written by
        this program (a store commits its manifest before its first chunk
        file): that is a :class:`CollectionError`, and the files are left
        untouched.
        """
        store = cls(chunk_rows=chunk_rows, directory=directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            store._open_from_manifest(manifest_path)
        elif _glob_chunk_files(directory):
            raise CollectionError(
                f"{directory!r} holds chunk files but no manifest commits them "
                "(not a store this program wrote); `repro fsck --repair` moves "
                "them into quarantine/"
            )
        return store

    @classmethod
    def assemble(
        cls,
        directory: str,
        sources: Sequence[str],
        chunk_rows: int = 50_000,
    ) -> "FrameStore":
        """Combine shard stores into one store **without decompressing data**.

        ``sources`` are directory-backed stores whose chunks become the
        combined store's chunks, in the given order.  Chunk files are moved
        (renamed) into ``directory``; rows, byte accounting, heights, times
        and chain rows pass through unchanged.  The only recomputation is
        the pool deltas: each shard records deltas relative to *its own*
        running pools, so every shard delta is re-filtered against the
        combined store's running pool set — correct because by the time a
        chunk is reached the combined pools hold every string of its
        shard's earlier chunks.

        The sources are **consumed**: their chunk files move away and their
        directories (now holding only a stale manifest) are removed.

        Crash safety: before any chunk moves, a placeholder manifest marked
        ``"assembling"`` is committed into the target; :meth:`open` refuses
        a store whose manifest still carries that mark, so an assembly that
        dies between moves can never be mistaken for a complete store.  The
        final manifest write replaces the placeholder atomically.
        """
        target = cls(chunk_rows=chunk_rows, directory=directory)
        placeholder = {
            "version": MANIFEST_VERSION,
            "assembling": True,
            "chunk_rows": chunk_rows,
            "row_count": 0,
            "chunks": [],
        }
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        temp_path = manifest_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(placeholder, handle)
        os.replace(temp_path, manifest_path)
        for source_dir in sources:
            source = cls.open(source_dir)
            for chunk in source._chunks:
                chunk_id = len(target._chunks)
                # The moved file keeps its format (visible in the extension):
                # chunk bytes pass through assembly untouched, which is what
                # keeps sharded generation byte-deterministic per worker count.
                extension = CHUNK_EXTENSIONS[_chunk_format_of(chunk.path)]
                path = os.path.join(
                    directory, f"frame-chunk-{chunk_id:06d}{extension}"
                )
                faults.maybe_crash("store.assemble")
                os.replace(chunk.path, path)
                target._chunks.append(
                    StoredFrameChunk(
                        chunk_id=chunk_id,
                        row_count=chunk.row_count,
                        stats=chunk.stats,
                        path=path,
                        heights=chunk.heights,
                        times=chunk.times,
                        chain_rows=chunk.chain_rows,
                        pool_deltas=absorb_pool_deltas(target._pools, chunk.pool_deltas),
                    )
                )
                target._row_count += chunk.row_count
                target._merge_height_bounds(chunk.heights)
            manifest_path = os.path.join(source_dir, MANIFEST_NAME)
            if os.path.exists(manifest_path):
                os.remove(manifest_path)
            try:
                os.rmdir(source_dir)
            except OSError:  # pragma: no cover - caller left extra files
                pass
        target._write_manifest()
        return target

    # -- manifest ----------------------------------------------------------------
    def _open_from_manifest(self, manifest_path: str) -> None:
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (ValueError, RecursionError) as error:
            raise CollectionError(
                f"frame-store manifest {manifest_path!r} is unreadable: {error}"
            ) from error
        if not isinstance(manifest, dict):
            raise CollectionError(
                f"frame-store manifest {manifest_path!r} is not a JSON object"
            )
        if manifest.get("version") != MANIFEST_VERSION:
            raise CollectionError(
                f"unsupported frame-store manifest version {manifest.get('version')!r}"
            )
        if manifest.get("assembling"):
            # The placeholder manifest :meth:`assemble` writes before moving
            # any shard chunk: its presence means an assembly died mid-move.
            # Refusing to open is the only safe answer — the directory holds
            # an arbitrary prefix of the shards, and loading it would look
            # like a complete store with silently missing rows.
            raise CollectionError(
                f"store {self.directory!r} is a crashed partial assembly; "
                "re-run the assembly from its shard sources"
            )
        committed: List[StoredFrameChunk] = []
        truncated = False
        for index, entry in enumerate(manifest["chunks"]):
            missing = [key for key in MANIFEST_ENTRY_KEYS if key not in entry]
            if missing:
                raise CollectionError(
                    f"manifest entry of chunk {index} ({entry.get('file')!r}) in "
                    f"{self.directory!r} lacks {', '.join(missing)}; run "
                    "`repro fsck --repair`"
                )
            path = os.path.join(self.directory, entry["file"])
            compressed = int(entry["compressed_bytes"])
            if (
                truncated
                or not os.path.exists(path)
                or os.path.getsize(path) != compressed
            ):
                # Torn or missing committed chunk: the store is only
                # consistent up to the previous chunk, so this one and
                # everything after it is dropped.
                truncated = True
                if os.path.exists(path):
                    self.cleaned_paths.append(path)
                    os.remove(path)
                continue
            committed.append(
                StoredFrameChunk(
                    chunk_id=len(committed),
                    row_count=int(entry["rows"]),
                    stats=CompressionStats(
                        raw_bytes=int(entry["raw_bytes"]),
                        compressed_bytes=compressed,
                        chunk_count=1,
                    ),
                    path=path,
                    heights={
                        chain: [int(low), int(high)]
                        for chain, (low, high) in entry["heights"].items()
                    },
                    times={
                        chain: [float(low), float(high)]
                        for chain, (low, high) in entry["times"].items()
                    },
                    chain_rows={
                        chain: int(count) for chain, count in entry["chain_rows"].items()
                    },
                    pool_deltas={name: list(entry["pools"][name]) for name in POOL_NAMES},
                )
            )
        committed_files = {os.path.basename(chunk.path) for chunk in committed}
        for path in _glob_chunk_files(self.directory):
            if os.path.basename(path) not in committed_files:
                # Uncommitted partial (crash between chunk write and the
                # manifest rename): clean it so chunk ids stay dense.
                self.cleaned_paths.append(path)
                os.remove(path)
        for chunk in committed:
            self._chunks.append(chunk)
            self._row_count += chunk.row_count
            self._merge_height_bounds(chunk.heights)
            fold_pool_deltas(self._pools, chunk.pool_deltas)
        self._manifest_committed = True
        if truncated or self.cleaned_paths:
            self._write_manifest()

    def _merge_height_bounds(self, heights: Dict[str, List[int]]) -> None:
        for chain, (low, high) in heights.items():
            bounds = self._height_bounds.get(chain)
            if bounds is None:
                self._height_bounds[chain] = [low, high]
            else:
                bounds[0] = min(bounds[0], low)
                bounds[1] = max(bounds[1], high)

    def _write_manifest(self) -> None:
        """Atomically commit the chunk list (write-temp + rename)."""
        if self.directory is None:
            return
        entries = [
            {
                "file": os.path.basename(chunk.path),
                "rows": chunk.row_count,
                "compressed_bytes": chunk.stats.compressed_bytes,
                "raw_bytes": chunk.stats.raw_bytes,
                "heights": chunk.heights,
                "times": chunk.times,
                "chain_rows": chunk.chain_rows,
                "pools": chunk.pool_deltas,
            }
            for chunk in self._chunks
        ]
        manifest = {
            "version": MANIFEST_VERSION,
            "chunk_rows": self.chunk_rows,
            "row_count": self._row_count,
            "chunks": entries,
        }
        path = os.path.join(self.directory, MANIFEST_NAME)
        temp_path = path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            # dumps, not dump: one C-encoder call instead of the pure-Python
            # streaming encoder over a document that grows with every chunk.
            handle.write(json.dumps(manifest))
        # A crash here (temp written, rename pending) must leave the previous
        # manifest authoritative — exactly what the atomic replace guarantees.
        faults.maybe_crash("store.manifest_commit")
        os.replace(temp_path, path)
        self._manifest_committed = True

    # -- writing -----------------------------------------------------------------
    def add_frame(self, frame: TxFrame) -> None:
        """Chunk-compress every row of ``frame`` directly from its columns:
        the same chunks :meth:`add_records` writes for its records."""
        total = len(frame)
        for start in range(0, total, self.chunk_rows):
            self._write_chunk(frame, range(start, min(start + self.chunk_rows, total)))

    def add_records(self, records: Iterable[TransactionRecord]) -> None:
        """Buffer a record stream, flushing a chunk whenever one fills up."""
        deque(self.iter_commits(records), maxlen=0)

    def iter_commits(self, records: Iterable[TransactionRecord]) -> Iterator[Dict]:
        """:meth:`add_records` as a generator of what it committed.

        Yields the columnar payload of each chunk the stream fills, right
        after that chunk's manifest commit (see :meth:`flush`); the store
        keeps no reference, so a caller that drops a payload frees it.
        """
        source = iter(records)
        while True:
            # An over-full staging frame (see stage_records) still takes one
            # row before it is cut, as when rows were appended one at a time.
            room = max(1, self.chunk_rows - len(self._staging))
            if not self._staging.extend(islice(source, room)):
                return
            if len(self._staging) >= self.chunk_rows:
                yield self.flush()

    def stage_records(self, records: Iterable[TransactionRecord]) -> None:
        """Buffer records **without** auto-flushing mid-stream.

        Unlike :meth:`add_records`, no chunk is committed while the stream
        is being consumed — the caller decides where durability boundaries
        fall by calling :meth:`flush` between its own atomic units.  This is
        how :class:`FrameSink` keeps chunk commits *block-aligned*: a chunk
        must never end mid-block, or a crash after the commit would leave
        the block's height inside the durable watermark with its tail rows
        lost (the resumed crawl would skip the block, silently dropping
        rows).  Chunks may run slightly past ``chunk_rows`` as a result.
        """
        self._staging.extend(records)

    @property
    def staged_rows(self) -> int:
        """Rows buffered in staging, not yet committed to a chunk."""
        return len(self._staging)

    def flush(self) -> Optional[Dict]:
        """Compress the staging buffer into a chunk (no-op when empty).

        Returns the columnar payload the committed chunk was encoded from,
        so the committer can scan it without decoding the chunk again;
        ``None`` when nothing was staged.  Returning means the manifest commit happened.
        """
        if not len(self._staging):
            return None
        payload = self._write_chunk(self._staging, None)
        self._staging = TxFrame()
        return payload

    def _write_chunk(self, frame: TxFrame, rows: Optional[range]) -> Dict:
        from repro.collection import chunkformat

        payload = frame.to_payload(rows, arrays=True)
        if rows is not None:
            # A slice of a caller's frame carries that frame's whole pools; a
            # staging frame holds only this chunk's rows, so its pools are
            # already what _localise would make them.
            payload = _localise(payload)
        _check_id_runs(payload)
        heights, times, chain_rows = _payload_chain_stats(payload)
        blob, raw_size = chunkformat.encode_chunk(
            payload, chain_stats=(heights, times, chain_rows)
        )
        row_count = len(rows) if rows is not None else len(frame)
        chunk = StoredFrameChunk(
            chunk_id=len(self._chunks),
            row_count=row_count,
            stats=CompressionStats(
                raw_bytes=raw_size, compressed_bytes=len(blob), chunk_count=1
            ),
            heights=heights,
            times=times,
            chain_rows=chain_rows,
            # Folded into the running pools only once the chunk commits: a
            # failed write must not leave strings no committed chunk carries.
            pool_deltas=payload_pool_deltas(self._pools, payload["pools"]),
        )
        if self.directory is not None:
            if not self._manifest_committed:
                # A fresh directory gets its (empty) manifest first, so a
                # crash in this chunk's write leaves an uncommitted partial
                # that open() cleans, never chunk files without a manifest.
                self._write_manifest()
            chunk.path = os.path.join(
                self.directory,
                f"frame-chunk-{chunk.chunk_id:06d}"
                f"{CHUNK_EXTENSIONS[CHUNK_FORMAT_V3]}",
            )
            action = faults.check("store.chunk_write")
            disk_blob = blob
            if action is not None and action.mode in (
                faults.MODE_TORN,
                faults.MODE_BITFLIP,
                faults.MODE_TRUNCATE,
            ):
                disk_blob = action.corrupt(blob)
            with open(chunk.path, "wb") as handle:
                handle.write(disk_blob)
            if action is not None and action.mode in (
                faults.MODE_CRASH,
                faults.MODE_TRUNCATE,
            ):
                # Death between the chunk write and the manifest commit: the
                # file (whole for ``crash``, half for ``truncate``) is never
                # referenced by the manifest and open() cleans it up.
                raise faults.InjectedCrash(
                    f"injected {action.mode} at store.chunk_write"
                )
        else:
            chunk.blob = blob
        self._chunks.append(chunk)
        self._link(chunk.chunk_id, blob)
        self._row_count += row_count
        self._merge_height_bounds(chunk.heights)
        fold_pool_deltas(self._pools, chunk.pool_deltas)
        if self.directory is not None:
            # The manifest rename is the commit point: a crash before it
            # leaves an uncommitted chunk file that open() will clean up.
            self._write_manifest()
            if action is not None and action.mode == faults.MODE_TORN:
                # A torn write: the manifest committed the full byte count
                # but only half the blob reached the platter before power
                # loss.  open() detects the size mismatch and truncates the
                # store at this chunk.
                raise faults.InjectedCrash("injected torn write at store.chunk_write")
        return payload

    # -- reading ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._row_count + len(self._staging)

    @property
    def row_count(self) -> int:
        return self._row_count + len(self._staging)

    @property
    def chunk_count(self) -> int:
        return len(self._chunks) + (1 if len(self._staging) else 0)

    @property
    def flushed_rows(self) -> int:
        """Rows committed to chunks — the store's durable row watermark.

        Staged rows are excluded: they live only in this process and are
        lost on a crash, so checkpoints must never cover them.
        """
        return self._row_count

    def height_bounds(self, chain) -> Optional[Tuple[int, int]]:
        """(min, max) committed block height for ``chain`` (or its value string).

        This is the crawl watermark: a tail crawl resumes at ``max + 1``.
        ``None`` when the chain has no committed rows.
        """
        key = getattr(chain, "value", chain)
        bounds = self._height_bounds.get(key)
        if bounds is None:
            return None
        return bounds[0], bounds[1]

    # -- out-of-core scan metadata -------------------------------------------------
    def pool_values(self) -> Dict[str, List[str]]:
        """The store's global string pools, in code order, keyed by name.

        Identical to the pools :meth:`to_frame` would build (staged rows
        excluded): the concatenation of every committed chunk's deltas in
        chunk order.  This is the shared code space out-of-core workers and
        the merging parent scan in.
        """
        return {name: list(values) for name, values in self._pools.items()}

    def time_bounds(self, chain) -> Optional[Tuple[float, float]]:
        """(min, max) committed timestamp for ``chain`` (or its value string)."""
        key = getattr(chain, "value", chain)
        low = high = None
        for chunk in self._chunks:
            window = chunk.times.get(key)
            if window is None:
                continue
            if low is None:
                low, high = window[0], window[1]
            else:
                low = min(low, window[0])
                high = max(high, window[1])
        if low is None:
            return None
        return low, high

    def chain_row_counts(self, stop: Optional[int] = None) -> Dict[str, int]:
        """Committed row totals per chain value string (of the chunks before
        ``stop`` when given)."""
        totals: Dict[str, int] = {}
        for chunk in self._chunks[:stop]:
            for chain, count in chunk.chain_rows.items():
                totals[chain] = totals.get(chain, 0) + count
        return totals

    @property
    def committed_chunk_count(self) -> int:
        """Durable chunks on disk — the unit of out-of-core task partitioning."""
        return len(self._chunks)

    def chunk_row_counts(self) -> List[int]:
        """Row count of every committed chunk, in chunk order (manifest only).

        The row-balanced out-of-core task partitioner weights ranges by
        these, so ragged chunk sizes stop skewing worker wall-clock.
        """
        return [chunk.row_count for chunk in self._chunks]

    def prefix(self, n: int) -> str:
        """The key of committed chunks ``[0, n)``, which state over them is
        keyed by: chunk i's entry by ``prefix(i + 1)``, a checkpoint over
        ``n`` chunks by ``prefix(n)``.  A chunk rewritten, dropped or
        reordered moves every key from it on (:func:`chain_link`).

        Derived once per store: the chunks it writes link from the blob in
        hand, the others from an 8-byte read (a v1 chunk is read whole).
        """
        chain = self._chain
        while len(chain) <= n:
            chunk = self._chunks[len(chain) - 1]
            fmt = _chunk_format_of(chunk.path)
            with open(chunk.path, "rb") as handle:
                blob = handle.read() if fmt == CHUNK_FORMAT_V1 else handle.read(_HEAD_BYTES)
            chain.append(chain_link(chain[-1], blob, fmt, chunk.stats.compressed_bytes))
        return chain[n]

    def _link(self, index: int, blob: bytes) -> None:
        """Link chunk ``index`` from the v3 blob just written for it,
        dropping every later link (a rewrite moves them all)."""
        del self._chain[index + 1 :]
        if len(self._chain) == index + 1:
            self._chain.append(chain_link(self._chain[index], blob, CHUNK_FORMAT_V3, len(blob)))

    def chunk_format(self, index: int) -> str:
        """Committed chunk ``index``'s format (one held in memory is v3)."""
        path = self._chunks[index].path
        return CHUNK_FORMAT_V3 if path is None else _chunk_format_of(path)

    def chunk_payload(self, index: int) -> Dict:
        """Decompress one committed chunk's columnar payload."""
        return self._chunks[index].payload()

    def to_frame(self) -> TxFrame:
        """Decompress every chunk back into one columnar frame.

        Every row is resident at once here, so the frame holds each value
        once (the memory paragraph of ``docs/architecture.md``): a chunk's
        decoded columns are copied into the frame and dropped before the
        next chunk decodes.  Within a chunk equal metadata dicts become one
        shared object (read-only, as every frame's metadata is): about half
        of a ``live_tail`` archive's rows repeat a dict an earlier row of
        their chunk holds, and its forty-batch frame peaks ≈17 MB lower.
        The dicts are compared (by ``repr``) only when a chunk's metadata is
        first read — a v3 scan reads the projected columns and never does;
        a v1/v2 chunk's columns are projected from the shared dicts.
        """
        frame = TxFrame()
        for chunk in self._chunks:
            payload = chunk.payload()
            metadata = payload["metadata"]
            if isinstance(metadata, LazyMetadata):
                payload["metadata"] = LazyMetadata(
                    len(metadata), partial(_shared_dicts, metadata)
                )
            frame.extend_from_payload(payload)
            del payload  # the frame has copied its columns
        if len(self._staging):
            frame.extend_from_payload(self._staging.to_payload())
        return frame

    def iter_records(self) -> Iterator[TransactionRecord]:
        """Materialise the stored rows as canonical records (compat path)."""
        for chunk in self._chunks:
            chunk_frame = TxFrame.from_payload(chunk.payload())
            yield from chunk_frame.iter_records()
        yield from self._staging.iter_records()

    def compression_stats(self) -> CompressionStats:
        """Aggregate byte accounting over all flushed chunks."""
        return accumulate(chunk.stats for chunk in self._chunks)

    # -- migration ----------------------------------------------------------------
    def migrate_format(self) -> int:
        """Rewrite every legacy (v1 or v2) chunk as v3; returns how many.

        The rewrite rides the store's normal commit protocol: new chunk
        files are written beside the old ones (a different extension, so no
        collision), then one atomic manifest rename commits the whole
        migration, then the superseded files are deleted.  A crash before
        the rename leaves uncommitted new files (cleaned by :meth:`open`);
        a crash after it leaves unreferenced old files (same cleanup) — at
        no point does the manifest reference a chunk that is not durable.
        """
        from repro.collection import chunkformat

        superseded: List[str] = []
        for chunk in self._chunks:
            source_path = chunk.path
            # Only a file on disk can be legacy: a chunk held in memory was
            # written by this process, and this process writes v3.
            if source_path is None or _chunk_format_of(source_path) == CHUNK_FORMAT_V3:
                continue
            blob, raw_size = chunkformat.encode_chunk(
                chunk.payload(),
                chain_stats=(chunk.heights, chunk.times, chunk.chain_rows),
            )
            chunk.stats = CompressionStats(
                raw_bytes=raw_size, compressed_bytes=len(blob), chunk_count=1
            )
            path = os.path.join(
                self.directory,
                f"frame-chunk-{chunk.chunk_id:06d}{CHUNK_EXTENSIONS[CHUNK_FORMAT_V3]}",
            )
            with open(path, "wb") as handle:
                handle.write(blob)
            chunk.path = path
            self._link(chunk.chunk_id, blob)
            superseded.append(source_path)
        if superseded:
            self._write_manifest()  # the commit point for the whole migration
            for path in superseded:
                os.remove(path)
            # Rewritten chunk bytes orphan every keyed state-cache entry;
            # clear them instead of leaving stale files for fsck to flag.
            invalidate_state_cache(self.directory)
        return len(superseded)


class FrameSink:
    """Adapts a :class:`FrameStore` to the block crawler's sink protocol.

    Each crawled block's transactions flow straight into the columnar
    store; no block-record list is ever accumulated.  The sink buffers at most one crawl window of blocks
    (the crawler fetches in *reverse* chronological order, so the buffer is
    re-sorted ascending at :meth:`flush` — keeping per-chain rows in
    time order, which is what the analysis engine's sorted fast paths and
    the incremental reporter's append-only assumption rely on) and then
    appends their rows to the store and commits a chunk.

    A sink serves one chain's crawl (heights are chain-local).  ``height in
    sink`` answers from the heights ingested through this sink plus the
    store's committed height bounds for the chain.  The bounds check treats
    the committed range as contiguous, so crawl failures that leave holes
    *inside* the range must be declared via ``missing_heights`` — otherwise
    a hole would read as stored and never be re-fetched.  The pipeline's
    tail crawls persist each crawl's ``failed_blocks`` and pass them back
    here on the next tick, which is what turns a transient fetch failure
    into a retried block instead of silent data loss (see
    :func:`repro.pipeline.live.tail_crawl`).
    """

    def __init__(self, store: FrameStore, chain=None, missing_heights=()):
        self.store = store
        self.chain_value: Optional[str] = getattr(chain, "value", chain)
        self._pending: List[BlockRecord] = []
        self._pending_heights: set = set()
        self._heights: set = set()
        self._missing: set = set(missing_heights)
        self._block_count = 0
        self._transaction_count = 0
        self._action_count = 0

    # -- crawler store protocol ---------------------------------------------------
    def add(self, block: BlockRecord) -> None:
        """Buffer one crawled block; duplicate heights are rejected."""
        if block.height in self:
            raise CollectionError(f"block {block.height} already stored")
        if self.chain_value is None:
            self.chain_value = block.chain.value
        self._missing.discard(block.height)
        self._pending.append(block)
        self._pending_heights.add(block.height)
        self._block_count += 1
        self._transaction_count += block.transaction_count
        self._action_count += block.action_count

    def flush(self) -> int:
        """Append the buffered blocks' rows to the store, oldest first.

        Returns the number of rows appended.  The store's own chunking
        decides durability boundaries; a final ``store.flush()`` commits the
        tail chunk so a completed crawl window is always durable.
        """
        if not self._pending:
            return 0
        self._pending.sort(key=lambda block: block.height)
        appended = 0
        for block in self._pending:
            # Stage whole blocks and only commit *between* them: a chunk
            # boundary mid-block would put the block's height inside the
            # durable watermark while its tail rows die with the process,
            # and the resumed crawl would skip the block entirely.
            self.store.stage_records(block.transactions)
            appended += len(block.transactions)
            if self.store.staged_rows >= self.store.chunk_rows:
                self.store.flush()
        self._heights.update(self._pending_heights)
        self._pending = []
        self._pending_heights = set()
        self.store.flush()
        return appended

    def __contains__(self, height: int) -> bool:
        if height in self._pending_heights or height in self._heights:
            return True
        if height in self._missing or self.chain_value is None:
            return False
        bounds = self.store.height_bounds(self.chain_value)
        return bounds is not None and bounds[0] <= height <= bounds[1]

    @property
    def missing_heights(self):
        """Declared holes inside the committed range still awaiting a fetch."""
        return frozenset(self._missing)

    @property
    def block_count(self) -> int:
        return self._block_count

    @property
    def transaction_count(self) -> int:
        return self._transaction_count

    @property
    def action_count(self) -> int:
        return self._action_count
