"""Store/pipeline consistency checking and repair (the ``fsck`` doctor).

The durability story so far is *reactive*: :meth:`FrameStore.open`
truncates at the first torn chunk, checkpoint loads degrade to rescans,
the pipeline re-anchors crawl meta after cleanups.  This module is the
*proactive* side — walk everything a pipeline directory persists, verify
it byte-for-byte, and report exactly what is damaged:

* the frame-store manifest (present wherever chunk files are, readable,
  the one supported version, no crashed partial assembly);
* every committed chunk (file present, size matches the committed byte
  count, blob decodes — magic + adler32 — and the decoded row count matches
  the manifest); a chunk of a newer binary format version, or a legacy
  (v1 / v2) archive chunk that only ``repro migrate-store`` reads, is
  ``chunk_version``, left in place like an unsupported manifest;
* every kept chunk's manifest entry carries the keys
  :meth:`FrameStore.open` requires (``manifest_entry_incomplete``; an
  entry without ``rows``, ``file`` or ``compressed_bytes`` leaves its chunk
  unverifiable, and a repair drops it like a corrupt chunk);
* uncommitted chunk files on disk that the manifest never references;
* every chunk-state cache entry and the checkpoint snapshot: intact state
  entries (magic, adler32, shape) whose key is in the key chain
  (:meth:`FrameStore.prefix`) of the store as the walk leaves it, which
  the chunk walk links from the blobs it reads; any other key is *stale*.
  Keys are not judged where the chain cannot be derived (a chunk left
  missing, damaged or legacy);
* the ``meta.json`` beside the store: a pipeline's, or a dataset cache's in
  a bare store directory.

Every document is judged by the reader the commands use
(:func:`~repro.collection.store.read_manifest` and its entry checks,
:func:`~repro.pipeline.core.read_pipeline_meta`,
:func:`~repro.cli.dataset.read_cache_meta`), so fsck calls a document
damaged exactly when a command would refuse it.

With ``repair=True`` the doctor makes the surviving data usable instead of
abandoning the whole store:

* corrupt/torn committed chunks are moved into a ``quarantine/``
  sub-directory (outside the store's chunk globs, so nothing ever deletes
  the evidence) and their manifest entries dropped.  Chunk payloads are
  self-contained, but a *dropped* chunk invalidates the recorded pool
  deltas of every later chunk (deltas are relative to the running pools),
  so the walk recomputes each kept chunk's deltas from the payload it
  decodes (:func:`~repro.collection.store.absorb_pool_deltas`, the store's
  own rule) and the rewritten manifest is complete.  The same walk fills in
  kept entries that lack their deltas.  A kept chunk the walk cannot decode
  (``chunk_version``) after a dropped one keeps an incomplete entry, which
  :meth:`FrameStore.open` refuses by name.  The rows lost this way are
  reported per chain — explicit degraded-rows accounting instead of an
  all-or-nothing rescan;
* unusable or stale checkpoints and cache entries are quarantined too
  (what no key covers is rescanned, which is always correct);
* uncommitted chunk files are quarantined rather than deleted; chunk
  files with no manifest at all (``manifest_missing``) are quarantined
  and an empty manifest is committed.

The repaired store must satisfy ``FrameStore.open`` + ``full_report``; the
fsck test suite gates exactly that.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.statecache import ENTRY_FORMAT, ENTRY_MODE, decode_entry, parse_entry_name
from repro.cli.dataset import read_cache_meta
from repro.collection import chunkformat
from repro.collection.store import (
    CHAIN_ROOT,
    MANIFEST_NAME,
    POOL_NAMES,
    STATE_CACHE_DIR,
    FrameStore,
    _glob_chunk_files,
    absorb_pool_deltas,
    chain_link,
    defect_text,
    entry_defects,
    legacy_entry,
    read_manifest,
    resolve_store_dir,
)
from repro.common.durable import commit, read_bytes
from repro.common.errors import CollectionError
from repro.pipeline.checkpoint import CHECKPOINT_NAME, decode_snapshot
from repro.pipeline.core import PIPELINE_META_NAME, read_pipeline_meta

#: Sub-directory (inside the store directory) corrupt files move into.
#: Deliberately outside the ``frame-chunk-*`` glob patterns: neither
#: :meth:`FrameStore.open`'s stale-partial cleanup nor a later fsck walk
#: will ever touch a quarantined file.
QUARANTINE_DIR = "quarantine"
#: The manifest-entry keys a chunk is verified against.
_VERIFY_KEYS = ("rows", "file", "compressed_bytes")

#: The key chain of the store as a walk leaves it: ``prefix(i + 1)`` per kept
#: chunk i (see :meth:`FrameStore.prefix`), or ``None`` where it cannot be
#: derived.
Chain = Optional[List[str]]


@dataclass
class FsckIssue:
    """One verified inconsistency found by the walk."""

    #: Machine-readable kind: ``manifest_missing``, ``manifest_unreadable``,
    #: ``manifest_version``, ``partial_assembly``, ``chunk_missing``,
    #: ``chunk_size_mismatch``, ``chunk_corrupt``, ``chunk_version``,
    #: ``manifest_entry_incomplete``,
    #: ``chunk_uncommitted``, ``checkpoint_unreadable``, ``checkpoint_stale``,
    #: ``meta_unreadable``, ``cache_entry_corrupt``, ``cache_entry_stale``,
    #: ``cache_entry_orphaned``.
    kind: str
    detail: str
    path: Optional[str] = None
    #: Rows this issue costs per chain value if the damaged data is dropped.
    chain_rows: Dict[str, int] = field(default_factory=dict)
    #: What repair did: ``quarantined``, ``completed`` (a manifest entry
    #: filled in) or ``""`` (not repaired / no action).
    repair: str = ""


@dataclass
class FsckReport:
    """Everything one fsck walk found (and, with repair, did)."""

    root: str
    store_dir: str
    chunks_checked: int = 0
    chunks_ok: int = 0
    checkpoint_checked: bool = False
    cache_entries_checked: int = 0
    cache_entries_ok: int = 0
    issues: List[FsckIssue] = field(default_factory=list)
    #: Per-chain rows lost to quarantined chunks (empty without repair).
    degraded_rows: Dict[str, int] = field(default_factory=dict)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.issues

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "clean": self.clean}


def _entry_chain_rows(entry: Dict, defects: List[str]) -> Dict[str, int]:
    """Per-chain row accounting for one manifest entry (an entry damaged
    down to its row count attributes every row to ``unknown``)."""
    if "chain_rows" not in defects and entry["chain_rows"]:
        return dict(entry["chain_rows"])
    return {"unknown": entry["rows"] if "rows" not in defects else 0}


def _quarantine(store_dir: str, path: str) -> str:
    """Move ``path`` into the store's quarantine directory; returns the target."""
    quarantine = os.path.join(store_dir, QUARANTINE_DIR)
    os.makedirs(quarantine, exist_ok=True)
    target = os.path.join(quarantine, os.path.basename(path))
    if os.path.exists(target):  # a repeated fsck of the same damage
        base, extension = os.path.basename(path), 1
        while os.path.exists(target):
            target = os.path.join(quarantine, f"{base}.{extension}")
            extension += 1
    shutil.move(path, target)
    return target


def _check_uncommitted(report: FsckReport, repair: bool, committed_files: Set[str]) -> None:
    """Report (and under repair quarantine) chunk files no manifest commits.

    A crash between a chunk write and the manifest rename leaves one:
    :meth:`FrameStore.open` would delete it, fsck preserves it instead.
    """
    for path in _glob_chunk_files(report.store_dir):
        if os.path.basename(path) in committed_files:
            continue
        issue = FsckIssue(
            kind="chunk_uncommitted",
            detail=f"chunk file {os.path.basename(path)!r} was never "
            "committed by the manifest (crash leftover)",
            path=path,
        )
        report.issues.append(issue)
        if repair:
            issue.path = _quarantine(report.store_dir, path)
            issue.repair = "quarantined"


def _check_chunks(report: FsckReport, repair: bool) -> Chain:
    """Verify the manifest and every committed chunk; repair by quarantine.

    Returns the key chain of the store as the walk leaves it, linked from
    the blobs it reads; ``None`` when the manifest cannot be walked or a
    damaged chunk stays (its state is the damage already reported).
    """
    store_dir = report.store_dir
    manifest_path = os.path.join(store_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        if _glob_chunk_files(store_dir):
            issue = FsckIssue(
                kind="manifest_missing",
                detail="chunk files present but no manifest commits them "
                "(not a store this program wrote)",
                path=manifest_path,
            )
            report.issues.append(issue)
            # Quarantine first: an empty manifest beside the files would
            # let the next open() delete them.
            _check_uncommitted(report, repair, set())
            if repair:
                FrameStore(directory=store_dir)._write_manifest()
                issue.repair = "completed"
                return []
        return None
    try:
        manifest = read_manifest(manifest_path, entries=False)
    except CollectionError as error:
        report.issues.append(FsckIssue(kind=error.kind, detail=str(error), path=manifest_path))
        return None

    kept_entries: List[Dict] = []
    committed_files: Set[str] = set()
    links: Chain = []
    dropped_from: Optional[int] = None
    completed = False
    # The running string pools over the kept chunks, as the store builds
    # them; ``None`` once a kept chunk's deltas can be neither decoded nor
    # trusted, after which later deltas cannot be recomputed.
    pools: Optional[Dict[str, Dict[str, None]]] = {name: {} for name in POOL_NAMES}
    for index, entry in enumerate(manifest["chunks"]):
        report.chunks_checked += 1
        defects = entry_defects(entry)
        if not isinstance(entry, dict):
            entry = {}
        unverifiable = [key for key in _VERIFY_KEYS if key in defects]
        path = None if "file" in defects else os.path.join(store_dir, entry["file"])
        if path is not None:
            committed_files.add(entry["file"])
        chain_rows = _entry_chain_rows(entry, defects)
        issue: Optional[FsckIssue] = None
        blob: Optional[bytes] = None
        payload: Optional[Dict] = None
        if unverifiable:
            # Nothing to check the chunk against: damage like a corrupt
            # chunk, dropped (and its file quarantined) by a repair.
            issue = FsckIssue(
                kind="manifest_entry_incomplete",
                detail=f"chunk {index}'s manifest entry {defect_text(entry, unverifiable)}, "
                "so its chunk cannot be verified",
                path=path,
                chain_rows=chain_rows,
            )
        elif not os.path.exists(path):
            issue = FsckIssue(
                kind="chunk_missing",
                detail=f"chunk {index} file {entry['file']!r} is gone",
                path=path,
                chain_rows=chain_rows,
            )
        elif os.path.getsize(path) != entry["compressed_bytes"]:
            issue = FsckIssue(
                kind="chunk_size_mismatch",
                detail=(
                    f"chunk {index} is {os.path.getsize(path)} bytes on disk, "
                    f"manifest committed {entry['compressed_bytes']} (torn write)"
                ),
                path=path,
                chain_rows=chain_rows,
            )
        elif legacy_entry(entry):
            issue = FsckIssue(
                kind="chunk_version",
                detail=f"chunk {index} ({entry['file']!r}) is a legacy archive chunk, "
                "which only `repro migrate-store` reads (left in place)",
                path=path,
                chain_rows=chain_rows,
            )
        else:
            try:
                with open(path, "rb") as handle:
                    blob = handle.read()
                version = chunkformat.chunk_version(blob)
                if version is not None and version not in chunkformat.VERSIONS:
                    issue = FsckIssue(
                        kind="chunk_version",
                        detail=f"chunk {index} is in format version {version}, "
                        "which this version does not read (left in place)",
                        path=path,
                        chain_rows=chain_rows,
                    )
                else:
                    payload = chunkformat.decode_chunk(blob)
                    decoded_rows = len(payload["transaction_id"])
                    if decoded_rows != entry["rows"]:
                        raise CollectionError(
                            f"decoded {decoded_rows} rows, manifest committed "
                            f"{entry['rows']}"
                        )
            except Exception as error:
                issue = FsckIssue(
                    kind="chunk_corrupt",
                    detail=f"chunk {index} does not verify: {error}",
                    path=path,
                    chain_rows=chain_rows,
                )
        if issue is None:
            report.chunks_ok += 1
        else:
            report.issues.append(issue)
        # A newer writer's or a legacy archive's chunk is not damage: it is
        # kept like a good one, as a manifest of an unsupported version is.
        if issue is None or issue.kind == "chunk_version":
            if blob is None:
                # A legacy chunk is never read, so no key past it is judged.
                links = None
            elif links is not None:
                prefix = links[-1] if links else CHAIN_ROOT
                links.append(chain_link(prefix, blob, entry["compressed_bytes"]))
            # Recorded pool deltas are relative to the running pools, so a
            # dropped earlier chunk invalidates them; the walk recomputes
            # them from the payload, as the store's writer did.
            stale = dropped_from is not None or "pools" in defects
            deltas = None
            if pools is not None and payload is not None:
                deltas = absorb_pool_deltas(pools, payload["pools"])
            elif pools is not None and not stale:
                absorb_pool_deltas(pools, entry["pools"])
            else:
                pools = None
            described = defect_text(entry, defects)
            if repair and stale:
                entry = {key: value for key, value in entry.items() if key != "pools"}
                if deltas is not None:
                    entry["pools"] = deltas
                completed = True
            if defects:
                incomplete = FsckIssue(
                    kind="manifest_entry_incomplete",
                    detail=f"chunk {index}'s manifest entry {described} "
                    "(the store refuses to open)",
                    path=path,
                )
                if repair and not entry_defects(entry):
                    incomplete.repair = "completed"
                report.issues.append(incomplete)
            kept_entries.append(entry)
            continue
        if repair:
            if issue.path is not None and os.path.exists(issue.path):
                issue.path = _quarantine(store_dir, issue.path)
            issue.repair = "quarantined"
            if dropped_from is None:
                dropped_from = index
            for chain, rows in issue.chain_rows.items():
                report.degraded_rows[chain] = (
                    report.degraded_rows.get(chain, 0) + rows
                )
        else:
            kept_entries.append(entry)
            links = None

    _check_uncommitted(report, repair, committed_files)

    if dropped_from is not None or completed:
        # Kept entries may be incomplete (a kept chunk_version chunk after a
        # dropped one), which only this rewrite, not the store's, carries.
        manifest["chunks"] = kept_entries
        manifest["row_count"] = sum(entry["rows"] for entry in kept_entries)
        commit(manifest_path, json.dumps(manifest).encode("utf-8"))
    return links


def _check_checkpoint(report: FsckReport, root: str, repair: bool, links: Chain) -> None:
    """Verify the checkpoint snapshot decodes and is keyed to a prefix of
    the store as the walk leaves it (``links``; unjudged when ``None``)."""
    path = os.path.join(root, CHECKPOINT_NAME)
    if not os.path.exists(path):
        return
    report.checkpoint_checked = True
    issue: Optional[FsckIssue] = None
    checkpoint = decode_snapshot(read_bytes(path))
    if checkpoint is None:
        issue = FsckIssue(
            kind="checkpoint_unreadable",
            detail="checkpoint snapshot is not an intact state entry (bad magic, "
            "checksum or shape; the next update would rescan every chain)",
            path=path,
        )
    elif links is not None and checkpoint.prefix not in {CHAIN_ROOT, *links}:
        issue = FsckIssue(
            kind="checkpoint_stale",
            detail=(
                f"checkpoint key {checkpoint.prefix!r} is no prefix key of the "
                "store (the next update folds from chunk zero)"
            ),
            path=path,
        )
    if issue is None:
        return
    report.issues.append(issue)
    if repair:
        issue.path = _quarantine(report.store_dir, path)
        issue.repair = "quarantined"


def _check_state_cache(report: FsckReport, repair: bool, links: Chain) -> None:
    """Verify every chunk-state cache entry against the store's key chain.

    An entry is *stale* when its key is not in ``links`` (unjudged when
    ``None``) or its mode token is not
    :data:`~repro.analysis.statecache.ENTRY_MODE`, *corrupt* when its blob
    fails the entry checksum or decode, and *orphaned* when the file in
    ``cache/`` is not a recognisable entry at all (a crashed write's
    ``.tmp``).  None of these can ever corrupt a figure — the cache's keying
    and checksums degrade them all to misses — but they are dead weight and
    evidence of damage, so fsck reports them and repair quarantines them
    like any other damaged file.
    """
    cache_dir = os.path.join(report.store_dir, STATE_CACHE_DIR)
    if not os.path.isdir(cache_dir):
        return
    keys = None if links is None else {(prefix, ENTRY_FORMAT) for prefix in links}
    for name in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, name)
        if not os.path.isfile(path):
            continue
        report.cache_entries_checked += 1
        key = parse_entry_name(name)
        issue: Optional[FsckIssue] = None
        if key is None:
            issue = FsckIssue(
                kind="cache_entry_orphaned",
                detail=(
                    f"cache file {name!r} is not a recognisable chunk-state "
                    "entry (crashed write leftover?)"
                ),
                path=path,
            )
        else:
            if decode_entry(read_bytes(path)) is None:
                issue = FsckIssue(
                    kind="cache_entry_corrupt",
                    detail=(
                        f"cache entry {name!r} fails its checksum or does "
                        "not decode (reads degrade to a chunk rescan)"
                    ),
                    path=path,
                )
            elif key.mode != ENTRY_MODE or (
                keys is not None and (key.prefix, key.chunk_format) not in keys
            ):
                issue = FsckIssue(
                    kind="cache_entry_stale",
                    detail=(
                        f"cache entry {name!r} is keyed to {key.prefix} / "
                        f"{key.mode!r} / {key.chunk_format}, which is no key of "
                        "the store's chunks (the entry can never hit)"
                    ),
                    path=path,
                )
        if issue is None:
            report.cache_entries_ok += 1
            continue
        report.issues.append(issue)
        if repair:
            issue.path = _quarantine(report.store_dir, path)
            issue.repair = "quarantined"


def _check_meta(report: FsckReport, root: str) -> None:
    """Judge ``meta.json`` with its command's reader: a dataset cache's in a
    bare store directory, a pipeline's beside ``frames/``."""
    path = os.path.join(root, PIPELINE_META_NAME)
    if not os.path.exists(path):
        return
    reader = read_cache_meta if report.store_dir == root else read_pipeline_meta
    try:
        reader(path)
    except CollectionError as error:
        report.issues.append(FsckIssue(kind=error.kind, detail=str(error), path=path))


def run_fsck(root: str, repair: bool = False) -> FsckReport:
    """Walk and verify everything under ``root``; optionally repair it.

    ``root`` may be a bare :class:`~repro.collection.store.FrameStore`
    directory or a pipeline ``--data`` directory (store nested under
    ``frames/``, checkpoint and meta at the top).  Verification never
    mutates anything; ``repair=True`` quarantines damaged chunk files and
    unusable checkpoints as documented in the module docstring and rewrites
    the manifest to cover exactly the surviving chunks.
    """
    if not os.path.isdir(root):
        raise CollectionError(f"{root!r} is not a directory")
    store_dir = resolve_store_dir(root)
    report = FsckReport(root=root, store_dir=store_dir, repaired=repair)
    # After the chunk pass: state keyed to a chunk it quarantined, or to
    # any chunk after one, is stale in this same walk.
    links = _check_chunks(report, repair)
    _check_state_cache(report, repair, links)
    _check_checkpoint(report, root, repair, links)
    _check_meta(report, root)
    return report
