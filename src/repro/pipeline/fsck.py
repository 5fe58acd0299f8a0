"""Store/pipeline consistency checking and repair (the ``fsck`` doctor).

The durability story so far is *reactive*: :meth:`FrameStore.open`
truncates at the first torn chunk, checkpoint loads degrade to rescans,
the pipeline re-anchors crawl meta after cleanups.  This module is the
*proactive* side — walk everything a pipeline directory persists, verify
it byte-for-byte, and report exactly what is damaged:

* the frame-store manifest (present wherever chunk files are, readable,
  the one supported version, no crashed partial assembly);
* every committed chunk (file present, size matches the committed byte
  count, blob decodes — v2/v3 magic + adler32, v1 gzip/JSON — and the
  decoded row count matches the manifest); a chunk of a newer binary format
  version is ``chunk_version``, left in place like an unsupported manifest;
* every kept chunk's manifest entry carries the keys
  :meth:`FrameStore.open` requires (``manifest_entry_incomplete``; an
  entry without ``rows``, ``file`` or ``compressed_bytes`` leaves its chunk
  unverifiable, and a repair drops it like a corrupt chunk);
* uncommitted chunk files on disk that the manifest never references;
* the checkpoint snapshot (an intact state entry — magic, adler32, shape —
  whose watermark is within the store's committed rows);
* the pipeline meta file (readable JSON).

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
* an unusable or stale checkpoint snapshot is quarantined too (the next
  update falls back to a full rescan, which is always correct);
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
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.statecache import ENTRY_MODE, decode_entry, parse_entry_name
from repro.analysis.value import decode_analysis_config
from repro.collection import chunkformat
from repro.collection.store import (
    MANIFEST_ENTRY_KEYS,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    POOL_NAMES,
    STATE_CACHE_DIR,
    FrameStore,
    _decode_chunk_blob,
    _glob_chunk_files,
    absorb_pool_deltas,
    resolve_store_dir,
)
from repro.common.errors import CollectionError
from repro.pipeline.checkpoint import CHECKPOINT_NAME, decode_snapshot
from repro.pipeline.core import PIPELINE_META_NAME

#: Sub-directory (inside the store directory) corrupt files move into.
#: Deliberately outside the ``frame-chunk-*`` glob patterns: neither
#: :meth:`FrameStore.open`'s stale-partial cleanup nor a later fsck walk
#: will ever touch a quarantined file.
QUARANTINE_DIR = "quarantine"
#: The manifest-entry keys a chunk is verified against.
_VERIFY_KEYS = ("rows", "file", "compressed_bytes")


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

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "path": self.path,
            "chain_rows": dict(self.chain_rows),
            "repair": self.repair,
        }


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
        return {
            "root": self.root,
            "store_dir": self.store_dir,
            "clean": self.clean,
            "chunks_checked": self.chunks_checked,
            "chunks_ok": self.chunks_ok,
            "checkpoint_checked": self.checkpoint_checked,
            "cache_entries_checked": self.cache_entries_checked,
            "cache_entries_ok": self.cache_entries_ok,
            "issues": [issue.to_dict() for issue in self.issues],
            "degraded_rows": dict(self.degraded_rows),
            "repaired": self.repaired,
        }


def _entry_chain_rows(entry: Dict) -> Dict[str, int]:
    """Per-chain row accounting for one manifest entry (an entry damaged
    down to its row count attributes every row to ``unknown``)."""
    chain_rows = entry.get("chain_rows")
    if chain_rows:
        return {chain: int(count) for chain, count in chain_rows.items()}
    return {"unknown": int(entry.get("rows", 0))}


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


def _check_chunks(report: FsckReport, repair: bool) -> Tuple[Set[str], Optional[int]]:
    """Verify the manifest and every committed chunk; repair by quarantine.

    Returns the paths of the chunks a repair kept *after* one it dropped
    (their string codes moved, so their cache entries are stale) and the
    first row of the first chunk it dropped, counted in the manifest as it
    was before the repair (``None`` when nothing was dropped).
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
        return set(), None
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict) or not isinstance(
            manifest.get("chunks"), list
        ):
            raise ValueError("manifest is not a chunk-list mapping")
    except (OSError, ValueError, RecursionError) as error:
        report.issues.append(
            FsckIssue(
                kind="manifest_unreadable",
                detail=f"manifest does not parse: {error}",
                path=manifest_path,
            )
        )
        return set(), None
    if manifest.get("version") != MANIFEST_VERSION:
        report.issues.append(
            FsckIssue(
                kind="manifest_version",
                detail=f"unsupported manifest version {manifest.get('version')!r}",
                path=manifest_path,
            )
        )
        return set(), None
    if manifest.get("assembling"):
        report.issues.append(
            FsckIssue(
                kind="partial_assembly",
                detail="manifest is an assembly placeholder: the store is a "
                "crashed partial assembly and must be re-assembled",
                path=manifest_path,
            )
        )
        return set(), None

    kept_entries: List[Dict] = []
    recoded: Set[str] = set()
    dropped_from: Optional[int] = None
    completed = False
    # The running string pools over the kept chunks, as the store builds
    # them; ``None`` once a kept chunk's deltas can be neither decoded nor
    # trusted, after which later deltas cannot be recomputed.
    pools: Optional[Dict[str, Dict[str, None]]] = {name: {} for name in POOL_NAMES}
    start_row = 0
    for index, entry in enumerate(manifest["chunks"]):
        if not isinstance(entry, dict):
            entry = {}
        report.chunks_checked += 1
        unverifiable = [key for key in _VERIFY_KEYS if key not in entry]
        chunk_start, start_row = start_row, start_row + int(entry.get("rows", 0))
        path = os.path.join(store_dir, str(entry.get("file", "")))
        issue: Optional[FsckIssue] = None
        payload: Optional[Dict] = None
        if unverifiable:
            # Nothing to check the chunk against: damage like a corrupt
            # chunk, dropped (and its file quarantined) by a repair.
            issue = FsckIssue(
                kind="manifest_entry_incomplete",
                detail=f"chunk {index}'s manifest entry lacks "
                f"{', '.join(unverifiable)}, so its chunk cannot be verified",
                path=path if "file" in entry else None,
                chain_rows=_entry_chain_rows(entry),
            )
        elif not os.path.exists(path):
            issue = FsckIssue(
                kind="chunk_missing",
                detail=f"chunk {index} file {entry['file']!r} is gone",
                path=path,
                chain_rows=_entry_chain_rows(entry),
            )
        elif os.path.getsize(path) != int(entry["compressed_bytes"]):
            issue = FsckIssue(
                kind="chunk_size_mismatch",
                detail=(
                    f"chunk {index} is {os.path.getsize(path)} bytes on disk, "
                    f"manifest committed {entry['compressed_bytes']} (torn write)"
                ),
                path=path,
                chain_rows=_entry_chain_rows(entry),
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
                        chain_rows=_entry_chain_rows(entry),
                    )
                else:
                    payload = _decode_chunk_blob(blob, index)
                    decoded_rows = len(payload["transaction_id"])
                    if decoded_rows != int(entry["rows"]):
                        raise CollectionError(
                            f"decoded {decoded_rows} rows, manifest committed "
                            f"{entry['rows']}"
                        )
            except Exception as error:
                issue = FsckIssue(
                    kind="chunk_corrupt",
                    detail=f"chunk {index} does not verify: {error}",
                    path=path,
                    chain_rows=_entry_chain_rows(entry),
                )
        if issue is None:
            report.chunks_ok += 1
        else:
            report.issues.append(issue)
        # A newer writer's chunk is not damage: it is kept like a good one,
        # as a manifest of an unsupported version is.
        if issue is None or issue.kind == "chunk_version":
            # Recorded pool deltas are relative to the running pools, so a
            # dropped earlier chunk invalidates them; the walk recomputes
            # them from the payload, as the store's writer did.
            stale = dropped_from is not None or "pools" not in entry
            deltas = None
            if pools is not None and payload is not None:
                deltas = absorb_pool_deltas(pools, payload["pools"])
            elif pools is not None and not stale:
                absorb_pool_deltas(pools, entry["pools"])
            else:
                pools = None
            missing = [key for key in MANIFEST_ENTRY_KEYS if key not in entry]
            if repair and stale:
                entry = {key: value for key, value in entry.items() if key != "pools"}
                if deltas is not None:
                    entry["pools"] = deltas
                completed = True
                if dropped_from is not None:
                    recoded.add(path)
            if missing:
                incomplete = FsckIssue(
                    kind="manifest_entry_incomplete",
                    detail=f"chunk {index}'s manifest entry lacks {', '.join(missing)} "
                    "(the store refuses to open)",
                    path=path,
                )
                if repair and all(key in entry for key in MANIFEST_ENTRY_KEYS):
                    incomplete.repair = "completed"
                report.issues.append(incomplete)
            kept_entries.append(entry)
            continue
        if repair:
            if issue.path is not None and os.path.exists(issue.path):
                issue.path = _quarantine(store_dir, issue.path)
            issue.repair = "quarantined"
            if dropped_from is None:
                dropped_from = chunk_start
            for chain, rows in issue.chain_rows.items():
                report.degraded_rows[chain] = (
                    report.degraded_rows.get(chain, 0) + rows
                )
        else:
            kept_entries.append(entry)

    _check_uncommitted(
        report,
        repair,
        {entry["file"] for entry in manifest["chunks"] if isinstance(entry, dict) and "file" in entry},
    )

    if dropped_from is not None or completed:
        manifest["chunks"] = kept_entries
        manifest["row_count"] = sum(int(entry["rows"]) for entry in kept_entries)
        temp_path = manifest_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.replace(temp_path, manifest_path)
    return recoded, dropped_from


def _committed_rows(store_dir: str) -> Optional[int]:
    """The manifest's committed row count, or ``None`` when unavailable."""
    manifest_path = os.path.join(store_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        return sum(int(entry["rows"]) for entry in manifest["chunks"])
    except Exception:
        return None


def _check_checkpoint(
    report: FsckReport, root: str, repair: bool, dropped_from: Optional[int]
) -> None:
    """Verify the checkpoint snapshot decodes and its watermark is in range.

    ``dropped_from`` is the first row of the first chunk this walk's repair
    dropped.  A checkpoint whose watermark lies past it folds states that
    count the dropped rows; with equal-sized chunks its watermark usually
    still lands on a chunk boundary inside the shrunk store, so the range
    check alone would keep it.
    """
    path = os.path.join(root, CHECKPOINT_NAME)
    if not os.path.exists(path):
        return
    report.checkpoint_checked = True
    issue: Optional[FsckIssue] = None
    try:
        with open(path, "rb") as handle:
            checkpoint = decode_snapshot(handle.read())
    except OSError:
        checkpoint = None
    committed = _committed_rows(report.store_dir)
    if checkpoint is None:
        issue = FsckIssue(
            kind="checkpoint_unreadable",
            detail="checkpoint snapshot is not an intact state entry (bad magic, "
            "checksum or shape; the next update would rescan every chain)",
            path=path,
        )
    elif committed is not None and checkpoint.watermark_rows > committed:
        issue = FsckIssue(
            kind="checkpoint_stale",
            detail=(
                f"checkpoint watermark {checkpoint.watermark_rows} exceeds the "
                f"store's {committed} committed rows (store shrank underneath it)"
            ),
            path=path,
        )
    elif dropped_from is not None and dropped_from < checkpoint.watermark_rows:
        issue = FsckIssue(
            kind="checkpoint_stale",
            detail=(
                f"checkpoint watermark {checkpoint.watermark_rows} covers rows "
                f"from {dropped_from} on, which repair just dropped (its states "
                "count rows that are gone)"
            ),
            path=path,
        )
    if issue is None:
        return
    report.issues.append(issue)
    if repair:
        issue.path = _quarantine(report.store_dir, path)
        issue.repair = "quarantined"


def _checksum(path: str) -> str:
    with open(path, "rb") as handle:
        return f"{zlib.adler32(handle.read()) & 0xFFFFFFFF:08x}"


def _committed_chunk_checksums(store_dir: str) -> Optional[set]:
    """adler32 hex digests of every committed chunk's bytes, or ``None``.

    ``None`` means the manifest or a chunk file is unreadable — already
    reported by :func:`_check_chunks` — so cache staleness cannot be judged
    and only the corrupt/orphan checks apply.
    """
    manifest_path = os.path.join(store_dir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        return {_checksum(os.path.join(store_dir, entry["file"])) for entry in manifest["chunks"]}
    except Exception:
        return None


def _check_state_cache(report: FsckReport, repair: bool, recoded: Set[str]) -> None:
    """Verify every chunk-state cache entry against the committed chunks.

    An entry is *stale* when its keyed chunk checksum matches no committed
    chunk (the chunk was rewritten, quarantined, or regenerated) or its mode
    token is not :data:`~repro.analysis.statecache.ENTRY_MODE`, *corrupt*
    when its blob fails the entry checksum or decode, and *orphaned* when
    the file in ``cache/`` is not a recognisable entry at all (a crashed
    write's ``.tmp``).  None of these can ever corrupt a figure — the
    cache's keying and checksums degrade them all to misses — but they are
    dead weight and evidence of damage, so fsck reports them and repair
    quarantines them like any other damaged file.
    """
    cache_dir = os.path.join(report.store_dir, STATE_CACHE_DIR)
    if not os.path.isdir(cache_dir):
        return
    # A damaged chunk's entry is keyed to its undamaged bytes: the damage
    # already reported, not a second issue — until repair quarantines it.
    damaged = {"chunk_size_mismatch", "chunk_corrupt"} & {i.kind for i in report.issues}
    checksums = None if damaged and not repair else _committed_chunk_checksums(report.store_dir)
    moved = {_checksum(path) for path in recoded}
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
            try:
                with open(path, "rb") as handle:
                    states = decode_entry(handle.read())
            except OSError:
                states = None
            if states is None:
                issue = FsckIssue(
                    kind="cache_entry_corrupt",
                    detail=(
                        f"cache entry {name!r} fails its checksum or does "
                        "not decode (reads degrade to a chunk rescan)"
                    ),
                    path=path,
                )
            elif key.mode != ENTRY_MODE:
                issue = FsckIssue(
                    kind="cache_entry_stale",
                    detail=(
                        f"cache entry {name!r} is keyed to statistics mode "
                        f"{key.mode!r}, which nothing reads (the entry can "
                        "never hit)"
                    ),
                    path=path,
                )
            elif key.chunk_checksum in moved:
                issue = FsckIssue(
                    kind="cache_entry_stale",
                    detail=(
                        f"cache entry {name!r} holds string codes of a chunk "
                        "kept after a quarantined one (the codes moved)"
                    ),
                    path=path,
                )
            elif checksums is not None and key.chunk_checksum not in checksums:
                issue = FsckIssue(
                    kind="cache_entry_stale",
                    detail=(
                        f"cache entry {name!r} is keyed to chunk checksum "
                        f"{key.chunk_checksum} that no committed chunk "
                        "carries (superseded bytes; the entry can never hit)"
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
    path = os.path.join(root, PIPELINE_META_NAME)
    if not os.path.exists(path):
        return
    try:
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict):
            raise ValueError("meta is not a mapping")
        decode_analysis_config(meta)
    except (OSError, ValueError, RecursionError, CollectionError) as error:
        report.issues.append(
            FsckIssue(
                kind="meta_unreadable",
                detail=f"pipeline meta does not parse: {error}",
                path=path,
            )
        )


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
    recoded, dropped_from = _check_chunks(report, repair)
    # After the chunk pass: a chunk quarantined above turns its cache
    # entries, and those of every chunk after it, stale in this same walk.
    _check_state_cache(report, repair, recoded)
    _check_checkpoint(report, root, repair, dropped_from)
    _check_meta(report, root)
    return report
