"""``migrate-store`` and ``cache``: maintenance of one frame-store directory.

Both take a bare :class:`~repro.collection.store.FrameStore` directory or a
pipeline ``--data`` directory (whose store lives under ``frames/``).
"""

from __future__ import annotations

import argparse
import json
import os

from repro.analysis.statecache import ChunkStateCache
from repro.collection.store import CHUNK_FORMAT_V3, FrameStore, resolve_store_dir
from repro.common.errors import ReproError


def _store_dir(args: argparse.Namespace) -> str:
    if not os.path.isdir(args.directory):
        raise ReproError(f"{args.directory!r} is not a directory")
    return resolve_store_dir(args.directory)


def cmd_migrate_store(args: argparse.Namespace, out) -> int:
    """Rewrite a frame store's legacy-format chunks to the current format."""
    directory = _store_dir(args)
    migration = FrameStore.migrate_format(directory)
    if migration.chunks == 0:
        print(f"Nothing to migrate: {directory} has no committed chunks", file=out)
    elif migration.migrated == 0:
        print(
            f"Nothing to migrate: all {migration.chunks} chunk(s) "
            f"in {directory} are already {CHUNK_FORMAT_V3}",
            file=out,
        )
    else:
        print(
            f"Migrated {migration.migrated} of {migration.chunks} chunk(s) in "
            f"{directory} to {CHUNK_FORMAT_V3}; on-disk bytes "
            f"{migration.bytes_before:,} -> {migration.bytes_after:,}",
            file=out,
        )
    return 0


def cmd_cache(args: argparse.Namespace, out) -> int:
    """Inspect or clear a store's chunk-state aggregate cache."""
    cache = ChunkStateCache.for_store(_store_dir(args))
    if args.action == "clear":
        removed = cache.clear()
        print(
            f"Cleared {removed} chunk-state cache file(s) from {cache.directory}",
            file=out,
        )
        return 0
    stat = cache.stat()
    if args.json:
        print(json.dumps(stat, indent=2, sort_keys=True), file=out)
    else:
        other = (
            f", {stat['other_files']} unrecognised file(s)"
            if stat["other_files"]
            else ""
        )
        print(
            f"Chunk-state cache at {stat['directory']}: {stat['entries']} "
            f"entry(ies), {stat['bytes']:,} bytes{other}",
            file=out,
        )
    return 0
