"""How a persisted file is committed, and how a persisted JSON document is decoded.

Every file a store, a pipeline or a dataset cache rewrites in place goes
through :func:`commit`: the bytes go to a temp file, then one ``os.replace``
swaps it in, so a reader sees the previous file or the new one, never a torn
half.  Each JSON document (the store manifest, the pipeline meta, the
dataset-cache meta) has one reader, which starts from :func:`read_json` and
raises :class:`~repro.common.errors.CollectionError` whose ``kind`` names the
check that failed; the commands and ``fsck`` judge a document with that one
reader.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.common import faults
from repro.common.errors import CollectionError

def commit(
    path: str, data: bytes, point: Optional[str] = None, temp_path: Optional[str] = None
) -> None:
    """Replace ``path`` by ``data``: write ``temp_path`` (``<path>.tmp``), then rename.

    ``point`` is the faultpoint hit once per commit: a corrupt mode damages
    ``data`` before the write, and ``crash`` dies between the write and the
    rename, leaving the temp file and the previous ``path``.  An ``OSError``
    removes the temp file and propagates.  The write is a plain ``open``, so
    the file gets the umask-derived mode of the chunk files beside it.
    """
    action = None if point is None else faults.check(point)
    if action is not None and action.mode in faults.CORRUPT_MODES:
        data = action.corrupt(data)
    temp_path = temp_path or path + ".tmp"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(data)
        if action is not None and action.mode == faults.MODE_CRASH:
            raise faults.InjectedCrash(f"injected crash at {point}")
        os.replace(temp_path, path)
    except OSError:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise


def read_bytes(path: str, point: Optional[str] = None) -> bytes:
    """The bytes at ``path`` — ``b""`` when it cannot be read, which no state
    decoder accepts — damaged by ``point``'s fault when one fires."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return b""
    action = None if point is None else faults.check(point)
    return data if action is None else action.corrupt(data)


def read_json(path: str, what: str, kind: str) -> Dict:
    """The JSON object at ``path``, or a ``CollectionError`` of ``kind`` that
    names the document as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError, RecursionError) as error:
        raise CollectionError(f"{what} {path!r} is unreadable: {error}", kind) from error
    if not isinstance(document, dict):
        raise CollectionError(f"{what} {path!r} is not a JSON object", kind)
    return document
