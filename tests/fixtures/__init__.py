"""Checked-in on-disk fixtures (see ``README.md`` beside this file)."""

from __future__ import annotations

import json
import os
import shutil

from repro.collection import chunkformat
from repro.collection.store import MANIFEST_NAME
from repro.common.columns import TxFrame
from repro.common.compression import decompress_json

#: The read-only v1 (gzip-JSON) fixture store: 380 rows in three chunks.
V1_STORE = os.path.join(os.path.dirname(__file__), "store_v1")
V1_STORE_ROWS = 380
V1_STORE_CHUNKS = 3


def copy_v1_store(destination) -> str:
    """A private, writable copy of the v1 fixture store; returns its path."""
    return shutil.copytree(V1_STORE, str(destination))


#: The read-only v2 (binary, whole-metadata JSON) fixture store: 390 rows
#: (160 EOS, 100 Tezos, 130 XRP) in four chunks.
V2_STORE = os.path.join(os.path.dirname(__file__), "store_v2")
V2_STORE_ROWS = 390
V2_STORE_CHUNKS = 4


def copy_v2_store(destination) -> str:
    """A private, writable copy of the v2 fixture store; returns its path."""
    return shutil.copytree(V2_STORE, str(destination))


def legacy_frame(directory) -> TxFrame:
    """A legacy archive's rows as its writer stored them, decoded chunk by
    chunk with the two legacy decoders (v1 ``*.json.gz`` gzip-JSON, v2
    ``*.bin`` binary) and no :class:`~repro.collection.store.FrameStore`,
    which refuses to open a legacy archive."""
    with open(os.path.join(str(directory), MANIFEST_NAME), encoding="utf-8") as handle:
        entries = json.load(handle)["chunks"]
    frame = TxFrame()
    for entry in entries:
        with open(os.path.join(str(directory), entry["file"]), "rb") as handle:
            blob = handle.read()
        legacy_v1 = entry["file"].endswith(".json.gz")
        frame.extend_from_payload(decompress_json(blob) if legacy_v1 else chunkformat.decode_chunk(blob))
    return frame


#: A v3 store written before chunks dropped the metadata keys outside the
#: allow-list: 230 rows (90 EOS, 60 Tezos, 80 XRP) in two chunks whose
#: residue JSON holds every key.
V3_FULL_STORE = os.path.join(os.path.dirname(__file__), "store_v3_full")
V3_FULL_STORE_ROWS = 230
V3_FULL_STORE_CHUNKS = 2


def copy_v3_full_store(destination) -> str:
    """A private, writable copy of the full-residue v3 fixture store."""
    return shutil.copytree(V3_FULL_STORE, str(destination))


#: A pipeline directory whose checkpoint and chunk-state cache entries were
#: written by the last state-epoch-1 commit: 356 rows in two chunks.
STATE_EPOCH1 = os.path.join(os.path.dirname(__file__), "state_epoch1")
STATE_EPOCH1_ROWS = 356
STATE_EPOCH1_CHUNKS = 2


def copy_state_epoch1(destination) -> str:
    """A private, writable copy of the epoch-1 pipeline directory."""
    return shutil.copytree(STATE_EPOCH1, str(destination))
