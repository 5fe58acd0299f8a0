"""Checked-in on-disk fixtures (see ``README.md`` beside this file)."""

from __future__ import annotations

import os
import shutil

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


#: A pipeline directory whose checkpoint and chunk-state cache entries were
#: written by the last state-epoch-1 commit: 356 rows in two chunks.
STATE_EPOCH1 = os.path.join(os.path.dirname(__file__), "state_epoch1")
STATE_EPOCH1_ROWS = 356
STATE_EPOCH1_CHUNKS = 2


def copy_state_epoch1(destination) -> str:
    """A private, writable copy of the epoch-1 pipeline directory."""
    return shutil.copytree(STATE_EPOCH1, str(destination))
