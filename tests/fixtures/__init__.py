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
