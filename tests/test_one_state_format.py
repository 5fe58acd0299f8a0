"""Persisted accumulator state has one framing: the state-cache entry.

``checkpoint.snap`` is written by ``statecache.encode_entry`` and read by
``statecache.decode_body`` — the pipeline has no snapshot format, version
knob, per-chain blob or second decoder of its own.  This walks the sources
so one cannot creep back.
"""

from __future__ import annotations

import ast
import glob
import os

from tests.support import SRC

GONE = (
    "CHECKPOINT_VERSION",
    "SNAPSHOT_FORMAT",
    "carry_chain",
    "chains_carried",
    "restore_payloads",
    "checkpoint.decode",
    "checkpoint_chain_corrupt",
)


def _imported_names(module: str) -> set:
    path = os.path.join(SRC, "repro", "pipeline", module)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
            names.update(alias.name for alias in node.names)
    return names


def test_the_checkpoint_has_no_codec_or_checksum_of_its_own():
    assert not {"zlib", "statecodec"} & _imported_names("checkpoint.py")
    # fsck keeps zlib for chunk checksums; it decodes no state itself.
    assert "statecodec" not in _imported_names("fsck.py")
    assert {"decode_snapshot", "decode_entry"} <= _imported_names("fsck.py")


def test_no_source_names_the_private_snapshot_format():
    hits = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        hits.extend((os.path.relpath(path, SRC), name) for name in GONE if name in text)
    assert hits == []
