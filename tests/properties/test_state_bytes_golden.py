"""Golden accumulator state: no payload, key or signature moves.

The digests below were recorded from the commit *before* the exact-vs-sketch
choice moved out of the accumulators into ``repro.analysis.containers`` and
committed ahead of any ``src/`` edit, so this test proves identity with that
commit rather than re-pinning whatever the code does today.  A state-cache
entry's *name* carries the chunk digest, the digest of every accumulator's
``config_signature()`` and the stats mode; its *bytes* are the encoded
``export_state()`` payloads of the whole ``full_report`` accumulator set.
Pinning both per mode is what shows that a cache written by either commit is
a hit on the other.

Same hash-pinned child as ``tests/collection/test_generation_golden.py``:
``pack_strings(set)`` writes the transaction ids in set order, which depends
on the hash seed.
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys

import pytest

from tests.collection.test_generation_golden import GOLDEN_REPORT_SHA256, build

GOLDEN = {
    "exact": {
        "report": GOLDEN_REPORT_SHA256,
        "states": "464cddda32acecfaffb942e578a44b1f9b44411202f2839c395c0ab744df0851",
    },
    "sketch": {
        "report": "85150552907e751565834a6d2e9935887d14359d5ada80d47c10a4c0af1a537c",
        # Re-pinned once, by the refactor itself (the parent commit wrote
        # 36618191…7ad31ee): the sketch-mode ``top_senders`` / ``top_receivers``
        # summaries list the same (key, count, error) rows in first-seen
        # order instead of the dense histogram's packed-key order, because
        # the bounded container no longer takes the dense kernel.  Entry
        # names, every other payload and the report did not move; restore
        # and finalize are order-independent there.
        "states": "a74533cde80cd7b4675076983798bc732b7f6e83c1e4918708a42d60e3469b5e",
    },
}


def state_cache_digest(store_dir: str, mode: str) -> str:
    """sha-256 over the sorted ``mode`` entry names and their bytes."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(store_dir, "cache", f"state-*-{mode}-*")))
    assert paths, f"no {mode} state-cache entries in {store_dir}"
    for path in paths:
        digest.update(os.path.basename(path).encode("ascii"))
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="digests were recorded under CPython 3.11 (see test_generation_golden)",
)
def test_live_tail_state_cache_and_reports_match_the_pinned_digests(tmp_path):
    # One dataset cache serves both modes: entries are keyed by mode.
    for mode, golden in GOLDEN.items():
        report = build(str(tmp_path), extra=("--out-of-core", "--stats", mode))
        assert hashlib.sha256(report).hexdigest() == golden["report"], mode
        store_dir = str(tmp_path / "live_tail-seed7")
        assert state_cache_digest(store_dir, mode) == golden["states"], mode
