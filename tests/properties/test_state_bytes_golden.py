"""Golden accumulator state: no payload, key or signature moves unnoticed.

A state-cache entry's *name* carries the store's key of the chunk and
every chunk before it (``FrameStore.prefix``), the digest of every
accumulator's ``config_signature()``, the constant ``exact`` token and the
chunk format; its *bytes* are the encoded ``export_state()`` payloads of the
whole ``full_report`` accumulator set behind the entry magic.  Pinning both
shows whether a cache written by one commit is a hit on the next.  The bytes
moved exactly once — state epoch 2, quoted below — together with
``ENTRY_MAGIC`` and ``CHECKPOINT_VERSION``, so the older entries are misses
rather than payloads of the wrong shape.  The names moved once since, when
stores began writing v3 chunks: new chunk bytes and the ``v3`` format token
give every entry a new name (one miss each), while the bytes stayed put —
:data:`GOLDEN_STATE_BYTES_SHA256`, over the bytes alone, was recorded from
the last v2-writing commit — once more when the chunk checksum in the
name gave way to the key chain, and once when each chunk began carrying
only the strings its rows use (new chunk bytes, so new keys), the bytes
unmoved both times.  The report
digests have never moved.

Same hash-pinned child as ``tests/collection/test_generation_golden.py``,
and for that test's reason only: generation forks its streams with
``hash((seed, label))``, so the account strings inside the payloads depend on
the hash seed.  The state encoding itself no longer does (epoch 1 wrote the
transaction ids in ``set`` order).
"""

from __future__ import annotations

import glob
import hashlib
import os
import sys

import pytest

from tests.collection.test_generation_golden import GOLDEN_REPORT_SHA256, build

#: State epoch 2 — re-pinned once, by the change itself (epoch 1:
#: 464cddda…44df0851, 938,921 B of entries; now 63,027 B): ``tx_stats``
#: carries ``runs`` / ``first_id`` / ``last_id`` instead of the packed id
#: set, states are exported before ``finalize`` (no labelled ``bins`` /
#: ``categories`` echo in ``throughput_series``, ``xrp_decomposition`` keeps
#: its histogram and only the two tallies the histogram cannot give), and
#: the entry magic is ``RCS\x02``.  Entry names and the report did not move
#: then; the v3 chunk format renamed the entries (was 4037bcd4…c22188d1a8aa),
#: and so did the key chain (was a237f7b1…50214fb7c2de1) and chunks that
#: carry only the strings their rows use (was 0f4ac8a3…be09cdd27; the
#: entries' bytes did not move).
GOLDEN_STATES_SHA256 = "02f048105f11c506d73be1f6079c3cf5ea7ab307514d305956e484efd01474eb"

#: The entries' bytes alone, in sorted order: what neither a chunk format nor
#: a chunk rewrite may move.
GOLDEN_STATE_BYTES_SHA256 = "5f478d5c2d7e59bb1fa8d78227dde74fb99d8a851a1e3e1ccc74c3969d8f9a17"


def _entries(store_dir: str):
    paths = sorted(glob.glob(os.path.join(store_dir, "cache", "state-*-exact-*")))
    assert paths, f"no state-cache entries in {store_dir}"
    for path in paths:
        with open(path, "rb") as handle:
            yield os.path.basename(path), handle.read()


def state_cache_digest(store_dir: str) -> str:
    """sha-256 over the sorted entry names and their bytes."""
    digest = hashlib.sha256()
    for name, blob in _entries(store_dir):
        digest.update(name.encode("ascii"))
        digest.update(blob)
    return digest.hexdigest()


def state_bytes_digest(store_dir: str) -> str:
    """sha-256 over the entries' bytes in sorted order (names left out)."""
    digest = hashlib.sha256()
    for blob in sorted(blob for _, blob in _entries(store_dir)):
        digest.update(blob)
    return digest.hexdigest()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="digests were recorded under CPython 3.11 (see test_generation_golden)",
)
def test_live_tail_state_cache_and_reports_match_the_pinned_digests(tmp_path):
    report = build(str(tmp_path), extra=("--out-of-core",))
    assert hashlib.sha256(report).hexdigest() == GOLDEN_REPORT_SHA256
    store_dir = str(tmp_path / "live_tail-seed7")
    assert state_bytes_digest(store_dir) == GOLDEN_STATE_BYTES_SHA256
    assert state_cache_digest(store_dir) == GOLDEN_STATES_SHA256
