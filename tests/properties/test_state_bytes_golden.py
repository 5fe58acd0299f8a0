"""Golden accumulator state: no payload, key or signature moves unnoticed.

A state-cache entry's *name* carries the chunk digest, the digest of every
accumulator's ``config_signature()`` and the constant ``exact`` token; its
*bytes* are the encoded ``export_state()`` payloads of the whole
``full_report`` accumulator set behind the entry magic.  Pinning both shows
whether a cache
written by one commit is a hit on the next: the names have not moved since
they were first recorded (the commit before ``repro.analysis.containers``
existed), and the bytes moved exactly once since — state epoch 2, quoted
below — together with ``ENTRY_MAGIC`` and ``CHECKPOINT_VERSION``, so the older
entries are misses rather than payloads of the wrong shape.  The report
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
#: the entry magic is ``RCS\x02``.  Entry names and the report did not move.
GOLDEN_STATES_SHA256 = "4037bcd4292eed9dc815823b05359530a2363d514210f10cb496c22188d1a8aa"


def state_cache_digest(store_dir: str) -> str:
    """sha-256 over the sorted entry names and their bytes."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(store_dir, "cache", "state-*-exact-*")))
    assert paths, f"no state-cache entries in {store_dir}"
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
    report = build(str(tmp_path), extra=("--out-of-core",))
    assert hashlib.sha256(report).hexdigest() == GOLDEN_REPORT_SHA256
    store_dir = str(tmp_path / "live_tail-seed7")
    assert state_cache_digest(store_dir) == GOLDEN_STATES_SHA256
