"""Golden store: generation is byte-identical per ``(scenario, seed)``.

The digests below were recorded from the commit *before* the generation hot
path was rewritten (table-driven Zipf draws, batched ``TxFrame.extend``,
tuple records, incremental order book) and committed ahead of any ``src/``
edit, so this test proves identity with that commit rather than re-pinning
whatever the code does today.  ``live_tail`` exercises every rewritten path:
the EIDOS boomerang, an XRP spam wave, offer crossing, the chunk cut of
the streamed build and the per-chunk chain statistics.

The build runs in a ``PYTHONHASHSEED=0`` child because
``DeterministicRng.fork`` derives child streams with ``hash()``: the figures
agree across hash seeds, account strings (and so store bytes) do not.
"""

from __future__ import annotations

import glob
import hashlib
import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)

#: Re-pinned once, when stores began writing v3 chunks (projected metadata
#: columns beside a residue JSON; the v2 digest was 192b6451…cce976a7faa4e),
#: and once when each chunk began carrying only the strings its rows use
#: (the cold build streams its rows; the v3 digest was
#: e2cfe5e9…aaafc0eedfb6f).  The rows did not move either time:
#: ``iter_records`` of the two stores is equal, record for record and
#: metadata key order included, ``pool_values()`` is equal, and the report
#: digest holds.
GOLDEN_STORE_SHA256 = "81e5a11f196be60150eff11f05f004eb218ca16d022d484d0c2494d52519773c"
GOLDEN_REPORT_SHA256 = "a7ea27a28d0fe1d8c3283b3360f88c6b3fb5a2ec3cf1cdda32a0d8a65c17776a"


def build(
    cache_root: str, scale: str = "live_tail", seed: int = 7, extra: tuple = ()
) -> bytes:
    """``repro report --json`` in a hash-pinned child; returns its stdout."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    env.pop("REPRO_FAULTS", None)
    done = subprocess.run(
        [
            sys.executable, "-m", "repro", "report",
            "--scale", scale, "--seed", str(seed), "--cache", cache_root,
            "--workers", "1", "--gen-workers", "1", "--json", *extra,
        ],  # fmt: skip
        env=env,
        capture_output=True,
        check=True,
        timeout=600,
    )
    return done.stdout


def store_digest(store_dir: str) -> str:
    """sha-256 over the sorted chunk files, then ``manifest.json``."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(store_dir, "frame-chunk-*")))
    assert paths, f"no chunk files in {store_dir}"
    for path in paths + [os.path.join(store_dir, "manifest.json")]:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="digests were recorded under CPython 3.11: str hashing (which seeds "
    "DeterministicRng.fork) changed in 3.11 and float sum() in 3.12",
)
def test_live_tail_store_and_report_match_the_pinned_digests(tmp_path):
    report = build(str(tmp_path))
    assert hashlib.sha256(report).hexdigest() == GOLDEN_REPORT_SHA256
    assert store_digest(str(tmp_path / "live_tail-seed7")) == GOLDEN_STORE_SHA256

