"""Out-of-core chunk engine: identity at medium scale, speedup gates.

Three layers, matching what a given machine can honestly measure:

* **result identity** (always) — ``parallel_report_from_store`` over a
  chunked on-disk store reproduces the serial in-memory ``full_report``
  at ``medium_scenario`` scale, figure for figure;
* **scan parallelism** (≥ 2 cores) — the pooled chunk scan must beat the
  same chunk-streaming scan run in-process by ≥ 1.4×.  Comparing
  streaming against streaming isolates the fan-out from the
  decompression cost every out-of-core pass pays;
* **the large-tier acceptance gate** (opt-in: ``REPRO_BENCH_LARGE=1``
  and ≥ 4 cores) — on the ``large`` tier the pooled out-of-core report
  must beat the serial numpy engine over the materialised frame by
  ≥ 2.0×.  This is the paper-scale claim: at tens of millions of rows
  the serial engine needs the whole frame resident, the chunk engine
  does not, and the pool still wins on wall-clock.  Generating the tier
  takes minutes, hence the explicit opt-in (CI runs the medium gates).
"""

from __future__ import annotations

import os
import time
from itertools import chain

import pytest

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from tests.support.reports import assert_reports_identical

ROUNDS = 3

#: Pool vs in-process gate for the chunk scan itself (≥ 2 cores).
REQUIRED_SCAN_SPEEDUP = 1.4

#: The large-tier acceptance gate vs the serial numpy engine (opt-in).
REQUIRED_LARGE_SPEEDUP = 2.0

#: Chunk size for the medium-scale store: small enough for real
#: partitioning headroom (~16 tasks), large enough to amortise gzip.
CHUNK_ROWS = 25_000


@pytest.fixture(scope="module")
def combined_frame(eos_records, tezos_records, xrp_records):
    return TxFrame.from_records(chain(eos_records, tezos_records, xrp_records))


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory, combined_frame):
    directory = tmp_path_factory.mktemp("ooc-bench-store")
    store = FrameStore(chunk_rows=CHUNK_ROWS, directory=str(directory))
    store.add_frame(combined_frame)
    return str(directory)


def _time(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_store_report_result_identical_at_stress_scale(
    store_dir, combined_frame, xrp_oracle, xrp_clusterer
):
    serial = full_report(combined_frame, oracle=xrp_oracle, clusterer=xrp_clusterer)
    out_of_core = parallel_report_from_store(
        store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer, workers=2
    )
    assert set(out_of_core.chains) == {ChainId.EOS, ChainId.TEZOS, ChainId.XRP}
    assert_reports_identical(out_of_core, serial, exact_flows=False)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="chunk-scan speedup requires at least two cores",
)
def test_pooled_chunk_scan_beats_in_process_scan(
    store_dir, combined_frame, xrp_oracle, xrp_clusterer
):
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    def in_process():
        return parallel_report_from_store(
            store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer,
            workers=0, tasks=workers,
        )

    def pooled():
        return parallel_report_from_store(
            store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer,
            workers=workers,
        )

    serial_seconds = _time(in_process)
    pooled_seconds = _time(pooled)
    speedup = serial_seconds / pooled_seconds
    print(
        f"\nOut-of-core report over {len(combined_frame):,} rows: "
        f"in-process {serial_seconds:.3f}s, pooled ({workers} workers) "
        f"{pooled_seconds:.3f}s, speed-up {speedup:.2f}x on {cores} cores"
    )
    assert speedup >= REQUIRED_SCAN_SPEEDUP, (
        f"pooled chunk scan must be >= {REQUIRED_SCAN_SPEEDUP}x the "
        f"in-process scan on {cores} cores, got {speedup:.2f}x"
    )


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_LARGE"),
    reason="large-tier gate is opt-in (REPRO_BENCH_LARGE=1): generation takes minutes",
)
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the >= 2x large-tier gate targets hosts with at least four cores",
)
def test_large_tier_out_of_core_beats_serial_numpy(tmp_path_factory):
    from repro.cli import ensure_store

    cores = os.cpu_count() or 1
    cache = tmp_path_factory.mktemp("large-tier-cache")
    stored = ensure_store("large", 7, str(cache), gen_workers=cores)

    def serial():
        frame = FrameStore.open(stored.directory).to_frame()
        return full_report(
            frame, oracle=stored.oracle, clusterer=stored.clusterer
        )

    def out_of_core():
        return parallel_report_from_store(
            stored.directory,
            oracle=stored.oracle,
            clusterer=stored.clusterer,
            workers=min(8, cores),
        )

    serial_seconds = _time(serial)
    pooled_seconds = _time(out_of_core)
    speedup = serial_seconds / pooled_seconds
    print(
        f"\nLarge tier ({stored.rows:,} rows): serial numpy "
        f"{serial_seconds:.3f}s (frame materialised), out-of-core "
        f"{pooled_seconds:.3f}s, speed-up {speedup:.2f}x on {cores} cores"
    )
    assert speedup >= REQUIRED_LARGE_SPEEDUP, (
        f"out-of-core report must be >= {REQUIRED_LARGE_SPEEDUP}x the serial "
        f"numpy engine at the large tier, got {speedup:.2f}x"
    )
