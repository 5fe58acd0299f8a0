"""Out-of-core chunk engine: store scans reproduce the in-memory engine.

The chunk engine never materialises the full frame in any process — the
parent reads only the store manifest, workers stream contiguous chunk
ranges.  These tests pin the two properties the engine exists for:

* **identity** — :func:`parallel_report_from_store` over a committed store
  equals the serial in-memory :func:`~repro.analysis.report.full_report`,
  figure for figure, across ragged chunk sizes
  that split chains mid-chunk, and for every task-partition count;
* **bounded memory** — the in-process scan's allocation peak stays well
  below the materialised frame's footprint, and stays flat as chunk count
  grows.

Floating-point caveat: folding chunk-range subtotals reorders the Figure 12
value sums, so those compare to within strict relative tolerance (see
``tests/analysis/test_parallel.py``); everything else must match exactly.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import AccountClusterer
from repro.analysis.parallel import (
    chunk_ranges,
    chunk_scan_states,
    parallel_report_from_store,
)
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.common.records import ChainId

from tests.support import child_env
from tests.support.reports import assert_reports_identical


#: Deliberately ragged: not a divisor of any chain's row count, so chunk
#: boundaries fall mid-chain and chains straddle chunks.
RAGGED_CHUNK_ROWS = 977


@pytest.fixture(scope="module")
def all_records(eos_records, tezos_records, xrp_records):
    return eos_records + tezos_records + xrp_records


@pytest.fixture(scope="module")
def combined_frame(all_records):
    return TxFrame.from_records(all_records)


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


@pytest.fixture(scope="module")
def serial_report(combined_frame, xrp_oracle, xrp_clusterer):
    return full_report(combined_frame, oracle=xrp_oracle, clusterer=xrp_clusterer)


def _build_store(directory, records, chunk_rows):
    store = FrameStore(chunk_rows=chunk_rows, directory=str(directory))
    store.add_records(records)
    store.flush()
    return store


@pytest.fixture(scope="module")
def ragged_store_dir(tmp_path_factory, all_records):
    directory = tmp_path_factory.mktemp("ragged-store")
    _build_store(directory, all_records, RAGGED_CHUNK_ROWS)
    return str(directory)


@pytest.fixture(scope="module")
def sliced_records(eos_records, tezos_records, xrp_records):
    """A few thousand rows of each chain — cheap per-test store builds."""
    return eos_records[:1500] + tezos_records[:1500] + xrp_records[:1500]


@pytest.fixture(scope="module")
def sliced_serial(sliced_records, xrp_oracle, xrp_clusterer):
    return full_report(
        TxFrame.from_records(sliced_records),
        oracle=xrp_oracle,
        clusterer=xrp_clusterer,
    )


class TestStoreReportIdentity:
    def test_matches_serial_with_worker_pool(
        self, ragged_store_dir, serial_report, xrp_oracle, xrp_clusterer
    ):
        report = parallel_report_from_store(
            ragged_store_dir,
            oracle=xrp_oracle,
            clusterer=xrp_clusterer,
            workers=2,
            tasks=3,
        )
        assert_reports_identical(report, serial_report, exact_flows=False)

    @pytest.mark.parametrize("tasks", [1, 2, 5, 64])
    def test_every_task_partitioning(
        self, tasks, ragged_store_dir, serial_report, xrp_oracle, xrp_clusterer
    ):
        """Task count changes the fold points, never the figures."""
        report = parallel_report_from_store(
            ragged_store_dir,
            oracle=xrp_oracle,
            clusterer=xrp_clusterer,
            workers=0,
            tasks=tasks,
        )
        assert_reports_identical(report, serial_report, exact_flows=False)

    def test_chains_split_mid_chunk(
        self, tmp_path, sliced_records, xrp_oracle, xrp_clusterer
    ):
        """Interleaved chains put several chains inside every chunk."""
        by_chain = {}
        for record in sliced_records:
            by_chain.setdefault(record.chain, []).append(record)
        interleaved = []
        streams = [iter(rows) for rows in by_chain.values()]
        while streams:
            for stream in list(streams):
                chunk = [row for _, row in zip(range(25), stream)]
                if not chunk:
                    streams.remove(stream)
                interleaved.extend(chunk)
        assert len(interleaved) == len(sliced_records)
        _build_store(tmp_path, interleaved, 313)
        report = parallel_report_from_store(
            str(tmp_path), oracle=xrp_oracle, clusterer=xrp_clusterer, workers=2
        )
        serial = full_report(
            TxFrame.from_records(interleaved),
            oracle=xrp_oracle,
            clusterer=xrp_clusterer,
        )
        assert_reports_identical(report, serial, exact_flows=False)

    def test_staged_rows_excluded(self, tmp_path, all_records, xrp_oracle):
        """Only committed chunks are scanned; staging stays out of figures."""
        store = _build_store(tmp_path, all_records[:2000], 500)
        store.add_records(all_records[2000:2100])  # staged, not flushed
        report = parallel_report_from_store(str(tmp_path), oracle=xrp_oracle)
        rows = sum(
            figures["tx_stats"].action_count for figures in report.chains.values()
        )
        committed = full_report(
            TxFrame.from_records(all_records[:2000]), oracle=xrp_oracle
        )
        assert_reports_identical(report, committed, exact_flows=False)
        assert rows == 2000

    @settings(max_examples=6, deadline=None)
    @given(
        chunk_rows=st.integers(min_value=61, max_value=900),
        tasks=st.integers(min_value=1, max_value=7),
    )
    def test_property_ragged_boundaries(
        self, chunk_rows, tasks, tmp_path_factory, sliced_records,
        sliced_serial, xrp_oracle, xrp_clusterer,
    ):
        """Any chunk size x any partitioning reproduces the serial figures."""
        directory = tmp_path_factory.mktemp("prop-store")
        _build_store(directory, sliced_records, chunk_rows)
        report = parallel_report_from_store(
            str(directory),
            oracle=xrp_oracle,
            clusterer=xrp_clusterer,
            workers=0,
            tasks=tasks,
        )
        assert_reports_identical(report, sliced_serial, exact_flows=False)


class TestChunkScanStates:
    def test_states_finalize_to_serial_figures(
        self, ragged_store_dir, combined_frame, xrp_oracle, xrp_clusterer
    ):
        """The un-finalized fold matches per-chain row totals and is reusable."""
        totals, bases = chunk_scan_states(
            ragged_store_dir, oracle=xrp_oracle, clusterer=xrp_clusterer, workers=0
        )
        assert set(totals) == {chain.value for chain in ChainId}
        assert sum(totals.values()) == len(combined_frame)
        for chain in ChainId:
            view = combined_frame.chain_view(chain)
            assert totals[chain.value] == len(view.rows)
            assert bases[chain.value]
            # Finalize is deferred to the caller — calling it twice from
            # the same folded state must be stable.
            first = {acc.name: acc.finalize() for acc in bases[chain.value]}
            second = {acc.name: acc.finalize() for acc in bases[chain.value]}
            assert set(first) == set(second)

    def test_empty_store(self, tmp_path):
        FrameStore(chunk_rows=100, directory=str(tmp_path))._write_manifest()
        totals, bases = chunk_scan_states(str(tmp_path))
        assert totals == {}
        assert bases == {}

    def test_a_worker_kill_never_fires_in_the_parent(self, ragged_store_dir):
        """``worker.chunk_task`` is checked where a pool worker starts a task:
        an in-process scan under a kill plan finishes, a pooled one loses
        its worker and says so."""
        script = (
            "import sys\n"
            "from repro.analysis.parallel import parallel_report_from_store\n"
            "from repro.common.errors import AnalysisError\n"
            "try:\n"
            "    parallel_report_from_store(sys.argv[1], workers=int(sys.argv[2]))\n"
            "except AnalysisError as error:\n"
            "    print(error)\n"
            "    sys.exit(3)\n"
        )
        env = dict(child_env(), REPRO_FAULTS="worker.chunk_task:mode=kill:nth=1")
        runs = {
            workers: subprocess.run(
                [sys.executable, "-c", script, ragged_store_dir, str(workers)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            for workers in (1, 2)
        }  # fmt: skip
        assert runs[1].returncode == 0, runs[1].stderr
        assert runs[2].returncode == 3 and "died mid-scan" in runs[2].stdout

    def test_chunk_ranges_partition_exactly(self):
        for chunks in (1, 5, 17):
            for parts in (1, 2, 5, 40):
                ranges = chunk_ranges(chunks, parts)
                covered = [i for start, stop in ranges for i in range(start, stop)]
                assert covered == list(range(chunks))


class TestBoundedMemory:
    def _scan_peak(self, directory, oracle, clusterer):
        tracemalloc.start()
        try:
            parallel_report_from_store(
                str(directory), oracle=oracle, clusterer=clusterer, workers=0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_scan_peak_well_below_frame_footprint(
        self, tmp_path, sliced_records, xrp_oracle, xrp_clusterer
    ):
        """Streaming chunks must not come close to materialising the frame."""
        _build_store(tmp_path, sliced_records * 4, 500)
        tracemalloc.start()
        try:
            frame = FrameStore.open(str(tmp_path)).to_frame()
            _, frame_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            del frame
        scan_peak = self._scan_peak(tmp_path, xrp_oracle, xrp_clusterer)
        assert scan_peak < frame_peak * 0.7, (scan_peak, frame_peak)

    def test_scan_peak_flat_as_chunks_grow(
        self, tmp_path, sliced_records, xrp_oracle, xrp_clusterer
    ):
        """4x the committed rows must not 2x the scan's allocation peak.

        Accumulator state grows with distinct accounts/ids, which the
        repeated records below do not add, so any superlinear growth here
        would mean chunk payloads are being retained instead of streamed.
        """
        base_dir = tmp_path / "base"
        grown_dir = tmp_path / "grown"
        _build_store(base_dir, sliced_records, 500)
        _build_store(grown_dir, sliced_records * 4, 500)
        base_peak = self._scan_peak(base_dir, xrp_oracle, xrp_clusterer)
        grown_peak = self._scan_peak(grown_dir, xrp_oracle, xrp_clusterer)
        assert grown_peak < base_peak * 2.0, (base_peak, grown_peak)
