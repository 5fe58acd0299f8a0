"""Cold catch-up: a fresh session fans out over committed chunks.

When ``update(workers>1)`` runs in a session with no checkpoint and no
resident frame, the pipeline reuses the out-of-core chunk engine: workers
stream the store's committed chunks and the parent folds their states —
the full frame is never materialised in any process.  The resulting
checkpoint must be indistinguishable from one written by the serial path,
so later incremental updates compose on top of it.
"""

from __future__ import annotations

import pytest

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.pipeline import Pipeline

from tests.support.reports import assert_reports_identical


@pytest.fixture(scope="module")
def sample_records(eos_records, tezos_records, xrp_records):
    return eos_records[:4000] + tezos_records[:2000] + xrp_records[:4000]


@pytest.fixture(scope="module")
def frozen_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def frozen_clusterer(xrp_generator, sample_records):
    live = AccountClusterer(xrp_generator.ledger.accounts)
    addresses = {record.sender for record in sample_records} | {
        record.receiver for record in sample_records
    }
    return StaticAccountClusterer.from_clusterer(live, sorted(addresses))


def _configured(root, oracle, clusterer, chunk_rows=1000) -> Pipeline:
    pipeline = Pipeline(str(root), chunk_rows=chunk_rows)
    if not pipeline.has_analysis_config():
        pipeline.set_analysis_config(oracle, clusterer)
    return pipeline


class TestColdCatchUp:
    def test_out_of_core_cold_update_matches_serial(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        ingest = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        ingest.ingest_records(iter(sample_records))
        del ingest  # session ends without ever updating: no checkpoint

        cold = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        report, stats = cold.update(workers=2)
        assert stats.workers == 2
        assert not stats.used_checkpoint
        assert stats.rows_scanned == len(sample_records)
        # The out-of-core engine never pulled the frame into this process.
        assert cold._frame is None

        serial_root = tmp_path / "serial"
        serial = _configured(serial_root, frozen_oracle, frozen_clusterer)
        serial.ingest_records(iter(sample_records))
        expected, _ = serial.update()
        assert_reports_identical(report, expected, exact_flows=False)

    def test_cold_checkpoint_powers_later_incremental_updates(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        head, tail = sample_records[:7000], sample_records[7000:]
        ingest = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        ingest.ingest_records(iter(head))
        del ingest

        cold = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        cold.update(workers=2)
        del cold

        resumed = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        resumed.ingest_records(iter(tail))
        report, stats = resumed.update()
        assert stats.incremental
        assert stats.rows_scanned == len(tail)
        oracle, clusterer = resumed.analysis_config()
        expected = full_report(resumed.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=False)

    def test_same_session_ingest_leaves_no_frame_so_update_takes_the_cold_path(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        """Ingest alone rehydrates nothing: a first ``update(workers=2)`` in the
        same session (a ``watch --workers 2`` first tick) fans out as chunk
        tasks — same figures as the resident scan, ``stats.workers`` says which."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records))
        assert pipeline._frame is None
        report, stats = pipeline.update(workers=2)
        assert stats.workers == 2
        assert pipeline._frame is None
        oracle, clusterer = pipeline.analysis_config()
        expected = full_report(pipeline.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=False)

    def test_cold_path_skipped_when_frame_resident(
        self, tmp_path, sample_records, frozen_oracle, frozen_clusterer
    ):
        """Same-session ingest scans the resident frame in-process."""
        pipeline = _configured(tmp_path, frozen_oracle, frozen_clusterer)
        pipeline.ingest_records(iter(sample_records))
        assert pipeline.frame is not None  # materialise before updating
        report, stats = pipeline.update(workers=2)
        assert stats.workers == 0
        oracle, clusterer = pipeline.analysis_config()
        expected = full_report(pipeline.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(report, expected, exact_flows=True)
