"""Tests for dataset characterisation (Figure 2)."""

import pytest

from repro.common import faults
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.collection.dataset import characterize_dataset
from repro.collection.store import FrameSink, FrameStore

from tests.support.blocks import make_block


class TestCharacterization:
    def _store(self, heights, tx_count=3):
        store = FrameStore(chunk_rows=50)
        sink = FrameSink(store, chain=ChainId.EOS)
        for height in heights:
            sink.add(make_block(height, tx_count=tx_count))
        sink.flush()
        return store

    def test_reports_figure2_columns(self):
        store = self._store(range(100, 200))
        characterization = characterize_dataset(store, scale_factor=0.01)
        row = characterization.to_row()
        assert row["chain"] == "eos"
        assert row["first_block"] == 100
        assert row["last_block"] == 199
        assert row["block_count"] == 100
        assert row["transaction_count"] == 300
        assert row["storage_gb"] > 0.0
        assert characterization.estimated_full_scale_gigabytes == pytest.approx(
            characterization.compressed_gigabytes * 100, rel=1e-9
        )

    def test_storage_column_is_the_manifest_s_compressed_bytes(self, tmp_path):
        store = FrameStore(chunk_rows=50, directory=str(tmp_path))
        sink = FrameSink(store, chain=ChainId.EOS)
        for height in range(100, 160):
            sink.add(make_block(height, tx_count=3))
        sink.flush()
        reopened = FrameStore.open(str(tmp_path))
        characterization = characterize_dataset(reopened)
        assert characterization.compressed_gigabytes * 1e9 == pytest.approx(
            reopened.compression_stats().compressed_bytes
        )
        assert characterization.to_row() == characterize_dataset(store).to_row()

    def test_tps_derived_from_duration(self):
        store = self._store(range(0, 100))
        characterization = characterize_dataset(store)
        # Timestamps are one second apart: 300 transactions over 99 seconds.
        assert characterization.transactions_per_second == pytest.approx(300 / 99.0)
        assert characterization.blocks_per_day == pytest.approx(100 * 86_400 / 99.0)

    def test_dates_rendered(self):
        store = self._store([1_000_000, 1_086_400])
        characterization = characterize_dataset(store)
        assert characterization.sample_start == "1970-01-12"
        assert characterization.duration_seconds == pytest.approx(86_400.0)

    def test_chain_override(self):
        store = self._store(range(3))
        with pytest.raises(AnalysisError, match="no xrp rows"):
            characterize_dataset(store, chain=ChainId.XRP)
        assert characterize_dataset(store, chain=ChainId.EOS).chain is ChainId.EOS

    def test_empty_store_rejected(self, tmp_path):
        """A directory store whose first chunk write crashed committed its
        empty manifest alone: it has no dataset to characterise."""
        sink = FrameSink(FrameStore(chunk_rows=50, directory=str(tmp_path)), chain=ChainId.EOS)
        sink.add(make_block(1, tx_count=3))
        with faults.use_plan(faults.FaultPlan.parse("store.chunk_write:mode=crash:nth=1")):
            with pytest.raises(faults.InjectedCrash):
                sink.flush()
        store = FrameStore.open(str(tmp_path))
        assert store.row_count == 0 and len(store.cleaned_paths) == 1
        with pytest.raises(AnalysisError):
            characterize_dataset(store)

    def test_zero_duration_single_block(self):
        characterization = characterize_dataset(self._store([5], tx_count=2))
        assert characterization.transactions_per_second == 0.0


class TestFrameStoreCharacterization:
    """Multi-chain stores and empty stores."""

    def test_multi_chain_store_requires_chain(self):
        from repro.common.columns import TxFrame
        from repro.common.records import TransactionRecord

        records = []
        for chain in (ChainId.EOS, ChainId.XRP):
            records.append(
                TransactionRecord(
                    chain=chain,
                    transaction_id=f"{chain.value}-t",
                    block_height=7,
                    timestamp=7.0,
                    type="transfer",
                    sender="alice",
                    receiver="bob",
                )
            )
        store = FrameStore(chunk_rows=10)
        store.add_frame(TxFrame.from_records(records))
        with pytest.raises(AnalysisError):
            characterize_dataset(store)
        row = characterize_dataset(store, chain=ChainId.XRP)
        assert row.chain is ChainId.XRP
        assert row.action_count == 1

    def test_empty_frame_store_rejected(self):
        with pytest.raises(AnalysisError):
            characterize_dataset(FrameStore())
