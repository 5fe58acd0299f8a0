"""A figure is one module: the ROADMAP C litmus test, without a new figure.

A toy accumulator and its :class:`FigureSpec` are defined *here* and appended
to ``repro.analysis.report.FIGURES``; with no other edit anywhere the figure
must be computed, cached per chunk, checkpointed, JSON-rendered and
text-rendered on every execution path.  If reporting a figure ever needs a
line in ``parallel``, ``statecache``, ``checkpoint``, ``pipeline/`` or
``cli/`` again, this fails.
"""

from __future__ import annotations

import pytest

from repro.analysis import report as report_module
from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.engine import Accumulator, FigureSpec
from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import FIGURES, full_report
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore
from repro.common.columns import CHAIN_ORDER, TxFrame
from repro.common.records import ChainId
from repro.pipeline import Pipeline

from tests.support.reports import assert_reports_identical


class FailedRowsAccumulator(Accumulator):
    """Toy figure: how many of the chain's rows failed, written as ``bind``
    alone — the chunk engine's fold targets reach it through the base
    ``_reset``."""

    name = "failed_rows"

    def bind(self, frame: TxFrame):
        self._failed = 0
        success = frame.success

        def step(row: int) -> None:
            if not success[row]:
                self._failed += 1

        return step

    def export_state(self):
        return {"failed": self._failed}

    def restore_state(self, payload) -> None:
        self._failed += payload["failed"]

    def finalize(self) -> int:
        return self._failed


# XRP has the failed transactions (tec codes); Tezos rides along so the
# spec covers more than one chain and less than all of them.
FAILED_ROWS_FIGURE = FigureSpec(
    name=FailedRowsAccumulator.name,
    chains=(ChainId.TEZOS, ChainId.XRP),
    factory=lambda chain, config: FailedRowsAccumulator(),
    json_key="failed",
    to_json=lambda failed: {"rows": failed},
    render=lambda failed: [f"failed rows: {failed:,}"],
)


@pytest.fixture(scope="module")
def sample_records(eos_records, tezos_records, xrp_records):
    return eos_records[:3000] + tezos_records[:1500] + xrp_records[:3000]


@pytest.fixture(scope="module")
def oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def clusterer(xrp_generator, sample_records):
    addresses = {record.sender for record in sample_records} | {
        record.receiver for record in sample_records
    }
    return StaticAccountClusterer.from_clusterer(
        AccountClusterer(xrp_generator.ledger.accounts), sorted(addresses)
    )


@pytest.fixture
def toy_figure(monkeypatch):
    monkeypatch.setattr(report_module, "FIGURES", FIGURES + (FAILED_ROWS_FIGURE,))


def _expected_failed(records, chain: ChainId) -> int:
    return sum(1 for r in records if r.chain is chain and not r.success)


def test_the_table_lists_eleven_uniquely_named_specs():
    """Eleven specs, unique names, every chain's slate non-empty."""
    names = [spec.name for spec in FIGURES]
    assert len(names) == len(set(names)) == 11
    assert isinstance(FIGURES, tuple)
    for chain in CHAIN_ORDER:
        assert any(chain in spec.chains for spec in FIGURES)


def test_a_spec_appended_to_the_table_is_reported_on_every_path(
    toy_figure, tmp_path, sample_records, oracle, clusterer
):
    failed = {
        chain: _expected_failed(sample_records, chain)
        for chain in (ChainId.TEZOS, ChainId.XRP)
    }
    assert failed[ChainId.XRP] > 0

    # Resident single pass.
    serial = full_report(
        TxFrame.from_records(sample_records), oracle=oracle, clusterer=clusterer
    )
    assert "failed_rows" not in serial.chains[ChainId.EOS]
    for chain, count in failed.items():
        assert serial.chains[chain]["failed_rows"] == count

    # Chunk engine over a cleared, then a warm state cache.
    store_dir = str(tmp_path / "store")
    store = FrameStore(chunk_rows=977, directory=store_dir)
    store.add_records(sample_records)
    store.flush()
    chunks = store.committed_chunk_count
    cache = ChunkStateCache.for_store(store_dir)
    cache.clear()
    cold = parallel_report_from_store(
        store_dir, oracle=oracle, clusterer=clusterer, workers=1, cache=cache
    )
    assert (cache.hits, cache.misses) == (0, chunks)
    warm_cache = ChunkStateCache.for_store(store_dir)
    warm = parallel_report_from_store(
        store_dir, oracle=oracle, clusterer=clusterer, workers=1, cache=warm_cache
    )
    assert (warm_cache.hits, warm_cache.misses) == (chunks, 0)
    for out_of_core in (cold, warm):
        assert_reports_identical(out_of_core, serial, exact_flows=False)

    # Two-batch pipeline: the second update restores the toy's checkpointed
    # state and scans only the delta.
    pipeline = Pipeline(str(tmp_path / "pipe"), chunk_rows=1000)
    pipeline.set_analysis_config(oracle, clusterer)
    split = len(sample_records) // 2
    pipeline.ingest_records(iter(sample_records[:split]))
    pipeline.update()
    pipeline.ingest_records(iter(sample_records[split:]))
    updated, stats = pipeline.update()
    assert stats.incremental and not stats.chains_rescanned
    assert stats.rows_scanned == len(sample_records) - split
    frozen_oracle, frozen_clusterer = pipeline.analysis_config()
    assert_reports_identical(
        updated,
        full_report(pipeline.frame, oracle=frozen_oracle, clusterer=frozen_clusterer),
    )

    # Rendering: JSON under the spec's key, text as the spec's lines.
    for report in (serial, cold, warm, updated):
        payload = report.to_dict()
        assert "failed" not in payload["eos"]
        text = report.format_text()
        for chain, count in failed.items():
            assert payload[chain.value]["failed"] == {"rows": count}
            assert f"    failed rows: {count:,}\n" in text
        assert text.count("failed rows:") == len(failed)


def test_type_distribution_text_lists_the_four_largest_shares():
    """Largest first, ties in table order — not the first (alphabetical) group."""
    from repro.analysis.classify import TYPE_DISTRIBUTION_FIGURE, TypeDistributionRow

    shares = [("A", "a1", 0.01), ("A", "a2", 0.0), ("B", "b1", 0.9), ("B", "b2", 0.01),
              ("C", "c1", 0.07), ("C", "c2", 0.01)]  # fmt: skip
    rows = [
        TypeDistributionRow(ChainId.EOS, group, name, int(share * 100), share)
        for group, name, share in shares
    ]
    lines = TYPE_DISTRIBUTION_FIGURE.render(rows)
    assert [line.split()[1] for line in lines] == ["b1", "c1", "a1", "b2"]
    assert lines[0].endswith(" 90.0%")
