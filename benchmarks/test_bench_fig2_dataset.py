"""Figure 2 — characterising the datasets for each blockchain.

Streams each simulated chain's blocks through a frame sink into the
columnar store and regenerates the Figure 2 columns (sample period, block
range, block count, transaction count, compressed storage), benchmarking
the store + characterisation pass.
Absolute sizes differ from the paper's 121 / 0.56 / 76.4 GB because the
workloads run at a reduced per-day volume; the per-chain ordering
(EOS >> XRP >> Tezos in transactions and bytes) must hold.
"""

import pytest

from repro.collection.dataset import characterize_dataset
from repro.collection.store import FrameSink, FrameStore


def _store(blocks):
    store = FrameStore()
    sink = FrameSink(store)
    for block in blocks:
        sink.add(block)
    sink.flush()
    return store


def _characterize(blocks):
    return characterize_dataset(_store(blocks))


@pytest.fixture(scope="module")
def figure2_rows(eos_blocks, tezos_blocks, xrp_blocks):
    rows = {
        "eos": _characterize(eos_blocks),
        "tezos": _characterize(tezos_blocks),
        "xrp": _characterize(xrp_blocks),
    }
    print("\nFigure 2 — dataset characterisation (simulation scale):")
    for name, row in rows.items():
        data = row.to_row()
        print(
            f"  {name:5s} {data['sample_start']} -> {data['sample_end']}  "
            f"blocks {data['first_block']}..{data['last_block']} ({data['block_count']}),  "
            f"{data['transaction_count']:>8d} transactions,  {data['storage_gb']:.6f} GB compressed"
        )
    return rows


def test_fig2_eos_characterisation(benchmark, eos_blocks, figure2_rows):
    row = benchmark(_characterize, eos_blocks)
    assert row.sample_start.startswith("2019-10")
    assert row.sample_end.startswith("2019-12")
    assert row.block_count == len(eos_blocks)
    assert row.first_block == 82_024_737
    assert row.compressed_gigabytes > 0.0


def test_fig2_ordering_matches_paper(figure2_rows):
    eos, tezos, xrp = figure2_rows["eos"], figure2_rows["tezos"], figure2_rows["xrp"]
    # EOS carries the most transactions and bytes, Tezos by far the fewest.
    assert eos.transaction_count > xrp.transaction_count > tezos.transaction_count
    assert eos.compressed_gigabytes > tezos.compressed_gigabytes
    assert xrp.compressed_gigabytes > tezos.compressed_gigabytes


def test_fig2_storage_accounting(benchmark, tezos_blocks):
    stats = benchmark(lambda: _store(tezos_blocks).compression_stats())
    assert stats.compressed_bytes < stats.raw_bytes
    assert stats.chunk_count >= 1
