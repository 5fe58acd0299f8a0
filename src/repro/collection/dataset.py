"""Dataset characterisation (Figure 2).

Figure 2 of the paper characterises each chain's dataset by its sample
period, block index range, block count, transaction count and compressed
storage footprint.  :func:`characterize_dataset` computes the same columns
straight from a columnar :class:`~repro.collection.store.FrameStore` (the
crawl's and the ingestion pipeline's one store — no block-record round-trip
required), plus the average transactions-per-second figure quoted in the
introduction (20 TPS for EOS, 0.08 TPS for Tezos, 19 TPS for XRP).  The
storage column is the store's compressed chunk bytes, as its manifest
records them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.clock import date_from_timestamp
from repro.common.compression import CompressionStats, estimate_storage_gb
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.collection.store import FrameStore


@dataclass(frozen=True)
class DatasetCharacterization:
    """One row of Figure 2, plus derived rates."""

    chain: ChainId
    sample_start: str
    sample_end: str
    first_block: int
    last_block: int
    block_count: int
    transaction_count: int
    action_count: int
    compressed_gigabytes: float
    estimated_full_scale_gigabytes: float
    duration_seconds: float

    @property
    def transactions_per_second(self) -> float:
        """Average TPS over the sample period (the paper's headline metric)."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.transaction_count / self.duration_seconds

    @property
    def blocks_per_day(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.block_count * 86_400.0 / self.duration_seconds

    def to_row(self) -> Dict[str, object]:
        """Render as a flat dictionary, one Figure 2 table row."""
        return {
            "chain": self.chain.value,
            "sample_start": self.sample_start,
            "sample_end": self.sample_end,
            "first_block": self.first_block,
            "last_block": self.last_block,
            "block_count": self.block_count,
            "transaction_count": self.transaction_count,
            "action_count": self.action_count,
            "storage_gb": round(self.compressed_gigabytes, 6),
            "estimated_full_scale_gb": round(self.estimated_full_scale_gigabytes, 6),
            "tps": round(self.transactions_per_second, 4),
        }


def characterize_dataset(
    store: FrameStore,
    scale_factor: float = 1.0,
    chain: Optional[ChainId] = None,
) -> DatasetCharacterization:
    """Summarise a frame store as one Figure 2 row, straight from its columns.

    ``scale_factor`` is the fraction of the paper's real traffic the workload
    was configured to generate; the full-scale storage estimate divides by it
    so the reproduced table remains comparable to the paper's numbers.

    Block statistics are derived from the rows, so only transaction-bearing
    blocks count: an empty block leaves no rows and is invisible here.
    Multi-chain stores need an explicit ``chain``; the storage columns then
    apportion the store's compressed footprint by the chain's share of rows
    (chunks mix chains, so exact per-chain bytes do not exist).
    """
    frame = store.to_frame()
    if not len(frame):
        raise AnalysisError("cannot characterise an empty frame store")
    chains = frame.chains()
    if chain is None:
        if len(chains) > 1:
            raise AnalysisError(
                "frame store holds several chains; pass the chain to characterise"
            )
        chain = chains[0]
    view = frame.chain_view(chain)
    if not len(view):
        raise AnalysisError(f"frame store holds no {chain.value} rows")
    bounds = frame.chain_bounds(chain)
    block_heights = frame.block_height
    transaction_ids = frame.transaction_id
    heights = set()
    transactions = set()
    for row in view.rows:
        heights.add(block_heights[row])
        transactions.add(transaction_ids[row])
    stats = store.compression_stats()
    share = len(view) / len(frame)
    chain_stats = CompressionStats(
        raw_bytes=int(stats.raw_bytes * share),
        compressed_bytes=int(stats.compressed_bytes * share),
        chunk_count=stats.chunk_count,
    )
    duration = bounds[1] - bounds[0]
    return DatasetCharacterization(
        chain=chain,
        sample_start=date_from_timestamp(bounds[0]),
        sample_end=date_from_timestamp(bounds[1]),
        first_block=min(heights),
        last_block=max(heights),
        block_count=len(heights),
        transaction_count=len(transactions),
        action_count=len(view),
        compressed_gigabytes=chain_stats.compressed_gigabytes,
        estimated_full_scale_gigabytes=estimate_storage_gb(chain_stats, scale_factor),
        duration_seconds=duration,
    )
