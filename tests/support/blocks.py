"""Synthetic blocks for store, sink and characterisation tests."""

from __future__ import annotations

from repro.common.records import BlockRecord, ChainId, TransactionRecord


def make_block(height, tx_count=2):
    """An EOS block at ``height`` (timestamp = height) of ``tx_count``
    one-action transfers."""
    records = tuple(
        TransactionRecord(
            chain=ChainId.EOS,
            transaction_id=f"tx{height}-{index}",
            block_height=height,
            timestamp=float(height),
            type="transfer",
            sender="alice",
            receiver="bob",
        )
        for index in range(tx_count)
    )
    return BlockRecord(
        chain=ChainId.EOS,
        height=height,
        timestamp=float(height),
        producer="producer01a",
        transactions=records,
    )
