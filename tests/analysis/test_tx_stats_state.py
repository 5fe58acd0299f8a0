"""``tx_stats`` state is O(1) in rows.

The transaction count is a run counter (:class:`~repro.analysis.containers.IdRuns`),
not a set of ids, so an exported payload has the same size at any row count
apart from the two ids it quotes.  The claim holds at any size; small frames
keep the check cheap.
"""

from __future__ import annotations

from repro.analysis.engine import TxStatsAccumulator, scan
from repro.common import statecodec
from repro.common.columns import TxFrame
from repro.common.records import ChainId, TransactionRecord

#: 4x row growth with every transaction id distinct.
SMALL_ROWS = 5_000
LARGE_ROWS = 20_000


def _synthetic_frame(rows: int) -> TxFrame:
    return TxFrame.from_records(
        TransactionRecord(
            chain=ChainId.EOS,
            transaction_id=f"e{index}",
            block_height=index // 64,
            timestamp=1.5e9 + index,
            type="transfer",
            sender=f"s{index}",
            receiver=f"r{index % 97}",
            contract="eosio.token",
        )
        for index in range(rows)
    )


def test_exact_tx_stats_state_does_not_grow_with_rows():
    """The transaction count is a run counter: O(1) state at any row count."""
    sizes = {}
    for rows in (SMALL_ROWS, LARGE_ROWS):
        accumulator = TxStatsAccumulator()
        scan([accumulator], _synthetic_frame(rows), range(rows))
        assert accumulator.finalize().transaction_count == rows
        payload = accumulator.export_state()
        # The only row-dependent bytes are the digits of the ids it quotes.
        quoted = len(payload["first_id"]) + len(payload["last_id"])
        sizes[rows] = len(statecodec.encode(payload)) - quoted
        assert sizes[rows] + quoted <= 256
    assert sizes[SMALL_ROWS] == sizes[LARGE_ROWS]
