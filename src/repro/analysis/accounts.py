"""Top-account tables (Figures 4, 5, 6 and 8).

The paper characterises each chain's dominant traffic sources by ranking
accounts on the number of transactions they receive (EOS applications,
Figure 4), send (EOS and Tezos, Figures 5 and 6; XRP, Figure 8), and by the
sender → receiver pairs with the most traffic (Figure 5).

The rankings are accumulated in a single pass over the columnar frame:
account activity is counted per interned account code (an integer), and the
top-N tables — including the heap-style selection of the busiest accounts —
are assembled from the counts at finalisation time.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Dict, List, NamedTuple, Tuple

from repro.common.columns import CHAIN_ORDER, TxFrame
from repro.common.records import ChainId
from repro.analysis.containers import ExactCounts
from repro.analysis.engine import Accumulator, BatchStep, FigureSpec, RowIndices
from repro.analysis.vectorized import block_columns


class AccountActivity(NamedTuple):
    """Activity of one account with its per-type breakdown."""

    account: str
    total: int
    share_of_chain: float
    type_breakdown: Tuple[Tuple[str, int, float], ...]

    def top_type(self) -> Tuple[str, int, float]:
        return self.type_breakdown[0]


def _breakdown(counter: Counter) -> Tuple[Tuple[str, int, float], ...]:
    total = sum(counter.values())
    rows = [
        (name, count, count / total if total else 0.0)
        for name, count in counter.items()
    ]
    rows.sort(key=lambda item: (-item[1], item[0]))
    return tuple(rows)


class _TallyState:
    """Accumulator contract of a scanned state that is one ``ExactCounts`` tally."""

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self.tally = self.tally.fresh(frame)

    def export_state(self) -> Dict:
        return self.tally.export_state()

    def restore_state(self, payload: Dict) -> None:
        self.tally.restore_state(payload)


#: How many accounts the top-sender and top-receiver figures rank.
TOP_ACCOUNTS = 10


class AccountActivityAccumulator(_TallyState, Accumulator):
    """Single-pass account ranking with per-type breakdowns.

    ``side`` selects the sender or receiver column.  Counts are kept per
    (account code, type code) pair in a
    :class:`~repro.analysis.containers.ExactCounts` tally, so the hot loop never
    touches a string; the ``limit`` busiest accounts are selected with a
    heap at finalise time.
    """

    def __init__(self, side: str = "sender", limit: int = TOP_ACCOUNTS):
        if side not in ("sender", "receiver"):
            raise ValueError("side must be 'sender' or 'receiver'")
        self.side = side
        self.limit = limit
        self.name = f"top_{side}s"
        self.tally = ExactCounts("pairs", 2)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (account, type) packed-code histogram.

        ``ordered=False`` because :meth:`finalize` is insertion-order
        independent (type breakdowns sort by count/name, accounts
        heap-select with name tie-breaks).
        """
        self._reset(frame)
        codes = frame.ndarray(
            "sender_code" if self.side == "sender" else "receiver_code"
        )
        type_codes = frame.ndarray("type_code")
        add = self.tally.block_adder(
            (len(frame.accounts), len(frame.types)), ordered=False
        )

        def consume(rows: RowIndices) -> None:
            if len(rows):
                add(block_columns(rows, codes, type_codes))

        return consume

    def config_signature(self) -> tuple:
        return (
            type(self).__qualname__,
            self.name,
            self.side,
            self.limit,
        )

    def finalize(self) -> List[AccountActivity]:
        frame = self._frame
        account_values = frame.accounts.values
        type_values = frame.types.values
        per_account: Dict[int, Dict[int, int]] = {}
        for (account_code, type_code), count in self.tally.items():
            counter = per_account.get(account_code)
            if counter is None:
                counter = per_account[account_code] = {}
            counter[type_code] = counter.get(type_code, 0) + count
        chain_total = self.tally.total
        # Heap-select the busiest accounts (ties broken by name, ascending,
        # matching the seed's full sort); only the winners get materialised.
        ranked = heapq.nsmallest(
            self.limit,
            per_account.items(),
            key=lambda item: (-sum(item[1].values()), account_values[item[0]]),
        )
        result = []
        for account_code, counts in ranked:
            total = sum(counts.values())
            counter = Counter(
                {type_values[code]: count for code, count in counts.items()}
            )
            result.append(
                AccountActivity(
                    account=account_values[account_code],
                    total=total,
                    share_of_chain=total / chain_total if chain_total else 0.0,
                    type_breakdown=_breakdown(counter),
                )
            )
        return result


TOP_SENDERS_FIGURE = FigureSpec(
    name="top_senders",
    chains=CHAIN_ORDER,
    factory=lambda chain, config: AccountActivityAccumulator("sender", TOP_ACCOUNTS),
)

TOP_RECEIVERS_FIGURE = FigureSpec(
    name="top_receivers",
    chains=(ChainId.EOS,),
    factory=lambda chain, config: AccountActivityAccumulator("receiver", TOP_ACCOUNTS),
)


class SenderProfile(NamedTuple):
    """One row of Figure 6: fan-out statistics of a top sender."""

    sender: str
    sent_count: int
    unique_receivers: int
    mean_per_receiver: float
    stdev_per_receiver: float
    top_receivers: Tuple[Tuple[str, int, float], ...]


class SenderReceiverPairsAccumulator(_TallyState, Accumulator):
    """Single-pass Figure 5/6 profiles: top senders and their receiver fan-out.

    For each of the ``limit_senders`` most active senders the profile lists
    the top receivers (Figure 5's pair table) and the mean / standard
    deviation of transactions per unique receiver (Figure 6's fan-out
    statistics, which tell baker payouts from airdrop-style
    one-transaction-per-receiver distributions).
    """

    name = "top_sender_receiver_pairs"

    def __init__(
        self,
        limit_senders: int = 5,
        limit_receivers_per_sender: int = 5,
    ):
        self.limit_senders = limit_senders
        self.limit_receivers_per_sender = limit_receivers_per_sender
        self.tally = ExactCounts("pairs", 2)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (sender, receiver) packed-code histogram.

        First-seen replay matters here: ``finalize`` breaks equal-count
        receiver ties by ``Counter.most_common`` insertion order.
        """
        self._reset(frame)
        sender_codes = frame.ndarray("sender_code")
        receiver_codes = frame.ndarray("receiver_code")
        add = self.tally.block_adder((len(frame.accounts), len(frame.accounts)))

        def consume(rows: RowIndices) -> None:
            if len(rows):
                add(block_columns(rows, sender_codes, receiver_codes))

        return consume

    def config_signature(self) -> tuple:
        return (
            type(self).__qualname__,
            self.name,
            self.limit_senders,
            self.limit_receivers_per_sender,
        )

    def finalize(self) -> List[SenderProfile]:
        frame = self._frame
        account_values = frame.accounts.values
        empty = frame.accounts.code("")
        per_sender: Dict[int, Dict[int, int]] = {}
        for (sender_code, receiver_code), count in self.tally.items():
            counter = per_sender.get(sender_code)
            if counter is None:
                counter = per_sender[sender_code] = {}
            counter[receiver_code] = counter.get(receiver_code, 0) + count
        ranked = heapq.nsmallest(
            self.limit_senders,
            per_sender.items(),
            key=lambda item: (-sum(item[1].values()), account_values[item[0]]),
        )
        profiles: List[SenderProfile] = []
        for sender_code, counts in ranked:
            counter = Counter(
                {
                    ("(none)" if code == empty else account_values[code]): count
                    for code, count in counts.items()
                }
            )
            sent_count = sum(counter.values())
            values = list(counter.values())
            unique = len(values)
            mean = sent_count / unique if unique else 0.0
            variance = (
                sum((count - mean) ** 2 for count in values) / unique if unique else 0.0
            )
            top = [
                (receiver, count, count / sent_count if sent_count else 0.0)
                for receiver, count in counter.most_common(self.limit_receivers_per_sender)
            ]
            profiles.append(
                SenderProfile(
                    sender=account_values[sender_code],
                    sent_count=sent_count,
                    unique_receivers=unique,
                    mean_per_receiver=mean,
                    stdev_per_receiver=math.sqrt(variance),
                    top_receivers=tuple(top),
                )
            )
        return profiles


class SenderCountsAccumulator(_TallyState, Accumulator):
    """Single-pass per-sender transaction counts (§3.3 statistics)."""

    name = "sender_counts"

    def __init__(self):
        self.tally = ExactCounts("counts", 1)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: per-sender histogram via one unique per block."""
        self._reset(frame)
        sender_codes = frame.ndarray("sender_code")
        add = self.tally.block_adder((len(frame.accounts),))

        def consume(rows: RowIndices) -> None:
            if len(rows):
                add(block_columns(rows, sender_codes))

        return consume

    def finalize(self) -> Dict[str, int]:
        account_values = self._frame.accounts.values
        return {account_values[code]: count for code, count in self.tally.items()}


def traffic_concentration(sender_counts: Dict[str, int], top_n: int = 18) -> float:
    """Share of all transactions sent by the ``top_n`` most active senders.

    ``sender_counts`` is a :class:`SenderCountsAccumulator` result.  The
    paper observes that the 18 most active XRP accounts are responsible for
    half of the total traffic (§3.3).
    """
    total = sum(sender_counts.values())
    if total == 0:
        return 0.0
    top = sum(heapq.nlargest(top_n, sender_counts.values()))
    return top / total


def single_transaction_account_share(sender_counts: Dict[str, int]) -> float:
    """Share of accounts that transacted exactly once in the window (§3.3),
    from a :class:`SenderCountsAccumulator` result."""
    if not sender_counts:
        return 0.0
    singles = sum(1 for count in sender_counts.values() if count == 1)
    return singles / len(sender_counts)
