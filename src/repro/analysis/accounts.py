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
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.common import statsmode
from repro.common.columns import FrameLike, TxFrame, as_frame
from repro.common.errors import AnalysisError
from repro.common.records import TransactionRecord
from repro.common.sketches import DEFAULT_HEAVY_HITTERS, SpaceSaving
from repro.analysis.engine import Accumulator, BatchStep, RowIndices, Step
from repro.analysis.vectorized import (
    DENSE_KEYSPACE_MAX,
    block_columns,
    count_codes,
    dense_space,
    fold_dense,
)
from repro.common.statecodec import pack_code_table, restore_code_table

#: Scratch-tally entries a sketch-mode accumulator holds before folding the
#: scratch into its space-saving summary.  Folding is O(scratch), so a limit
#: of a few sketch capacities keeps the amortised per-key cost O(1) while
#: bounding live state at scratch + 2×capacity entries.
_SCRATCH_LIMIT = 3 * DEFAULT_HEAVY_HITTERS


class _HeavyHitterSupport:
    """Shared sketch-mode plumbing of the account accumulators.

    The exact kernels are untouched in sketch mode: both kernels keep
    folding rows into the exact scratch ``Counter``, and the wrapper
    installed by :meth:`_bounded` drains the scratch into a
    :class:`~repro.common.sketches.SpaceSaving` summary whenever it exceeds
    :data:`_SCRATCH_LIMIT` (and at every observation point — merge, export,
    finalize).  Below the sketch capacity nothing is ever evicted,
    so sketch-mode figures are identical to exact mode on the paper
    workloads; beyond it, state stays bounded and every retained estimate
    carries its documented over-count error.

    Rows whose ranking account is the empty string are dropped at fold time
    (exact mode drops them at finalize), which keeps the summary's exact
    ``total`` equal to the chain total the share computations divide by.
    """

    def _configure_stats(
        self, stats: Optional[str], capacity: int = DEFAULT_HEAVY_HITTERS
    ) -> None:
        self.stats_mode = statsmode.resolve(stats)
        self.capacity = capacity

    def _stats_signature(self) -> tuple:
        # Exact mode keeps the historical signature, so pre-sketch
        # checkpoints stay restorable.
        if self.stats_mode != statsmode.SKETCH:
            return ()
        return (("sketch", "ss", self.capacity),)

    def _reset_sketch(self, frame: TxFrame, scratch, tuple_keys: bool) -> None:
        """Reset sketch-side state at bind time (no-op in exact mode)."""
        if self.stats_mode != statsmode.SKETCH:
            self._sketch: Optional[SpaceSaving] = None
            return
        self._sketch = SpaceSaving(self.capacity)
        self._scratch = scratch
        self._tuple_keys = tuple_keys
        empty = frame.accounts.code("")
        self._empty_code = -1 if empty is None else empty

    def _bounded(self, consume):
        """Wrap a step/consume callable with the scratch-limit fold."""
        sketch = self._sketch
        if sketch is None:
            return consume
        scratch = self._scratch
        fold = self._fold_scratch

        def consume_bounded(rows) -> None:
            consume(rows)
            if len(scratch) > _SCRATCH_LIMIT:
                fold()

        return consume_bounded

    def _fold_scratch(self) -> None:
        scratch = self._scratch
        if not scratch:
            return
        add = self._sketch.add
        empty = self._empty_code
        if self._tuple_keys:
            for key, count in scratch.items():
                if key[0] != empty:
                    add(key, count)
        else:
            for key, count in scratch.items():
                if key != empty:
                    add(key, count)
        scratch.clear()

    def _flush_dense(self) -> None:
        """Fold a pending dense histogram into the scratch (none by default)."""

    def _drain(self) -> None:
        """Flush every pending exact tally into the sketch."""
        self._flush_dense()
        self._fold_scratch()

    def _check_merge_mode(self, other) -> None:
        if self.stats_mode != other.stats_mode:
            raise AnalysisError(
                f"cannot merge {other.stats_mode!r}-mode {self.name} state "
                f"into an {self.stats_mode!r}-mode accumulator"
            )

    def _export_sketch(self) -> Dict:
        self._drain()
        return {"ss": self._sketch.export_state()}

    def _restore_sketch(self, payload: Dict) -> None:
        if "ss" not in payload:
            raise AnalysisError(
                f"{self.name} payload has exact-mode state; sketch-mode "
                "restore requires a rescan"
            )
        self._sketch.restore_state(payload["ss"])

    def _reject_sketch_payload(self, payload: Dict) -> None:
        if "ss" in payload:
            raise AnalysisError(
                f"{self.name} payload has sketch-mode state; exact-mode "
                "restore requires a rescan"
            )


@dataclass(frozen=True)
class AccountActivity:
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


class AccountActivityAccumulator(_HeavyHitterSupport, Accumulator):
    """Single-pass account ranking with per-type breakdowns.

    ``side`` selects the sender or receiver column.  Counts are kept per
    (account code → type code) so the hot loop never touches a string; the
    ``limit`` busiest accounts are selected with a heap at finalise time.
    In sketch mode the unbounded pair tally becomes a space-saving summary
    (see :class:`_HeavyHitterSupport`).
    """

    def __init__(
        self, side: str = "sender", limit: int = 10, stats: Optional[str] = None
    ):
        if side not in ("sender", "receiver"):
            raise ValueError("side must be 'sender' or 'receiver'")
        self.side = side
        self.limit = limit
        self.name = f"top_{side}s"
        self._configure_stats(stats)

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._pair_counts: Counter = Counter()
        #: Pending (dense count vector, column bounds) of the block kernel.
        self._dense: Optional[tuple] = None
        self._reset_sketch(frame, self._pair_counts, tuple_keys=True)

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        counts = self._pair_counts
        codes = frame.sender_code if self.side == "sender" else frame.receiver_code
        type_codes = frame.type_code

        def step(row: int) -> None:
            counts[(codes[row], type_codes[row])] += 1

        return self._bounded(step)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (account, type) dense packed-code histogram.

        The hot loop is one ``np.bincount`` accumulated into a per-bind
        ``int64`` vector — no Counter, no ``np.unique`` sort, no per-key
        Python work until the state is first observed (merge, export or
        finalize), when :meth:`_flush_dense` materialises the
        Counter.  The dense kernel is licensed here because
        :meth:`finalize` is insertion-order independent (type breakdowns
        sort by count/name, accounts heap-select with name tie-breaks);
        key spaces too large for a dense vector fall back to the
        first-seen-ordered :func:`~repro.analysis.vectorized.count_codes`
        path.
        """
        self._reset(frame)
        counts = self._pair_counts
        codes = frame.ndarray(
            "sender_code" if self.side == "sender" else "receiver_code"
        )
        type_codes = frame.ndarray("type_code")
        sizes = (len(frame.accounts), len(frame.types))
        space = dense_space(sizes)
        if space > DENSE_KEYSPACE_MAX:

            def consume(rows: RowIndices) -> None:
                if not len(rows):
                    return
                count_codes(counts, block_columns(rows, codes, type_codes), sizes)

            return self._bounded(consume)

        dense = np.zeros(space, dtype=np.int64)
        self._dense = (dense, sizes)
        radix = max(len(frame.types), 1)

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            account_block, type_block = block_columns(rows, codes, type_codes)
            block = np.bincount(account_block.astype(np.int64) * radix + type_block)
            dense[: len(block)] += block

        return consume

    def _flush_dense(self) -> None:
        """Fold any pending dense histogram into the Counter state."""
        pending = self._dense
        if pending is None:
            return
        self._dense = None
        fold_dense(self._pair_counts, pending[0], pending[1])

    def merge(self, other: "AccountActivityAccumulator") -> None:
        self._check_merge_mode(other)
        if self._sketch is not None:
            self._drain()
            other._drain()
            self._sketch.merge(other._sketch)
            return
        self._flush_dense()
        other._flush_dense()
        self._pair_counts.update(other._pair_counts)

    def export_state(self) -> Dict:
        if self._sketch is not None:
            return self._export_sketch()
        self._flush_dense()
        return {"pairs": pack_code_table(self._pair_counts, 2)}

    def restore_state(self, payload: Dict) -> None:
        if self._sketch is not None:
            self._restore_sketch(payload)
            return
        self._reject_sketch_payload(payload)
        restore_code_table(self._pair_counts, payload["pairs"])

    def config_signature(self) -> tuple:
        return (
            type(self).__qualname__,
            self.name,
            self.side,
            self.limit,
        ) + self._stats_signature()

    def finalize(self) -> List[AccountActivity]:
        self._flush_dense()
        frame = self._frame
        account_values = frame.accounts.values
        type_values = frame.types.values
        empty = frame.accounts.code("")
        # Group the (account, type) pair counts per account; Counter iteration
        # order is first-seen order, so each account's types keep row order.
        per_account: Dict[int, Dict[int, int]] = {}
        chain_total = 0
        if self._sketch is not None:
            # Sketch mode: empty-account rows were dropped at fold time, so
            # the summary's exact total *is* the chain total; the estimates
            # keep first-seen order below capacity.
            self._fold_scratch()
            pair_items = self._sketch.counts().items()
            chain_total = self._sketch.total
            for (account_code, type_code), count in pair_items:
                counter = per_account.get(account_code)
                if counter is None:
                    counter = per_account[account_code] = {}
                counter[type_code] = counter.get(type_code, 0) + count
        else:
            for (account_code, type_code), count in self._pair_counts.items():
                if account_code == empty:
                    continue
                counter = per_account.get(account_code)
                if counter is None:
                    counter = per_account[account_code] = {}
                counter[type_code] = counter.get(type_code, 0) + count
                chain_total += count
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


def _top_accounts_by_key(
    records: Iterable[TransactionRecord],
    limit: int,
    key: Callable[[TransactionRecord], str],
) -> List[AccountActivity]:
    """Record-level fallback for callers ranking by a custom key function."""
    per_account: Dict[str, Counter] = defaultdict(Counter)
    chain_total = 0
    for record in records:
        account = key(record)
        if not account:
            continue
        per_account[account][record.type] += 1
        chain_total += 1
    ranked = sorted(per_account.items(), key=lambda item: (-sum(item[1].values()), item[0]))
    result = []
    for account, counter in ranked[:limit]:
        total = sum(counter.values())
        result.append(
            AccountActivity(
                account=account,
                total=total,
                share_of_chain=total / chain_total if chain_total else 0.0,
                type_breakdown=_breakdown(counter),
            )
        )
    return result


def top_receivers(
    records: Union[FrameLike, Iterable[TransactionRecord]],
    limit: int = 10,
    key: Optional[Callable[[TransactionRecord], str]] = None,
) -> List[AccountActivity]:
    """Accounts ranked by received transactions, with action breakdown (Figure 4)."""
    if key is not None:
        # Custom keys need the materialised record; frames iterate as records.
        return _top_accounts_by_key(records, limit, key)
    return AccountActivityAccumulator("receiver", limit).run(as_frame(records))


def top_senders(
    records: Union[FrameLike, Iterable[TransactionRecord]],
    limit: int = 10,
    key: Optional[Callable[[TransactionRecord], str]] = None,
) -> List[AccountActivity]:
    """Accounts ranked by sent transactions, with type breakdown (Figure 8)."""
    if key is not None:
        # Custom keys need the materialised record; frames iterate as records.
        return _top_accounts_by_key(records, limit, key)
    return AccountActivityAccumulator("sender", limit).run(as_frame(records))


@dataclass(frozen=True)
class SenderProfile:
    """One row of Figure 6: fan-out statistics of a top sender."""

    sender: str
    sent_count: int
    unique_receivers: int
    mean_per_receiver: float
    stdev_per_receiver: float
    top_receivers: Tuple[Tuple[str, int, float], ...]


class SenderReceiverPairsAccumulator(_HeavyHitterSupport, Accumulator):
    """Single-pass Figure 5/6 profiles: top senders and their receiver fan-out."""

    name = "top_sender_receiver_pairs"

    def __init__(
        self,
        limit_senders: int = 5,
        limit_receivers_per_sender: int = 5,
        stats: Optional[str] = None,
    ):
        self.limit_senders = limit_senders
        self.limit_receivers_per_sender = limit_receivers_per_sender
        self._configure_stats(stats)

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._pair_counts: Counter = Counter()
        self._reset_sketch(frame, self._pair_counts, tuple_keys=True)

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        counts = self._pair_counts
        sender_codes = frame.sender_code
        receiver_codes = frame.receiver_code

        def step(row: int) -> None:
            counts[(sender_codes[row], receiver_codes[row])] += 1

        return self._bounded(step)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: (sender, receiver) packed-code histogram.

        First-seen replay matters here: ``finalize`` breaks equal-count
        receiver ties by ``Counter.most_common`` insertion order.
        """
        self._reset(frame)
        counts = self._pair_counts
        sender_codes = frame.ndarray("sender_code")
        receiver_codes = frame.ndarray("receiver_code")
        sizes = (len(frame.accounts), len(frame.accounts))

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(
                counts, block_columns(rows, sender_codes, receiver_codes), sizes
            )

        return self._bounded(consume)

    def merge(self, other: "SenderReceiverPairsAccumulator") -> None:
        self._check_merge_mode(other)
        if self._sketch is not None:
            self._drain()
            other._drain()
            self._sketch.merge(other._sketch)
            return
        self._pair_counts.update(other._pair_counts)

    def export_state(self) -> Dict:
        if self._sketch is not None:
            return self._export_sketch()
        return {"pairs": pack_code_table(self._pair_counts, 2)}

    def restore_state(self, payload: Dict) -> None:
        if self._sketch is not None:
            self._restore_sketch(payload)
            return
        self._reject_sketch_payload(payload)
        restore_code_table(self._pair_counts, payload["pairs"])

    def config_signature(self) -> tuple:
        return (
            type(self).__qualname__,
            self.name,
            self.limit_senders,
            self.limit_receivers_per_sender,
        ) + self._stats_signature()

    def finalize(self) -> List[SenderProfile]:
        frame = self._frame
        account_values = frame.accounts.values
        empty = frame.accounts.code("")
        per_sender: Dict[int, Dict[int, int]] = {}
        if self._sketch is not None:
            # Empty-sender rows were dropped at fold time; estimates keep
            # first-seen order below capacity (the most_common tie-breaks).
            self._fold_scratch()
            pair_items = self._sketch.counts().items()
        else:
            pair_items = self._pair_counts.items()
        for (sender_code, receiver_code), count in pair_items:
            if sender_code == empty:
                continue
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


def top_sender_receiver_pairs(
    records: Union[FrameLike, Iterable[TransactionRecord]],
    limit_senders: int = 5,
    limit_receivers_per_sender: int = 5,
) -> List[SenderProfile]:
    """Figure 5 / Figure 6: top senders with their receiver distribution.

    For each of the ``limit_senders`` most active senders the profile lists
    the top receivers (Figure 5's pair table) and the mean / standard
    deviation of transactions per unique receiver (Figure 6's fan-out
    statistics, which distinguish baker-payout patterns from airdrop-style
    one-transaction-per-receiver distributions).
    """
    accumulator = SenderReceiverPairsAccumulator(limit_senders, limit_receivers_per_sender)
    return accumulator.run(as_frame(records))


class SenderCountsAccumulator(_HeavyHitterSupport, Accumulator):
    """Single-pass per-sender transaction counts (§3.3 statistics)."""

    name = "sender_counts"

    def __init__(self, stats: Optional[str] = None):
        self._configure_stats(stats)

    def _reset(self, frame: TxFrame) -> None:
        self._frame = frame
        self._counts: Counter = Counter()
        self._reset_sketch(frame, self._counts, tuple_keys=False)

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        counts = self._counts
        sender_codes = frame.sender_code

        def step(row: int) -> None:
            counts[sender_codes[row]] += 1

        return self._bounded(step)

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized kernel: per-sender histogram via one unique per block."""
        self._reset(frame)
        counts = self._counts
        sender_codes = frame.ndarray("sender_code")

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            count_codes(counts, block_columns(rows, sender_codes), (len(frame.accounts),))

        return self._bounded(consume)

    def merge(self, other: "SenderCountsAccumulator") -> None:
        self._check_merge_mode(other)
        if self._sketch is not None:
            self._drain()
            other._drain()
            self._sketch.merge(other._sketch)
            return
        self._counts.update(other._counts)

    def export_state(self) -> Dict:
        if self._sketch is not None:
            return self._export_sketch()
        return {"counts": pack_code_table(self._counts, 1)}

    def restore_state(self, payload: Dict) -> None:
        if self._sketch is not None:
            self._restore_sketch(payload)
            return
        self._reject_sketch_payload(payload)
        restore_code_table(self._counts, payload["counts"])

    def config_signature(self) -> tuple:
        return (type(self).__qualname__, self.name) + self._stats_signature()

    def finalize(self) -> Dict[str, int]:
        account_values = self._frame.accounts.values
        empty = self._frame.accounts.code("")
        if self._sketch is not None:
            # Empty senders were dropped at fold time.
            self._fold_scratch()
            return {
                account_values[code]: count
                for code, count in self._sketch.counts().items()
            }
        return {
            account_values[code]: count
            for code, count in self._counts.items()
            if code != empty
        }


def traffic_concentration(
    records: Union[FrameLike, Iterable[TransactionRecord]], top_n: int = 18
) -> float:
    """Share of all transactions sent by the ``top_n`` most active senders.

    The paper observes that the 18 most active XRP accounts are responsible
    for half of the total traffic (§3.3).
    """
    distribution = SenderCountsAccumulator().run(as_frame(records))
    total = sum(distribution.values())
    if total == 0:
        return 0.0
    top = sum(heapq.nlargest(top_n, distribution.values()))
    return top / total


def transactions_per_account_distribution(
    records: Union[FrameLike, Iterable[TransactionRecord]],
) -> Dict[str, int]:
    """Number of transactions initiated per account (sender side)."""
    return SenderCountsAccumulator().run(as_frame(records))


def single_transaction_account_share(
    records: Union[FrameLike, Iterable[TransactionRecord]]
) -> float:
    """Share of accounts that transacted exactly once in the window (§3.3)."""
    distribution = SenderCountsAccumulator().run(as_frame(records))
    if not distribution:
        return 0.0
    singles = sum(1 for count in distribution.values() if count == 1)
    return singles / len(distribution)
