"""XRP ledger close loop and a simplified consensus model.

The XRP Ledger Consensus Protocol closes a new ledger version every few
seconds once the validators on overlapping Unique Node Lists (UNLs) agree on
a transaction set; the paper notes that convergence requires roughly 90 %
UNL overlap (§2.2).  The simulator keeps a lightweight model of that check
(validators and their UNL overlap) and focuses on what the measurement needs:
every submitted transaction — successful or not — is recorded in a closed
ledger together with its result code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.blocklog import BlockLog
from repro.common.clock import SimulationClock
from repro.common.errors import ChainError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.xrp.accounts import XrpAccountRegistry
from repro.xrp.orderbook import OrderBook
from repro.xrp.transactions import AppliedTransaction, XrpTransaction, XrpTransactionEngine
from repro.xrp.trustlines import TrustLineTable

#: Average ledger close interval in late 2019 (~4 seconds).
LEDGER_CLOSE_SECONDS = 4.0

#: Minimum UNL overlap required for convergence (§2.2).
UNL_OVERLAP_THRESHOLD = 0.9


@dataclass(frozen=True)
class Validator:
    """One validator and the unique node list it listens to."""

    name: str
    unl: frozenset

    def overlap_with(self, other: "Validator") -> float:
        """Fraction of this validator's UNL shared with ``other``'s UNL."""
        if not self.unl:
            return 0.0
        return len(self.unl & other.unl) / len(self.unl)


def check_unl_convergence(validators: Sequence[Validator]) -> bool:
    """Whether every pair of validators overlaps by at least 90 %."""
    for first in validators:
        for second in validators:
            if first.name == second.name:
                continue
            if first.overlap_with(second) < UNL_OVERLAP_THRESHOLD:
                return False
    return True


@dataclass
class XrpLedgerConfig:
    """Static parameters of the simulated XRP ledger."""

    chain_start: float = 0.0
    start_index: int = 1
    close_interval: float = LEDGER_CLOSE_SECONDS
    validator_count: int = 5
    #: Starting value of the transaction-id counter, so window-sharded
    #: generation can carve disjoint id ranges per shard.
    transaction_id_offset: int = 0


class XrpLedger(BlockLog):
    """The simulated XRP ledger: state + close loop producing block records."""

    def __init__(
        self,
        config: Optional[XrpLedgerConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.config = config or XrpLedgerConfig()
        self.rng = rng or DeterministicRng(0)
        self.clock = SimulationClock(self.config.chain_start)
        self.accounts = XrpAccountRegistry(rng=self.rng.fork("accounts"))
        self.trustlines = TrustLineTable()
        self.orderbook = OrderBook()
        self.engine = XrpTransactionEngine(self.accounts, self.trustlines, self.orderbook)
        self.validators = self._build_validators(self.config.validator_count)
        super().__init__(self.config.start_index, "XRP ledger {} has not been closed")
        self._ledger_index = self.config.start_index - 1
        self._tx_counter = self.config.transaction_id_offset

    @staticmethod
    def _build_validators(count: int) -> List[Validator]:
        names = [f"validator{index + 1}" for index in range(count)]
        unl = frozenset(names)
        return [Validator(name=name, unl=unl) for name in names]

    @property
    def head_index(self) -> int:
        return self._ledger_index

    def _next_tx_id(self) -> str:
        self._tx_counter += 1
        return f"xrptx{self._tx_counter:012d}"

    def _record_for(
        self, applied: AppliedTransaction, index: int, timestamp: float
    ) -> TransactionRecord:
        transaction, result, fee_xrp, executions, offer_id, _ = applied
        taker_gets = transaction.taker_gets
        taker_pays = transaction.taker_pays
        reference = transaction.amount or taker_gets
        metadata: Dict[str, object] = dict(transaction.data)
        if transaction.destination_tag is not None:
            metadata["destination_tag"] = transaction.destination_tag
        if taker_gets is not None and taker_pays is not None:
            metadata["taker_gets"] = taker_gets.to_dict()
            metadata["taker_pays"] = taker_pays.to_dict()
        if offer_id:
            metadata["offer_id"] = offer_id
        if executions:
            metadata["executed"] = True
            metadata["execution_count"] = len(executions)
        success = result.is_success
        # Positional, in ``TransactionRecord`` field order: one per row.
        return tuple.__new__(
            TransactionRecord,
            (
                ChainId.XRP,
                self._next_tx_id(),
                index,
                timestamp,
                transaction.type.value,
                transaction.account,
                transaction.destination,
                "",
                0.0 if reference is None else reference.value,
                "" if reference is None else reference.currency,
                "" if reference is None else reference.issuer,
                fee_xrp,
                success,
                "" if success else result.value,
                metadata,
            ),
        )

    def close_ledger(self, transactions: Iterable[XrpTransaction]) -> BlockRecord:
        """Apply ``transactions`` and close the next ledger version."""
        if not check_unl_convergence(self.validators):
            raise ChainError("validator UNLs overlap below 90%: consensus not assured")
        index = self._ledger_index + 1
        timestamp = self.clock.now
        records: List[TransactionRecord] = []
        for transaction in transactions:
            try:
                applied = self.engine.apply(transaction, timestamp)
            except ChainError:
                # Transactions from unknown accounts never reach a ledger.
                continue
            records.append(self._record_for(applied, index, timestamp))
        block = BlockRecord(
            chain=ChainId.XRP,
            height=index,
            timestamp=timestamp,
            producer="consensus",
            transactions=tuple(records),
            block_id=self.rng.hex_string(64),
            previous_id=self.blocks[-1].block_id if self.blocks else "",
            metadata={"validator_count": len(self.validators)},
        )
        self.blocks.append(block)
        self._ledger_index = index
        self.clock.advance(self.config.close_interval)
        return block
