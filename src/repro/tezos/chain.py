"""Tezos chain simulator: block baking with the 32-endorsement rule.

The simulated chain assembles blocks from submitted operations.  Every block
automatically carries the endorsement operations of the previous level
(at least 32 of them), which is why consensus maintenance dominates the
chain's measured throughput (Figure 1, Figure 3b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.blocklog import BlockLog
from repro.common.clock import SimulationClock
from repro.common.errors import ChainError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.tezos.accounts import TezosAccountRegistry
from repro.tezos.baking import BakerSet, ENDORSEMENTS_PER_BLOCK
from repro.tezos.operations import (
    OPERATION_CATEGORIES,
    OperationKind,
    TezosOperation,
    make_endorsement,
)

#: Average block interval in late 2019 (~60 seconds).
BLOCK_INTERVAL_SECONDS = 60.0


@dataclass
class TezosChainConfig:
    """Static parameters of the simulated Tezos chain."""

    chain_start: float = 0.0
    start_level: int = 1
    block_interval: float = BLOCK_INTERVAL_SECONDS
    endorsements_per_block: int = ENDORSEMENTS_PER_BLOCK
    #: Starting value of the operation-id counter, so window-sharded
    #: generation can carve disjoint id ranges per shard.
    operation_id_offset: int = 0


class TezosChain(BlockLog):
    """The simulated Tezos blockchain."""

    def __init__(
        self,
        config: Optional[TezosChainConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.config = config or TezosChainConfig()
        self.rng = rng or DeterministicRng(0)
        self.clock = SimulationClock(self.config.chain_start)
        self.accounts = TezosAccountRegistry(rng=self.rng.fork("accounts"))
        self.bakers = BakerSet(self.accounts, rng=self.rng.fork("baking"))
        super().__init__(self.config.start_level, "Tezos block {} has not been baked")
        self._level = self.config.start_level - 1
        self._operation_counter = self.config.operation_id_offset

    @property
    def head_level(self) -> int:
        return self._level

    def _next_operation_id(self) -> str:
        self._operation_counter += 1
        return f"xtzop{self._operation_counter:012d}"

    # -- state transition for manager operations ---------------------------------
    def _apply_operation(self, operation: TezosOperation, timestamp: float) -> Dict[str, object]:
        notes: Dict[str, object] = {}
        kind = operation.kind
        if kind is OperationKind.TRANSACTION:
            source = self.accounts.maybe_get(operation.source)
            destination = self.accounts.maybe_get(operation.destination)
            if source is None or destination is None:
                raise ChainError("transaction references an unknown account")
            source.debit(operation.amount_xtz + operation.fee_xtz)
            destination.credit(operation.amount_xtz)
        elif kind is OperationKind.DELEGATION:
            self.accounts.delegate(operation.source, operation.destination)
        elif kind is OperationKind.ORIGINATION:
            originated = self.accounts.originate(
                operation.source, balance=operation.amount_xtz, created_at=timestamp
            )
            notes["originated"] = originated.address
        elif kind is OperationKind.REVEAL:
            self.accounts.get(operation.source).revealed = True
        elif kind is OperationKind.ACTIVATE:
            account = self.accounts.maybe_get(operation.source)
            if account is None:
                account = self.accounts.create_implicit(
                    balance=0.0, created_at=timestamp, address=operation.source
                )
            account.activated = True
            account.credit(operation.amount_xtz)
        # Endorsements, ballots, proposals and evidence only affect consensus
        # and governance bookkeeping, not account balances.
        return notes

    def _record_for_operation(
        self,
        operation: TezosOperation,
        level: int,
        timestamp: float,
        success: bool,
        notes: Dict[str, object],
    ) -> TransactionRecord:
        kind, source, destination, amount_xtz, fee_xtz, data = operation
        metadata = dict(data)
        metadata.update(notes)
        metadata["category"] = OPERATION_CATEGORIES[kind].value
        # Positional, in ``TransactionRecord`` field order: one per row.
        return tuple.__new__(
            TransactionRecord,
            (
                ChainId.TEZOS,
                self._next_operation_id(),
                level,
                timestamp,
                kind.value,
                source,
                destination,
                "",
                amount_xtz,
                "XTZ" if amount_xtz else "",
                "",
                fee_xtz,
                success,
                "",
                metadata,
            ),
        )

    # -- baking --------------------------------------------------------------------
    def bake_block(
        self,
        operations: Iterable[TezosOperation],
        endorsers: Optional[Sequence[str]] = None,
    ) -> BlockRecord:
        """Bake the next block carrying ``operations`` plus the endorsements.

        ``endorsers`` overrides the endorsement-slot selection (used by tests
        to exercise the "fewer than 32 endorsements" rejection path).
        """
        level = self._level + 1
        timestamp = self.clock.now
        baking_right = self.bakers.baking_right(level)
        if endorsers is None:
            endorsers = self.bakers.endorsement_rights(level, self.config.endorsements_per_block)
        if not self.bakers.validate_endorsements(endorsers):
            raise ChainError(
                f"block at level {level} carries {len(endorsers)} endorsements,"
                f" fewer than the required {ENDORSEMENTS_PER_BLOCK}"
            )
        records: List[TransactionRecord] = []
        # Endorsements of the previous level come first, as on the real chain.
        for endorser in endorsers:
            endorsement = make_endorsement(endorser, endorsed_level=level - 1)
            records.append(
                self._record_for_operation(endorsement, level, timestamp, True, {})
            )
        for operation in operations:
            try:
                notes = self._apply_operation(operation, timestamp)
                success = True
            except ChainError as exc:
                notes = {"error": str(exc)}
                success = False
            records.append(
                self._record_for_operation(operation, level, timestamp, success, notes)
            )
        block = BlockRecord(
            chain=ChainId.TEZOS,
            height=level,
            timestamp=timestamp,
            producer=baking_right.baker,
            transactions=tuple(records),
            block_id=self.rng.hex_string(51),
            previous_id=self.blocks[-1].block_id if self.blocks else "",
            metadata={"endorsement_count": len(endorsers)},
        )
        self.blocks.append(block)
        self._level = level
        self.clock.advance(self.config.block_interval)
        return block
