"""EOS chain simulator: DPoS production schedule and block assembly.

EOS produces one block every 0.5 seconds.  The 21 block producers with the
highest stake take turns in rounds of 126 blocks (6 consecutive blocks per
producer); the schedule for a round is fixed before the round starts
(§2.2).  The simulator rotates its 21 configured producers in that
order (no producer vote moves a row, so none is modelled), applies submitted
transactions through the contract registry and the resource market, and
emits canonical :class:`~repro.common.records.BlockRecord` objects that the
collection and analysis layers consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.blocklog import BlockLog
from repro.common.clock import SimulationClock
from repro.common.errors import ChainError
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.eos.accounts import EosAccountRegistry
from repro.eos.actions import EosAction
from repro.eos.contracts import ContractRegistry, ContractResult, EosContract
from repro.eos.resources import EosResourceMarket

BLOCK_INTERVAL_SECONDS = 0.5
BLOCKS_PER_PRODUCER_TURN = 6
ACTIVE_PRODUCER_COUNT = 21
BLOCKS_PER_ROUND = BLOCKS_PER_PRODUCER_TURN * ACTIVE_PRODUCER_COUNT


class _EosTransactionFields(NamedTuple):
    transaction_id: str
    actions: Tuple[EosAction, ...]
    cpu_us: float = 200.0
    net_bytes: float = 100.0


class EosTransaction(_EosTransactionFields):
    """A submitted EOS transaction: an ordered list of actions.

    A tuple rather than a frozen dataclass: the workload submits one per
    transaction, and a frozen dataclass pays one ``object.__setattr__`` per
    field plus a ``__post_init__`` call.
    """

    __slots__ = ()

    def __new__(
        cls,
        transaction_id: str,
        actions: Tuple[EosAction, ...],
        cpu_us: float = 200.0,
        net_bytes: float = 100.0,
    ) -> "EosTransaction":
        if not actions:
            raise ChainError("an EOS transaction must carry at least one action")
        return tuple.__new__(cls, (transaction_id, actions, cpu_us, net_bytes))


@dataclass
class EosChainConfig:
    """Static parameters of the simulated EOS chain."""

    chain_start: float = 0.0
    start_height: int = 1
    producers: Sequence[str] = field(
        default_factory=lambda: tuple(f"producer{index + 1:02d}a" for index in range(ACTIVE_PRODUCER_COUNT))
    )
    block_interval: float = BLOCK_INTERVAL_SECONDS

    def __post_init__(self) -> None:
        if len(self.producers) < ACTIVE_PRODUCER_COUNT:
            raise ChainError(
                f"EOS requires {ACTIVE_PRODUCER_COUNT} active producers, got {len(self.producers)}"
            )


class EosChain(BlockLog):
    """The simulated EOS blockchain."""

    def __init__(
        self,
        config: Optional[EosChainConfig] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.config = config or EosChainConfig()
        self.rng = rng or DeterministicRng(0)
        self.clock = SimulationClock(self.config.chain_start)
        self.accounts = EosAccountRegistry()
        self.contracts = ContractRegistry()
        self.resources = EosResourceMarket()
        super().__init__(self.config.start_height, "EOS block {} has not been produced")
        self._height = self.config.start_height - 1
        self._schedule: List[str] = list(self.config.producers[:ACTIVE_PRODUCER_COUNT])
        self._rejected_count = 0

    # -- producer schedule ---------------------------------------------------
    def producer_for_height(self, height: int) -> str:
        """Scheduled producer for ``height`` under the round-robin DPoS order."""
        offset = (height - self.config.start_height) % BLOCKS_PER_ROUND
        slot = offset // BLOCKS_PER_PRODUCER_TURN
        return self._schedule[slot]

    # -- chain state -----------------------------------------------------------
    @property
    def head_height(self) -> int:
        return self._height

    @property
    def rejected_transactions(self) -> int:
        """Transactions dropped for lack of CPU (congestion-mode rejections)."""
        return self._rejected_count

    def deploy_contract(self, contract: EosContract) -> None:
        """Deploy a contract and mark its account as a contract account."""
        self.contracts.deploy(contract)
        account = self.accounts.maybe_get(contract.account)
        if account is None:
            account = self.accounts.create(contract.account, created_at=self.clock.now)
        account.is_contract = True
        account.contract_name = type(contract).__name__

    def _apply_action(self, action: EosAction, timestamp: float) -> ContractResult:
        contract = self.contracts.get(action.contract)
        if contract is None or not contract.handles(action.name):
            # Unknown contracts still record the action (the chain stores it);
            # there is simply no state transition beyond the record itself.
            return ContractResult(applied=True, notes={"unhandled": True})
        return contract.apply(action, self.accounts, timestamp)

    def produce_block(self, transactions: Iterable[EosTransaction]) -> BlockRecord:
        """Assemble, apply and append one block containing ``transactions``."""
        height = self._height + 1
        timestamp = self.clock.now
        producer = self.producer_for_height(height)
        records: List[TransactionRecord] = []
        records_append = records.append
        new_record = tuple.__new__
        for transaction in transactions:
            transaction_id, actions, cpu_us, net_bytes = transaction
            if not self.resources.charge(actions[0].actor, cpu_us, net_bytes):
                self._rejected_count += 1
                continue
            # Breadth first: the submitted actions, then whatever they queued
            # inline, so every action past the submitted count is an inline one.
            pending = deque(actions)
            submitted = len(pending)
            applied = 0
            while pending:
                action = pending.popleft()
                contract, name, actor, receiver, data = action
                try:
                    result = self._apply_action(action, timestamp)
                except ChainError as exc:
                    result = ContractResult(applied=False, notes={"error": str(exc)})
                # The result is this action's own and is dropped after the
                # record is built, so its notes become the record's metadata
                # without a copy.
                metadata = result.notes
                if applied >= submitted:
                    metadata["inline"] = True
                transfer_to = data.get("to")
                if transfer_to is not None:
                    # The canonical "receiver" for EOS is the account the
                    # action is delivered to (the contract), matching the
                    # paper's Figure 4/5 accounting; the token recipient is
                    # preserved in metadata.
                    metadata["transfer_to"] = str(transfer_to)
                # Positional, in ``TransactionRecord`` field order: one per row.
                records_append(
                    new_record(
                        TransactionRecord,
                        (
                            ChainId.EOS,
                            transaction_id,
                            height,
                            timestamp,
                            name,
                            actor,
                            receiver,
                            contract,
                            float(data.get("quantity", data.get("amount", 0.0)) or 0.0),
                            str(data.get("symbol", "")),
                            "",
                            0.0,
                            result.applied,
                            "",
                            metadata,
                        ),
                    )
                )
                applied += 1
                pending.extend(result.inline_actions)
        block = BlockRecord(
            chain=ChainId.EOS,
            height=height,
            timestamp=timestamp,
            producer=producer,
            transactions=tuple(records),
            block_id=self.rng.hex_string(64),
            previous_id=self.blocks[-1].block_id if self.blocks else "",
            metadata={
                "congested": self.resources.congested,
                "cpu_utilization": self.resources.utilization(),
            },
        )
        self.resources.end_block(timestamp)
        self.blocks.append(block)
        self._height = height
        self.clock.advance(self.config.block_interval)
        return block
