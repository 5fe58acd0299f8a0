"""Calibrated Tezos workload generator.

Regenerates the shape of the Tezos traffic the paper observed
(2019-09-29 → 2019-12-31):

* every baked block carries 32 endorsement operations, so consensus
  maintenance accounts for ~82 % of all operations (Figure 1, Figure 3b);
* manager operations are dominated by peer-to-peer transactions (~16 % of
  total), with small numbers of reveals, delegations, originations and
  activations;
* governance operations are extremely rare (245 in the whole window);
* the most active senders follow two patterns (Figure 6): baker payout
  accounts that pay each of their delegators repeatedly, and airdrop-style
  distributors that send exactly one transaction to tens of thousands of
  distinct accounts;
* the Babylon 2.0 amendment vote series of Figure 9 is generated from the
  published timeline and participation rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.common.clock import SECONDS_PER_DAY, timestamp_from_iso
from repro.common.records import BlockRecord, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.tezos.baking import ROLL_SIZE_XTZ
from repro.tezos.chain import TezosChain, TezosChainConfig
from repro.tezos.governance import BabylonTimeline, VoteEvent, VotingPeriodKind
from repro.tezos.operations import (
    OperationKind,
    TezosOperation,
    make_activation,
    make_ballot,
    make_delegation,
    make_origination,
    make_proposal,
    make_reveal,
    make_transaction,
)

#: Share of manager (non-endorsement) operations per kind, from Figure 1.
MANAGER_OPERATION_MIX: Dict[str, float] = {
    "transaction": 0.885,
    "reveal": 0.044,
    "reveal_nonce": 0.044,
    "delegation": 0.022,
    "origination": 0.003,
    "activate": 0.0015,
    "governance": 0.0005,
}


@dataclass
class TezosWorkloadConfig:
    """Knobs of the calibrated Tezos workload."""

    start_date: str = "2019-09-29"
    end_date: str = "2020-01-01"
    #: Virtual blocks per day (the real chain bakes ~1,440; scaled down).
    blocks_per_day: int = 24
    #: Mean number of manager operations per block; with 32 endorsements per
    #: block a mean of ~7.2 reproduces the 82 % endorsement share.
    manager_operations_per_block: float = 7.2
    baker_count: int = 12
    user_account_count: int = 300
    #: Number of airdrop-style distributor accounts (Figure 6 pattern 2).
    distributor_count: int = 2
    #: Number of baker payout accounts (Figure 6 pattern 1).
    payout_account_count: int = 3
    #: Level of the first generated block (the paper window's real start).
    #: Window-sharded generation continues a previous shard's level range.
    start_level: int = 628_951
    #: Starting value of the operation-id counter; window shards carve
    #: disjoint id ranges so concatenated shards never collide on ids.
    operation_id_offset: int = 0
    seed: int = 11

    def __post_init__(self) -> None:
        if self.blocks_per_day <= 0:
            raise ValueError("blocks_per_day must be positive")
        if self.manager_operations_per_block < 0:
            raise ValueError("manager_operations_per_block must be non-negative")
        if self.baker_count < 1:
            raise ValueError("baker_count must be at least 1")
        if timestamp_from_iso(self.end_date) <= timestamp_from_iso(self.start_date):
            raise ValueError("end_date must be after start_date")

    @property
    def start_timestamp(self) -> float:
        return timestamp_from_iso(self.start_date)

    @property
    def end_timestamp(self) -> float:
        return timestamp_from_iso(self.end_date)

    @property
    def total_days(self) -> float:
        return (self.end_timestamp - self.start_timestamp) / SECONDS_PER_DAY


class TezosWorkloadGenerator:
    """Drives a :class:`TezosChain` with the calibrated operation mix."""

    def __init__(self, config: Optional[TezosWorkloadConfig] = None):
        self.config = config or TezosWorkloadConfig()
        self.rng = DeterministicRng(self.config.seed)
        self.chain = self._build_chain()
        self.bakers: List[str] = []
        self.users: List[str] = []
        self.distributors: List[str] = []
        self.payout_accounts: List[str] = []
        self._distributor_targets: Dict[str, int] = {}
        self._bootstrap_accounts()

    # -- setup -------------------------------------------------------------------
    def _build_chain(self) -> TezosChain:
        chain_config = TezosChainConfig(
            chain_start=self.config.start_timestamp,
            start_level=self.config.start_level,
            block_interval=SECONDS_PER_DAY / self.config.blocks_per_day,
            operation_id_offset=self.config.operation_id_offset,
        )
        return TezosChain(config=chain_config, rng=self.rng.fork("chain"))

    def _bootstrap_accounts(self) -> None:
        config = self.config
        now = config.start_timestamp
        registry = self.chain.accounts
        for index in range(config.baker_count):
            # Bakers hold several rolls so the baker set stays diverse.
            rolls = 2 + self.rng.zipf_index(50, exponent=1.3)
            baker = registry.create_implicit(
                balance=rolls * ROLL_SIZE_XTZ, created_at=now
            )
            self.bakers.append(baker.address)
        for _ in range(config.user_account_count):
            user = registry.create_implicit(
                balance=round(self.rng.lognormal(3.0, 1.5), 2), created_at=now
            )
            self.users.append(user.address)
        for _ in range(config.distributor_count):
            # Airdrop distributors stay below one roll so they never appear in
            # the baker set; their balance is topped up as they spend it.
            distributor = registry.create_implicit(balance=9_500.0, created_at=now)
            self.distributors.append(distributor.address)
            self._distributor_targets[distributor.address] = 0
        for _ in range(config.payout_account_count):
            payout = registry.create_implicit(balance=200_000.0, created_at=now)
            self.payout_accounts.append(payout.address)

    # -- operation builders ----------------------------------------------------------
    def _random_user(self) -> str:
        return self.users[self.rng.zipf_index(len(self.users), exponent=1.1)]

    def _transaction_operation(self) -> TezosOperation:
        choice = self.rng.random()
        if choice < 0.30:
            # Baker payout pattern: repeated small payments to delegators.
            sender = self.rng.choice(self.payout_accounts)
            receiver = self.users[self.rng.randint(0, min(60, len(self.users)) - 1)]
        elif choice < 0.55:
            # Airdrop distributor pattern: exactly one payment per receiver,
            # to a freshly seen address (the tz1Mzpyj... pattern of Figure 6).
            sender = self.rng.choice(self.distributors)
            self._distributor_targets[sender] += 1
            sender_account = self.chain.accounts.get(sender)
            if sender_account.balance_xtz < 100.0:
                # Off-chain refill keeps the distributor spending without ever
                # crossing the one-roll baking threshold.
                sender_account.credit(9_000.0)
            receiver = self.chain.accounts.create_implicit(
                balance=0.0, created_at=self.chain.clock.now
            ).address
        else:
            sender = self._random_user()
            receiver = self._random_user()
        amount = round(self.rng.lognormal(0.0, 1.5), 4)
        return make_transaction(sender, receiver, amount)

    def _governance_operation(self) -> TezosOperation:
        baker = self.rng.choice(self.bakers)
        if self.rng.bernoulli(0.6):
            return make_ballot(baker, "PsBabyM1", self.rng.choice(("yay", "nay", "pass")))
        return make_proposal(baker, ("PsBabyM1",))

    def _manager_operation(self) -> TezosOperation:
        kind = self.rng.categorical(MANAGER_OPERATION_MIX)
        if kind == "transaction":
            return self._transaction_operation()
        if kind == "reveal":
            return make_reveal(self._random_user())
        if kind == "reveal_nonce":
            baker = self.rng.choice(self.bakers)
            return TezosOperation(kind=OperationKind.REVEAL_NONCE, source=baker)
        if kind == "delegation":
            return make_delegation(self._random_user(), self.rng.choice(self.bakers))
        if kind == "origination":
            return make_origination(self._random_user(), balance=0.0)
        if kind == "activate":
            address = "tz1" + self.rng.hex_string(30)
            return make_activation(address, round(self.rng.lognormal(4.0, 1.0), 2))
        return self._governance_operation()

    # -- block generation ---------------------------------------------------------------
    def _operations_for_block(self) -> List[TezosOperation]:
        count = self.rng.poisson(self.config.manager_operations_per_block)
        return [self._manager_operation() for _ in range(count)]

    def generate_blocks(self) -> Iterator[BlockRecord]:
        """Bake blocks covering the configured observation window."""
        config = self.config
        total_blocks = int(config.total_days * config.blocks_per_day)
        for _ in range(total_blocks):
            if self.chain.clock.now >= config.end_timestamp:
                break
            yield self.chain.bake_block(self._operations_for_block())

    def generate(self) -> List[BlockRecord]:
        """Materialise the full observation window as a list of blocks."""
        return list(self.generate_blocks())

    def stream_records(self) -> Iterator[TransactionRecord]:
        """Stream canonical records; the chain keeps only its head meanwhile.

        Feed straight into :meth:`repro.common.columns.TxFrame.extend`.  Each
        block is pruned once its records are handed on; :meth:`generate` is
        the call for a chain that will be served over RPC afterwards.
        """
        for block in self.generate_blocks():
            yield from block.transactions
            self.chain.prune()

    # -- Babylon 2.0 governance series (Figure 9) ---------------------------------------
    def generate_babylon_votes(
        self, timeline: Optional[BabylonTimeline] = None, electorate_rolls: int = 460
    ) -> List[VoteEvent]:
        """Vote events reproducing the three Figure 9 series.

        The proposal period sees two competing proposals (Babylon, then
        Babylon 2.0) accumulating upvotes; the exploration period is
        essentially unanimous ``yay`` with a single explicit ``pass`` (the
        Tezos Foundation); the promotion period repeats the pattern with
        ~15 % ``nay`` votes after the testing-period breakages.
        """
        timeline = timeline or BabylonTimeline()
        rng = self.rng.fork("babylon")
        events: List[VoteEvent] = []

        def spread_votes(
            period: VotingPeriodKind,
            count: int,
            proposal: str = "",
            ballot: str = "",
            start_fraction: float = 0.0,
        ) -> None:
            start, end = timeline.period_bounds(period)
            span = end - start
            for _ in range(count):
                offset = start_fraction + (1.0 - start_fraction) * rng.random()
                events.append(
                    VoteEvent(
                        timestamp=start + offset * span,
                        period=period,
                        baker=f"baker{rng.randint(0, 400)}",
                        rolls=1 + rng.zipf_index(60, exponent=1.4),
                        proposal=proposal,
                        ballot=ballot,
                    )
                )

        participating = int(electorate_rolls * timeline.proposal_participation)
        # Babylon gathers the first wave; Babylon 2.0 arrives mid-period and
        # overtakes it (votes on Babylon are never withdrawn).
        spread_votes(VotingPeriodKind.PROPOSAL, int(participating * 0.45), proposal="Babylon")
        spread_votes(
            VotingPeriodKind.PROPOSAL,
            int(participating * 0.55),
            proposal="Babylon 2.0",
            start_fraction=0.4,
        )
        # Guarantee the published outcome: Babylon 2.0 ends the period ahead
        # in roll-weighted votes regardless of the random roll draws.
        def rolls_for(proposal: str) -> int:
            return sum(
                event.rolls
                for event in events
                if event.period is VotingPeriodKind.PROPOSAL and event.proposal == proposal
            )

        deficit = rolls_for("Babylon") - rolls_for("Babylon 2.0")
        if deficit >= 0:
            start, end = timeline.period_bounds(VotingPeriodKind.PROPOSAL)
            events.append(
                VoteEvent(
                    timestamp=end - 1.0,
                    period=VotingPeriodKind.PROPOSAL,
                    baker="cryptium-labs",
                    rolls=deficit + 1,
                    proposal="Babylon 2.0",
                )
            )

        exploration_voters = int(electorate_rolls * timeline.exploration_participation)
        spread_votes(VotingPeriodKind.EXPLORATION, exploration_voters - 1, ballot="yay")
        spread_votes(VotingPeriodKind.EXPLORATION, 1, ballot="pass")

        promotion_voters = exploration_voters
        nay_votes = int(promotion_voters * timeline.promotion_nay_share)
        spread_votes(VotingPeriodKind.PROMOTION, promotion_voters - nay_votes - 1, ballot="yay")
        spread_votes(VotingPeriodKind.PROMOTION, nay_votes, ballot="nay")
        spread_votes(VotingPeriodKind.PROMOTION, 1, ballot="pass")
        return events
