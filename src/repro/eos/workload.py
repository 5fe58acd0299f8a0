"""Calibrated EOS workload generator.

The generator regenerates the *shape* of the EOS traffic the paper observed
between 2019-10-01 and 2019-12-31:

* before 2019-11-01 the traffic is dominated by betting applications, with
  games, pornography payments, token transfers and DEX activity making up
  the rest (Figure 3a);
* on 2019-11-01 the EIDOS airdrop launches; every claim is a "boomerang"
  transaction (EOS out and straight back, plus an EIDOS grant), the number
  of transactions grows by more than an order of magnitude and ~95 % of all
  actions become token transfers (Figure 1, §4.1);
* the WhaleEx DEX settles trades where the buyer and seller are usually the
  same account — wash trading (§4.1);
* the named top applications and sender/receiver pairs of Figures 4 and 5
  (``eosio.token``, ``pornhashbaby``, ``betdicetasks``, ``whaleextrust``,
  ``eossanguoone``; ``betdicegroup``, ``mykeypostman``, ``bluebet*``).

Counts are scaled by ``transactions_per_day`` so tests run in milliseconds
while benchmarks can turn the dial up; the *proportions* are what the
analysis verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.common.clock import SECONDS_PER_DAY, timestamp_from_iso
from repro.common.records import BlockRecord, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.eos.actions import (
    APPLICATION_CATEGORIES,
    CATEGORY_BETTING,
    CATEGORY_EXCHANGE,
    CATEGORY_GAMES,
    CATEGORY_OTHERS,
    CATEGORY_PORNOGRAPHY,
    CATEGORY_TOKENS,
    EosAction,
    make_transfer,
)
from repro.eos.chain import EosChain, EosChainConfig, EosTransaction
from repro.eos.contracts import (
    BettingContract,
    ContentPaymentContract,
    DexContract,
    EidosContract,
    GameContract,
    TokenContract,
)

#: Per-category share of daily actions before the EIDOS launch (Figure 3a).
PRE_EIDOS_CATEGORY_MIX: Dict[str, float] = {
    CATEGORY_BETTING: 0.50,
    CATEGORY_GAMES: 0.13,
    CATEGORY_PORNOGRAPHY: 0.14,
    CATEGORY_EXCHANGE: 0.09,
    CATEGORY_TOKENS: 0.10,
    CATEGORY_OTHERS: 0.04,
}

#: Action-name mix inside the betting contract (Figure 4, betdicetasks row).
BETTING_ACTION_MIX: Dict[str, float] = {
    "removetask": 0.68,
    "log": 0.12,
    "sendhouse": 0.07,
    "betrecord": 0.04,
    "betpayrecord": 0.04,
    "transfer": 0.05,
}

#: Action-name mix inside the DEX contract (Figure 4, whaleextrust row).
DEX_ACTION_MIX: Dict[str, float] = {
    "verifytrade2": 0.43,
    "clearing": 0.18,
    "clearsettres": 0.14,
    "verifyad": 0.14,
    "cancelorder": 0.11,
}

#: Action-name mix inside the game contract (Figure 4, eossanguoone row).
GAME_ACTION_MIX: Dict[str, float] = {
    "reveal2": 0.40,
    "combat": 0.25,
    "deletemat": 0.15,
    "sellmat": 0.10,
    "makeitem": 0.10,
}

#: Action-name mix for the content site (Figure 4, pornhashbaby row).
CONTENT_ACTION_MIX: Dict[str, float] = {"record": 0.9986, "login": 0.0014}

#: System-contract action mix of the "Others" category (Figure 1, EOS column).
SYSTEM_ACTION_MIX: Dict[str, float] = {
    "delegatebw": 0.2,
    "buyrambytes": 0.1,
    "undelegatebw": 0.1,
    "rentcpu": 0.1,
    "voteproducer": 0.05,
    "buyram": 0.3,
    "bidname": 0.05,
    "newaccount": 0.05,
    "updateauth": 0.03,
    "linkauth": 0.02,
}


@dataclass
class EosWorkloadConfig:
    """Knobs of the calibrated EOS workload."""

    start_date: str = "2019-10-01"
    end_date: str = "2020-01-01"
    eidos_launch_date: str = "2019-11-01"
    #: Actions per day before the EIDOS launch (scaled-down from ~2M real).
    transactions_per_day: int = 2_000
    #: Multiplier applied to daily volume once EIDOS launches (>10x, §4.1).
    eidos_traffic_multiplier: float = 12.0
    #: Share of post-launch actions that are EIDOS boomerang claims.
    eidos_share: float = 0.90
    #: Virtual blocks produced per day (each aggregates a slice of traffic).
    blocks_per_day: int = 24
    #: Number of ordinary user accounts driving the traffic.
    user_account_count: int = 200
    #: Share of DEX trades that are self-trades for the top wash traders.
    wash_trade_self_fraction: float = 0.88
    #: Height of the first generated block (the paper window's real start).
    #: Window-sharded generation continues a previous shard's height range.
    start_height: int = 82_024_737
    #: Starting value of the transaction-id counter.  Window shards carve
    #: disjoint id ranges so concatenated shards never collide on ids.
    transaction_id_offset: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.transactions_per_day <= 0:
            raise ValueError("transactions_per_day must be positive")
        if self.blocks_per_day <= 0:
            raise ValueError("blocks_per_day must be positive")
        if not 0.0 <= self.eidos_share <= 1.0:
            raise ValueError("eidos_share must be within [0, 1]")
        if timestamp_from_iso(self.end_date) <= timestamp_from_iso(self.start_date):
            raise ValueError("end_date must be after start_date")

    @property
    def start_timestamp(self) -> float:
        return timestamp_from_iso(self.start_date)

    @property
    def end_timestamp(self) -> float:
        return timestamp_from_iso(self.end_date)

    @property
    def eidos_launch_timestamp(self) -> float:
        return timestamp_from_iso(self.eidos_launch_date)

    @property
    def total_days(self) -> float:
        return (self.end_timestamp - self.start_timestamp) / SECONDS_PER_DAY


class EosWorkloadGenerator:
    """Drives an :class:`EosChain` with the calibrated traffic mix."""

    WASH_TRADER_COUNT = 5

    def __init__(self, config: Optional[EosWorkloadConfig] = None):
        self.config = config or EosWorkloadConfig()
        self.rng = DeterministicRng(self.config.seed)
        self.chain = self._build_chain()
        self._tx_counter = self.config.transaction_id_offset
        self._users = [self._user_name(index) for index in range(self.config.user_account_count)]
        self._wash_traders = [f"whaletrader{index + 1}" for index in range(self.WASH_TRADER_COUNT)]
        self._bootstrap_accounts()

    # -- setup -----------------------------------------------------------------
    @staticmethod
    def _user_name(index: int) -> str:
        """Deterministic, collision-free EOS account name for user ``index``."""
        letters = "abcdefghijklmnopqrstuvwxy"  # 25 letters keeps names short
        suffix = ""
        value = index
        for _ in range(4):
            suffix = letters[value % len(letters)] + suffix
            value //= len(letters)
        return f"eosuser{suffix}"

    def _build_chain(self) -> EosChain:
        chain_config = EosChainConfig(
            chain_start=self.config.start_timestamp,
            start_height=self.config.start_height,
            block_interval=SECONDS_PER_DAY / self.config.blocks_per_day,
        )
        chain = EosChain(config=chain_config, rng=self.rng.fork("chain"))
        chain.resources = self._build_resource_market()
        return chain

    def _build_resource_market(self):
        """Size the CPU market so the EIDOS launch pushes it into congestion.

        The block CPU limit is set to ~1.3x the expected post-launch demand:
        before the launch the network idles well below the congestion
        threshold, afterwards utilisation sits around 75-80 % which crosses
        the (lowered) threshold and makes the CPU price spike — the §4.1
        congestion-mode narrative at the simulator's reduced scale.
        """
        from repro.eos.resources import EosResourceMarket

        config = self.config
        post_actions_per_block = (
            config.transactions_per_day * config.eidos_traffic_multiplier / config.blocks_per_day
        )
        mean_cpu_us = 400.0 * config.eidos_share + 200.0 * (1.0 - config.eidos_share)
        # Twice the expected post-launch demand: post-launch utilisation sits
        # around 50% (above the lowered threshold, so the network is formally
        # congested and the CPU price spikes) while staked accounts keep
        # enough entitlement to continue operating, as on the real chain.
        block_cpu_limit = max(1_000.0, post_actions_per_block * mean_cpu_us * 2.0)
        return EosResourceMarket(
            total_cpu_us_per_block=block_cpu_limit,
            congestion_threshold=0.45,
            leniency_multiplier=100.0,
        )

    def _bootstrap_accounts(self) -> None:
        chain = self.chain
        now = self.config.start_timestamp
        # Application accounts and their contracts.
        chain.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
        chain.deploy_contract(EidosContract("eidosonecoin"))
        chain.deploy_contract(BettingContract("betdicetasks"))
        chain.deploy_contract(DexContract("whaleextrust"))
        chain.deploy_contract(ContentPaymentContract("pornhashbaby"))
        chain.deploy_contract(GameContract("eossanguoone"))
        chain.deploy_contract(TokenContract("lynxtoken123", symbol="LYNX"))
        for name in APPLICATION_CATEGORIES:
            if name not in chain.accounts:
                chain.accounts.create(name, created_at=now, initial_balance=100_000.0)
            else:
                chain.accounts.get(name).credit(100_000.0)
            chain.resources.stake_cpu(name, 3_500.0)
        # Ordinary users: EIDOS claimers hold most of the CPU stake, so their
        # per-account entitlement in congestion mode still covers their claim
        # rate (the paper notes claimers are precisely the accounts with idle
        # staked CPU, while low-stake casual users get squeezed out).
        for name in self._users:
            if name not in chain.accounts:
                chain.accounts.create(name, created_at=now, initial_balance=1_000.0)
            chain.resources.stake_cpu(name, 2_000.0)
        # Wash-trading accounts hold inventory in several symbols.
        for name in self._wash_traders:
            if name not in chain.accounts:
                account = chain.accounts.create(name, created_at=now, initial_balance=50_000.0)
            else:
                account = chain.accounts.get(name)
            for symbol in ("USDT", "WAL", "KEY", "PGL"):
                account.credit(100_000.0, symbol)
            chain.resources.stake_cpu(name, 3_500.0)

    # -- transaction builders -----------------------------------------------------
    def _next_tx_id(self) -> str:
        self._tx_counter += 1
        return f"eostx{self._tx_counter:012d}"

    def _random_user(self) -> str:
        return self._users[self.rng.zipf_index(len(self._users), exponent=1.2)]

    def _betting_transaction(self) -> EosTransaction:
        action_name = self.rng.categorical(BETTING_ACTION_MIX)
        if action_name == "transfer":
            user = self._random_user()
            action = make_transfer(
                "eosio.token", user, "betdicetasks", round(self.rng.lognormal(0.0, 1.0), 4), "EOS", memo="bet"
            )
        else:
            data: Dict[str, object] = {}
            if action_name == "betrecord":
                data = {"wager": round(self.rng.lognormal(0.0, 1.0), 4)}
            elif action_name == "betpayrecord":
                data = {"payout": round(self.rng.lognormal(0.0, 1.0), 4)}
            action = EosAction(
                contract="betdicetasks",
                name=action_name,
                actor="betdicegroup",
                receiver="betdicetasks",
                data=data,
            )
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _dex_transaction(self) -> EosTransaction:
        action_name = self.rng.categorical(DEX_ACTION_MIX)
        if action_name != "verifytrade2":
            action = EosAction(
                contract="whaleextrust",
                name=action_name,
                actor=self.rng.choice(self._wash_traders),
                receiver="whaleextrust",
                data={},
            )
            return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))
        # verifytrade2: mostly the top wash traders, mostly self-trades.
        if self.rng.bernoulli(0.75):
            trader = self.rng.choice(self._wash_traders)
            if self.rng.bernoulli(self.config.wash_trade_self_fraction):
                buyer, seller = trader, trader
            else:
                buyer, seller = trader, self.rng.choice(self._wash_traders)
        else:
            buyer, seller = self._random_user(), self._random_user()
        symbol = self.rng.choice(("USDT", "WAL", "KEY", "PGL"))
        action = EosAction(
            contract="whaleextrust",
            name="verifytrade2",
            actor=buyer,
            receiver="whaleextrust",
            data={
                "buyer": buyer,
                "seller": seller,
                "symbol": symbol,
                "amount": round(self.rng.lognormal(1.0, 1.0), 4),
                "price": round(self.rng.lognormal(0.0, 0.5), 6),
            },
        )
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _content_transaction(self) -> EosTransaction:
        action_name = self.rng.categorical(CONTENT_ACTION_MIX)
        action = EosAction(
            contract="pornhashbaby",
            name=action_name,
            actor=self._random_user(),
            receiver="pornhashbaby",
            data={},
        )
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _game_transaction(self) -> EosTransaction:
        action_name = self.rng.categorical(GAME_ACTION_MIX)
        action = EosAction(
            contract="eossanguoone",
            name=action_name,
            actor=self._random_user(),
            receiver="eossanguoone",
            data={},
        )
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _token_transaction(self) -> EosTransaction:
        # Figure 5: mykeypostman relays most of its traffic to eosio.token.
        if self.rng.bernoulli(0.35):
            sender = "mykeypostman"
            receiver = "mykeylogica1" if self.rng.bernoulli(0.06) else self._random_user()
        elif self.rng.bernoulli(0.2):
            sender = "bluebet2user"
            receiver = "lynxtoken123"
        else:
            sender, receiver = self._random_user(), self._random_user()
        amount = round(self.rng.lognormal(0.5, 1.2), 4)
        action = make_transfer("eosio.token", sender, receiver, amount, "EOS")
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _other_transaction(self) -> EosTransaction:
        name = self.rng.categorical(SYSTEM_ACTION_MIX)
        action = EosAction(
            contract="eosio",
            name=name,
            actor=self._random_user(),
            receiver="eosio",
            data={},
        )
        return EosTransaction(transaction_id=self._next_tx_id(), actions=(action,))

    def _eidos_transaction(self) -> EosTransaction:
        """One boomerang claim: transfer EOS to the EIDOS contract and back."""
        user = self._random_user()
        amount = 0.0001  # claimers send dust; the amount is irrelevant.
        deposit = make_transfer("eosio.token", user, "eidosonecoin", amount, "EOS", memo="claim")
        notify = EosAction(
            contract="eidosonecoin",
            name="transfer",
            actor=user,
            receiver="eidosonecoin",
            data={"from": user, "to": "eidosonecoin", "quantity": amount, "symbol": "EOS"},
        )
        return EosTransaction(
            transaction_id=self._next_tx_id(), actions=(deposit, notify), cpu_us=400.0
        )

    _CATEGORY_BUILDERS = {
        CATEGORY_BETTING: _betting_transaction,
        CATEGORY_EXCHANGE: _dex_transaction,
        CATEGORY_PORNOGRAPHY: _content_transaction,
        CATEGORY_GAMES: _game_transaction,
        CATEGORY_TOKENS: _token_transaction,
        CATEGORY_OTHERS: _other_transaction,
    }

    def _build_transaction(self, category: str) -> EosTransaction:
        return self._CATEGORY_BUILDERS[category](self)

    # -- block generation -----------------------------------------------------------
    def _transactions_for_block(self, block_timestamp: float) -> List[EosTransaction]:
        config = self.config
        post_eidos = block_timestamp >= config.eidos_launch_timestamp
        daily = config.transactions_per_day
        if post_eidos:
            daily = int(daily * config.eidos_traffic_multiplier)
        per_block_mean = daily / config.blocks_per_day
        count = max(1, self.rng.poisson(per_block_mean))
        transactions: List[EosTransaction] = []
        for _ in range(count):
            if post_eidos and self.rng.bernoulli(config.eidos_share):
                transactions.append(self._eidos_transaction())
            else:
                category = self.rng.categorical(PRE_EIDOS_CATEGORY_MIX)
                transactions.append(self._build_transaction(category))
        return transactions

    def generate_blocks(self) -> Iterator[BlockRecord]:
        """Produce blocks covering the configured observation window."""
        config = self.config
        total_blocks = int(config.total_days * config.blocks_per_day)
        for _ in range(total_blocks):
            timestamp = self.chain.clock.now
            if timestamp >= config.end_timestamp:
                break
            transactions = self._transactions_for_block(timestamp)
            yield self.chain.produce_block(transactions)

    def generate(self) -> List[BlockRecord]:
        """Materialise the full observation window as a list of blocks."""
        return list(self.generate_blocks())

    def stream_records(self) -> Iterator[TransactionRecord]:
        """Stream canonical records; the chain keeps only its head meanwhile.

        This is the ingest path for the columnar analysis substrate: feed it
        straight into :meth:`repro.common.columns.TxFrame.extend`, and the
        only per-window allocation is the frame's own columns.  Each block
        is pruned once its records are handed on; :meth:`generate` is the
        call for a chain that will be served over RPC afterwards.
        """
        for block in self.generate_blocks():
            yield from block.transactions
            self.chain.prune()
