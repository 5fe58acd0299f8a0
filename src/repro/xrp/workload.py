"""Calibrated XRP ledger workload generator.

Regenerates the shape of the XRP traffic the paper observed
(2019-10-01 → 2019-12-31):

* the transaction-type mix of Figure 1 / Figure 7 — ~50 % ``OfferCreate``,
  ~46 % ``Payment``, a few percent of ``TrustSet`` / ``OfferCancel`` /
  account-settings transactions, and ~10 % recorded failures
  (``PATH_DRY`` payments, ``tecUNFUNDED_OFFER`` offers);
* a handful of offer-bot accounts, activated by a Huobi-named parent, that
  produce >98 % ``OfferCreate`` traffic with the destination tag 104398 on
  their rare payments (Figure 8);
* two payment-spam waves driven by accounts activated by a single parent,
  shuffling a worthless BTC IOU among themselves (§4.3);
* exchange-to-exchange XRP payments (Binance, Bithumb, Coinbase, ...) plus
  Ripple's monthly escrow release-and-return, carrying essentially all the
  real value (Figure 12);
* issuer-specific BTC IOU exchange rates, including the self-dealt
  ``rKRN...`` / ``rMyronE...`` trades whose rate collapses from 30,500 XRP
  to below 1 XRP (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.clock import SECONDS_PER_DAY, timestamp_from_iso
from repro.common.records import BlockRecord, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.xrp.amounts import IouAmount
from repro.xrp.ledger import XrpLedger, XrpLedgerConfig
from repro.xrp.transactions import TransactionType, XrpTransaction

#: Destination tag shared by the Huobi-linked bot accounts (§3.3).
HUOBI_DESTINATION_TAG = 104_398

#: Well-known issuer addresses used by the workload (shapes of the real ones).
BITSTAMP_ISSUER = "rvYAfWj5gh67oV6fW32ZzP3Aw4Eubs59B"
GATEHUB_ISSUER = "rchGBxcD1A1C2tdxF6papQYZ8kjRKMYcL"
LIQUID_LINKED_ISSUER = "rKRNtZzfrkTwE4ggqXbmfgoy57RBJYS7TS"
MYRONE_ACCOUNT = "rMyronEjVcAdqUvhzx4MaBDwBPSPCrDHYm"
SPAM_PARENT = "rpJZ5WyotdphojwMLxCr2prhULvG3Voe3X"
RIPPLE_ACCOUNT = "rRippLeEscrowAccountSimulated1"
MAKER_ACCOUNT = "rs9tBKt96q9gwrePKPqimUuF7vErgMaker"

#: Exchange clusters seeded with usernames (Figure 12 participants).
EXCHANGE_USERNAMES = (
    "Binance",
    "Huobi Global",
    "Bithumb",
    "Coinbase",
    "Bitstamp",
    "UPbit",
    "Bittrex",
    "BitGo",
    "Liquid",
    "Uphold",
)

#: Transaction-type mix (Figure 1, XRP column), excluding engineered cases.
TYPE_MIX: Dict[str, float] = {
    "offer_bot": 0.40,          # OfferCreate from the Huobi-linked bots
    "offer_user": 0.103,        # OfferCreate from ordinary accounts
    "offer_taker": 0.002,       # OfferCreate crossing a resting offer (rare)
    "payment_value": 0.024,     # value-bearing payments (XRP / valued IOUs)
    "payment_no_value": 0.33,   # payments of worthless IOUs (incl. spam waves)
    "payment_failed": 0.05,     # PATH_DRY payments
    "offer_failed": 0.055,      # tecUNFUNDED_OFFER offers
    "offer_cancel": 0.015,
    "trust_set": 0.019,
    "account_set": 0.001,
    "other": 0.001,
}

#: Mix of the rare transaction types behind ``TYPE_MIX["other"]``.
OTHER_TYPE_MIX: Dict[TransactionType, float] = {
    TransactionType.SIGNER_LIST_SET: 0.5,
    TransactionType.SET_REGULAR_KEY: 0.2,
    TransactionType.ESCROW_CREATE: 0.2,
    TransactionType.PAYMENT_CHANNEL_CREATE: 0.05,
    TransactionType.PAYMENT_CHANNEL_CLAIM: 0.05,
}

#: Typical IOU payment sizes per currency, chosen so the XRP-denominated
#: fiat/BTC flows stay an order of magnitude below the native XRP flows, as
#: in Figure 12 (43 billion XRP vs ~0.8 billion XRP-equivalent of USD).
IOU_PAYMENT_SCALE: Dict[str, float] = {
    "BTC": 0.01,
    "USD": 40.0,
    "EUR": 10.0,
    "CNY": 30.0,
}


@dataclass
class XrpWorkloadConfig:
    """Knobs of the calibrated XRP workload."""

    start_date: str = "2019-10-01"
    end_date: str = "2020-01-01"
    #: Ledgers closed per day (the real ledger closes ~22,000; scaled down).
    ledgers_per_day: int = 24
    #: Mean transactions per day (scaled down from ~1.6M real).
    transactions_per_day: int = 3_000
    #: Number of Huobi-linked offer-bot accounts (Figure 8).
    offer_bot_count: int = 5
    #: Number of accounts the spam parent activates for each wave (§4.3).
    spam_accounts_per_wave: int = 50
    #: Spam waves as (start_date, end_date, intensity multiplier on payments).
    spam_waves: Tuple[Tuple[str, str, float], ...] = (
        ("2019-10-25", "2019-11-05", 2.0),
        ("2019-11-25", "2019-12-08", 3.0),
    )
    ordinary_account_count: int = 150
    #: Size of the December self-dealt BTC IOU issuance (§4.3).  The paper's
    #: real figure is 360,222 BTC IOU (an 11-billion-XRP valuation); the
    #: default is scaled down in proportion to the workload's reduced volume
    #: so the Figure 12 flows keep the paper's XRP-dominant shape.
    myrone_btc_amount: float = 3.60222
    #: Index of the first generated ledger (the paper window's real start).
    #: Window-sharded generation continues a previous shard's index range.
    start_index: int = 50_400_001
    #: Starting value of the transaction-id counter; window shards carve
    #: disjoint id ranges so concatenated shards never collide on ids.
    transaction_id_offset: int = 0
    seed: int = 23

    def __post_init__(self) -> None:
        if self.ledgers_per_day <= 0:
            raise ValueError("ledgers_per_day must be positive")
        if self.transactions_per_day <= 0:
            raise ValueError("transactions_per_day must be positive")
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


class XrpWorkloadGenerator:
    """Drives an :class:`XrpLedger` with the calibrated transaction mix."""

    def __init__(self, config: Optional[XrpWorkloadConfig] = None):
        self.config = config or XrpWorkloadConfig()
        self.rng = DeterministicRng(self.config.seed)
        self.ledger = self._build_ledger()
        self.exchange_accounts: Dict[str, str] = {}
        self.exchange_hot_wallets: Dict[str, List[str]] = {}
        self.offer_bots: List[str] = []
        self.spam_accounts: List[str] = []
        self.ordinary_accounts: List[str] = []
        self._myrone_trade_done = False
        self._bootstrap_state()

    # -- setup --------------------------------------------------------------------
    def _build_ledger(self) -> XrpLedger:
        ledger_config = XrpLedgerConfig(
            chain_start=self.config.start_timestamp,
            start_index=self.config.start_index,
            close_interval=SECONDS_PER_DAY / self.config.ledgers_per_day,
            transaction_id_offset=self.config.transaction_id_offset,
        )
        return XrpLedger(config=ledger_config, rng=self.rng.fork("ledger"))

    def _bootstrap_state(self) -> None:
        config = self.config
        accounts = self.ledger.accounts
        trustlines = self.ledger.trustlines
        now = config.start_timestamp

        # Ripple's escrow/operations account (Figure 12's largest sender).
        accounts.create_genesis(RIPPLE_ACCOUNT, balance=5_000_000.0, username="Ripple")

        # Exchanges with registered usernames and a couple of hot wallets each.
        for username in EXCHANGE_USERNAMES:
            parent = accounts.create_genesis(balance=2_000_000.0, username=username)
            self.exchange_accounts[username] = parent.address
            wallets = []
            for _ in range(2):
                wallet = accounts.activate(
                    parent.address, initial_xrp=100_000.0, timestamp=now
                )
                wallets.append(wallet.address)
            self.exchange_hot_wallets[username] = wallets

        # Gateways issuing IOUs that actually trade against XRP.
        accounts.create_genesis(BITSTAMP_ISSUER, balance=500_000.0, username="Bitstamp")
        accounts.create_genesis(GATEHUB_ISSUER, balance=500_000.0, username="Gatehub Fifth")

        # The Liquid-linked issuer and the Myrone account (Figure 11b).
        liquid_parent = self.exchange_accounts["Liquid"]
        uphold_parent = self.exchange_accounts["Uphold"]
        accounts.activate(liquid_parent, initial_xrp=50_000.0, timestamp=now, address=LIQUID_LINKED_ISSUER)
        accounts.activate(uphold_parent, initial_xrp=800_000.0, timestamp=now, address=MYRONE_ACCOUNT)

        # Huobi-linked offer bots (Figure 8): descendants of Huobi Global.
        huobi_parent = self.exchange_accounts["Huobi Global"]
        for _ in range(config.offer_bot_count):
            bot = accounts.activate(huobi_parent, initial_xrp=200_000.0, timestamp=now)
            self.offer_bots.append(bot.address)
        # The standalone market-maker account from Figure 8.
        accounts.create_genesis(MAKER_ACCOUNT, balance=300_000.0)

        # The spam parent; it activates its swarm lazily at the wave starts.
        accounts.create_genesis(SPAM_PARENT, balance=1_000_000.0)

        # Ordinary user accounts.
        for _ in range(config.ordinary_account_count):
            account = accounts.create_genesis(
                balance=round(50.0 + self.rng.pareto_amount(40.0), 2)
            )
            self.ordinary_accounts.append(account.address)

        # Trust lines + seed balances for the valued IOUs (USD/EUR/BTC/CNY).
        self._valued_ious = [
            IouAmount.iou("USD", 0.0, BITSTAMP_ISSUER),
            IouAmount.iou("EUR", 0.0, GATEHUB_ISSUER),
            IouAmount.iou("BTC", 0.0, BITSTAMP_ISSUER),
            IouAmount.iou("BTC", 0.0, GATEHUB_ISSUER),
            IouAmount.iou("CNY", 0.0, self.exchange_accounts["Huobi Global"]),
        ]
        holders = (
            [wallet for wallets in self.exchange_hot_wallets.values() for wallet in wallets]
            + self.offer_bots
            + [MAKER_ACCOUNT]
        )
        for asset in self._valued_ious:
            for holder in holders:
                trustlines.set_trust(holder, asset.currency, asset.issuer, limit=1e9)
                trustlines.credit(holder, asset.with_value(10_000.0))

        # The worthless BTC IOU shuffled by the spam swarm is issued by the
        # spam parent itself and never trades on the DEX, so its oracle rate
        # stays at zero.  The Liquid-linked issuer's BTC IOU is a *different*
        # asset, reserved for the December self-dealt trades (Figure 11b).
        self._worthless_btc = IouAmount.iou("BTC", 0.0, SPAM_PARENT)
        trustlines.set_trust(MYRONE_ACCOUNT, "BTC", LIQUID_LINKED_ISSUER, limit=1e9)

        # A privately issued "BTC" that never trades on the DEX — the kind of
        # token the paper's Figure 10 tweet mistook for real bitcoin.  Every
        # ordinary account trusts it so zero-value payments succeed.
        self._private_issuer = self.ordinary_accounts[0]
        self._private_btc = IouAmount.iou("BTC", 0.0, self._private_issuer)
        for address in self.ordinary_accounts[1:]:
            trustlines.set_trust(address, "BTC", self._private_issuer, limit=1e9)
            trustlines.credit(address, self._private_btc.with_value(1_000.0))

        # Establish on-ledger reference rates by executing real exchanges
        # against XRP for the valued IOUs (the paper's price oracle, §4.3).
        self._seed_reference_rates()

    def _seed_reference_rates(self) -> None:
        """Execute a few genuine DEX trades so valued IOUs have an XRP rate."""
        rates = {
            ("BTC", BITSTAMP_ISSUER): 36_050.0,
            ("BTC", GATEHUB_ISSUER): 35_817.0,
            ("USD", BITSTAMP_ISSUER): 5.4,
            ("EUR", GATEHUB_ISSUER): 4.9,
            ("CNY", self.exchange_accounts["Huobi Global"]): 0.7,
        }
        bitstamp_wallet = self.exchange_hot_wallets["Bitstamp"][0]
        binance_wallet = self.exchange_hot_wallets["Binance"][0]
        transactions: List[XrpTransaction] = []
        for (currency, issuer), rate in rates.items():
            amount = 1.0 if currency == "BTC" else 100.0
            # Seller offers the IOU for XRP; buyer crosses it at the same rate.
            transactions.append(
                XrpTransaction(
                    type=TransactionType.OFFER_CREATE,
                    account=bitstamp_wallet,
                    taker_gets=IouAmount.iou(currency, amount, issuer),
                    taker_pays=IouAmount.native(amount * rate),
                )
            )
            transactions.append(
                XrpTransaction(
                    type=TransactionType.OFFER_CREATE,
                    account=binance_wallet,
                    taker_gets=IouAmount.native(amount * rate),
                    taker_pays=IouAmount.iou(currency, amount, issuer),
                )
            )
        self.ledger.close_ledger(transactions)

    # -- helpers --------------------------------------------------------------------
    def _in_spam_wave(self, timestamp: float) -> Optional[float]:
        """Combined spam intensity if ``timestamp`` falls inside any wave.

        Overlapping waves stack additively on their *extra* traffic
        (intensity ``1 + Σ (i - 1)``), which keeps the generated volume
        consistent with the per-wave day accounting in
        :meth:`repro.scenarios.paper.PaperScenario.scale_factors` and lets
        stress scenarios pile waves on top of each other.  For the paper's
        non-overlapping waves this reduces to the wave's own intensity.
        """
        extra = 0.0
        active = False
        for start, end, intensity in self.config.spam_waves:
            if timestamp_from_iso(start) <= timestamp < timestamp_from_iso(end):
                active = True
                extra += intensity - 1.0
        if not active:
            return None
        return 1.0 + extra

    def _ensure_spam_accounts(self, timestamp: float) -> None:
        """Activate the spam swarm the first time a wave is entered."""
        if self.spam_accounts:
            return
        accounts = self.ledger.accounts
        trustlines = self.ledger.trustlines
        per_account = 1_000_000.0 / (self.config.spam_accounts_per_wave * 2 * 10)
        for _ in range(self.config.spam_accounts_per_wave):
            account = accounts.activate(
                SPAM_PARENT,
                initial_xrp=max(25.0, per_account),
                timestamp=timestamp,
            )
            trustlines.set_trust(
                account.address, self._worthless_btc.currency, self._worthless_btc.issuer, limit=1e9
            )
            trustlines.credit(account.address, self._worthless_btc.with_value(1_000.0))
            self.spam_accounts.append(account.address)

    def _random_ordinary(self) -> str:
        return self.ordinary_accounts[self.rng.zipf_index(len(self.ordinary_accounts), exponent=1.1)]

    def _random_exchange_wallet(self, bias: str = "") -> str:
        """A hot wallet of a random exchange, optionally biased towards one."""
        if bias and self.rng.bernoulli(0.25):
            username = bias
        else:
            username = self.rng.choice(EXCHANGE_USERNAMES)
        return self.rng.choice(self.exchange_hot_wallets[username])

    # -- transaction builders -----------------------------------------------------------
    def _offer_bot_transaction(self) -> XrpTransaction:
        """Unfilled CNY/XRP offers from the Huobi-linked bots (Figure 8)."""
        bot = self.rng.choice(self.offer_bots + [MAKER_ACCOUNT])
        cny = IouAmount.iou("CNY", round(self.rng.lognormal(4.0, 1.0), 2), self.exchange_accounts["Huobi Global"])
        # Ask far above the reference rate so the offer rests unfilled.
        ask_rate = 0.7 * self.rng.uniform(3.0, 10.0)
        if self.rng.bernoulli(0.995):
            return XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account=bot,
                taker_gets=cny,
                taker_pays=IouAmount.native(round(cny.value * ask_rate, 6)),
            )
        # The bots' rare payments carry the shared destination tag 104398.
        return XrpTransaction(
            type=TransactionType.PAYMENT,
            account=bot,
            destination=self.rng.choice(self.exchange_hot_wallets["Huobi Global"]),
            amount=IouAmount.native(round(self.rng.lognormal(3.0, 1.0), 2)),
            destination_tag=HUOBI_DESTINATION_TAG,
        )

    def _offer_user_transaction(self) -> XrpTransaction:
        """Ordinary accounts placing resting offers in valued IOUs."""
        owner = self._random_exchange_wallet()
        asset = self.rng.choice(self._valued_ious)
        amount = round(self.rng.lognormal(2.0, 1.0), 4)
        reference = {"BTC": 36_000.0, "USD": 5.4, "EUR": 4.9, "CNY": 0.7}[asset.currency]
        # Asks sit a little above the market so the offers rest unfilled but,
        # when a rare taker crosses them, the executed rate stays close to
        # the gateway reference rates of Figure 11a.
        rate = reference * self.rng.uniform(1.02, 1.3)
        return XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account=owner,
            taker_gets=IouAmount.iou(asset.currency, amount, asset.issuer),
            taker_pays=IouAmount.native(round(amount * rate, 6)),
        )

    def _value_payment_transaction(self) -> XrpTransaction:
        """Value-bearing payments: exchange-to-exchange XRP or valued IOUs.

        Ripple's escrow-release/return payments account for roughly a tenth of
        the XRP volume (Figure 12); the bulk flows between exchange clusters,
        with Binance the most active of them.
        """
        roll = self.rng.random()
        if roll < 0.05:
            # Ripple escrow operations: large but comparatively rare payments.
            return XrpTransaction(
                type=TransactionType.PAYMENT,
                account=RIPPLE_ACCOUNT,
                destination=self._random_exchange_wallet(),
                amount=IouAmount.native(round(self.rng.uniform(2_000.0, 6_000.0), 2)),
            )
        if roll < 0.85:
            sender = self._random_exchange_wallet(bias="Binance")
            receiver = self._random_exchange_wallet()
            return XrpTransaction(
                type=TransactionType.PAYMENT,
                account=sender,
                destination=receiver,
                amount=IouAmount.native(round(self.rng.pareto_amount(600.0), 2)),
                destination_tag=self.rng.randint(1, 999_999),
            )
        asset = self.rng.choice(self._valued_ious)
        scale = IOU_PAYMENT_SCALE.get(asset.currency, 1.0)
        amount = round(scale * self.rng.lognormal(0.0, 0.8), 6)
        return XrpTransaction(
            type=TransactionType.PAYMENT,
            account=self._random_exchange_wallet(),
            destination=self._random_exchange_wallet(),
            amount=IouAmount.iou(asset.currency, max(amount, 1e-6), asset.issuer),
        )

    def _no_value_payment_transaction(self, timestamp: float) -> XrpTransaction:
        """Payments of IOUs with no XRP exchange rate (spam swarm traffic)."""
        intensity = self._in_spam_wave(timestamp)
        if intensity is not None:
            self._ensure_spam_accounts(timestamp)
        if self.spam_accounts and (intensity is not None or self.rng.bernoulli(0.3)):
            sender = self.rng.choice(self.spam_accounts)
            receiver = self.rng.choice(self.spam_accounts)
            amount = self._worthless_btc.with_value(round(self.rng.lognormal(0.0, 1.0), 6))
            return XrpTransaction(
                type=TransactionType.PAYMENT,
                account=sender,
                destination=receiver,
                amount=amount,
            )
        # Outside waves: ordinary accounts moving an unexchanged private IOU.
        sender = self._random_ordinary()
        receiver = self._random_ordinary()
        while receiver == self._private_issuer:
            receiver = self._random_ordinary()
        if sender == self._private_issuer:
            sender = self.ordinary_accounts[1]
        amount = IouAmount.iou(
            "BTC", round(self.rng.lognormal(0.0, 1.0), 6), self._private_issuer
        )
        return XrpTransaction(
            type=TransactionType.PAYMENT, account=sender, destination=receiver, amount=amount
        )

    def _failed_payment_transaction(self) -> XrpTransaction:
        """IOU payment with no usable trust line: recorded as PATH_DRY."""
        sender = self._random_ordinary()
        receiver = self._random_ordinary()
        asset = IouAmount.iou("USD", round(self.rng.lognormal(1.0, 1.0), 2), BITSTAMP_ISSUER)
        return XrpTransaction(
            type=TransactionType.PAYMENT, account=sender, destination=receiver, amount=asset
        )

    def _failed_offer_transaction(self) -> XrpTransaction:
        """Offer selling funds the creator does not hold: tecUNFUNDED_OFFER."""
        owner = self._random_ordinary()
        asset = IouAmount.iou("BTC", round(self.rng.lognormal(0.0, 0.5), 4), GATEHUB_ISSUER)
        return XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account=owner,
            taker_gets=asset,
            taker_pays=IouAmount.native(round(asset.value * 30_000.0, 2)),
        )

    def _offer_taker_transaction(self) -> XrpTransaction:
        """An offer that crosses a resting offer, producing an execution.

        Only a sliver of the mix: the paper finds that merely 0.2 % of
        successfully created offers are ever fulfilled to any extent.
        """
        resting = self.ledger.orderbook.recent_open_offers()
        if not resting:
            return self._offer_user_transaction()
        target = self.rng.choice(resting)
        taker = self._random_exchange_wallet()
        remaining = max(target.remaining_gets, 1e-6)
        wanted = remaining * target.price
        return XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account=taker,
            taker_gets=target.taker_pays.with_value(round(wanted, 6)),
            taker_pays=target.taker_gets.with_value(round(remaining, 6)),
        )

    def _offer_cancel_transaction(self) -> XrpTransaction:
        open_offers = self.ledger.orderbook.recent_open_offers()
        if open_offers:
            offer = self.rng.choice(open_offers)
            return XrpTransaction(
                type=TransactionType.OFFER_CANCEL,
                account=offer.owner,
                offer_sequence=offer.offer_id,
            )
        return XrpTransaction(
            type=TransactionType.OFFER_CANCEL,
            account=self._random_ordinary(),
            offer_sequence=999_999_999,
        )

    def _trust_set_transaction(self) -> XrpTransaction:
        holder = self._random_ordinary()
        asset = self.rng.choice(self._valued_ious)
        return XrpTransaction(
            type=TransactionType.TRUST_SET,
            account=holder,
            limit=IouAmount.iou(asset.currency, 1_000_000.0, asset.issuer),
        )

    def _account_set_transaction(self) -> XrpTransaction:
        return XrpTransaction(
            type=TransactionType.ACCOUNT_SET, account=self._random_ordinary()
        )

    def _other_transaction(self, timestamp: float) -> XrpTransaction:
        kind = self.rng.categorical(OTHER_TYPE_MIX)
        if kind is TransactionType.ESCROW_CREATE:
            return XrpTransaction(
                type=kind,
                account=RIPPLE_ACCOUNT,
                destination=RIPPLE_ACCOUNT,
                amount=IouAmount.native(round(self.rng.uniform(1_000.0, 5_000.0), 2)),
                finish_after=timestamp + 30 * SECONDS_PER_DAY,
            )
        return XrpTransaction(type=kind, account=self._random_ordinary())

    def _myrone_trades(self, timestamp: float) -> List[XrpTransaction]:
        """The self-dealt BTC IOU payment and exchange of Figure 11b (§4.3)."""
        issue = XrpTransaction(
            type=TransactionType.PAYMENT,
            account=LIQUID_LINKED_ISSUER,
            destination=MYRONE_ACCOUNT,
            amount=IouAmount.iou("BTC", self.config.myrone_btc_amount, LIQUID_LINKED_ISSUER),
        )
        sell = XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account=MYRONE_ACCOUNT,
            taker_gets=IouAmount.iou("BTC", 1.0, LIQUID_LINKED_ISSUER),
            taker_pays=IouAmount.native(30_500.0),
        )
        buy = XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account=MYRONE_ACCOUNT,
            taker_gets=IouAmount.native(30_500.0),
            taker_pays=IouAmount.iou("BTC", 1.0, LIQUID_LINKED_ISSUER),
        )
        return [issue, sell, buy]

    _BUILDERS = {
        "offer_bot": "_offer_bot_transaction",
        "offer_user": "_offer_user_transaction",
        "offer_taker": "_offer_taker_transaction",
        "payment_value": "_value_payment_transaction",
        "payment_failed": "_failed_payment_transaction",
        "offer_failed": "_failed_offer_transaction",
        "offer_cancel": "_offer_cancel_transaction",
        "trust_set": "_trust_set_transaction",
        "account_set": "_account_set_transaction",
    }

    def _build_transaction(self, kind: str, timestamp: float) -> XrpTransaction:
        if kind == "payment_no_value":
            return self._no_value_payment_transaction(timestamp)
        if kind == "other":
            return self._other_transaction(timestamp)
        return getattr(self, self._BUILDERS[kind])()

    # -- ledger generation -----------------------------------------------------------------
    def _transactions_for_ledger(self, timestamp: float) -> List[XrpTransaction]:
        config = self.config
        per_ledger_mean = config.transactions_per_day / config.ledgers_per_day
        intensity = self._in_spam_wave(timestamp)
        if intensity is not None:
            per_ledger_mean *= intensity
        count = max(1, self.rng.poisson(per_ledger_mean))
        transactions: List[XrpTransaction] = []
        for _ in range(count):
            kind = self.rng.categorical(TYPE_MIX)
            if intensity is not None and kind in ("payment_value", "offer_user"):
                # During spam waves the extra traffic is almost entirely
                # worthless payments, which is what makes the waves visible
                # in the Figure 3c Payment series.
                kind = "payment_no_value"
            transactions.append(self._build_transaction(kind, timestamp))
        # The Myrone self-trade happens once, in mid-December (Figure 11b).
        if not self._myrone_trade_done and timestamp >= timestamp_from_iso("2019-12-14"):
            transactions.extend(self._myrone_trades(timestamp))
            self._myrone_trade_done = True
        return transactions

    def generate_blocks(self) -> Iterator[BlockRecord]:
        """Close ledgers covering the configured observation window."""
        config = self.config
        total_ledgers = int(config.total_days * config.ledgers_per_day)
        for _ in range(total_ledgers):
            timestamp = self.ledger.clock.now
            if timestamp >= config.end_timestamp:
                break
            yield self.ledger.close_ledger(self._transactions_for_ledger(timestamp))

    def generate(self) -> List[BlockRecord]:
        """Materialise the full observation window as a list of ledgers."""
        return list(self.generate_blocks())

    def stream_records(self) -> Iterator[TransactionRecord]:
        """Stream canonical records; the ledger keeps only its head meanwhile.

        Feed straight into :meth:`repro.common.columns.TxFrame.extend`.  Each
        ledger is pruned once its records are handed on; :meth:`generate` is
        the call for a ledger that will be served over RPC afterwards.
        """
        for block in self.generate_blocks():
            yield from block.transactions
            self.ledger.prune()

    # -- ground truth for tests ------------------------------------------------------
    def valued_assets(self) -> List[Tuple[str, str]]:
        """(currency, issuer) pairs that have a genuine XRP exchange rate."""
        return [(asset.currency, asset.issuer) for asset in self._valued_ious]
