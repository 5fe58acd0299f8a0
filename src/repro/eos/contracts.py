"""EOS smart-contract framework and the contracts the paper's traffic exercises.

Regular EOS accounts can deploy arbitrary contracts with arbitrary action
names.  The simulator models a contract as a Python object that receives an
action and mutates chain state (balances), optionally emitting *inline
actions* — actions triggered by the contract itself, which is how the EIDOS
airdrop produces its "boomerang": the user's transfer to the contract is
answered by a transfer back plus an EIDOS token grant inside the same
transaction.

Implemented contracts, mirroring the paper's top applications (Figure 4):

* :class:`TokenContract` — the standard ``eosio.token`` interface, also used
  for every user-issued token (EIDOS, USDT, LYNX, ...).
* :class:`EidosContract` — the airdrop contract behind the November 2019
  traffic explosion (§4.1, "Boomerang Transactions in EOS").
* :class:`BettingContract` — a ``betdice``-style gambling app whose traffic
  is ~80 % bookkeeping actions.
* :class:`DexContract` — a WhaleEx-style DEX whose ``verifytrade2`` action
  settles trades on-chain; it does not forbid self-trades, which is what the
  wash-trading case study measures.
* :class:`ContentPaymentContract` — a ``pornhashbaby``-style site that uses
  the chain as a payment/bookkeeping backend.
* :class:`GameContract` — an ``eossanguoone``-style role-playing game using
  the chain as game-state storage.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.common.errors import ChainError
from repro.eos.accounts import EosAccountRegistry
from repro.eos.actions import EosAction, make_transfer


class ContractResult:
    """Outcome of applying one action to a contract.

    A plain class rather than a dataclass: one is built per action, and the
    chain writes into ``notes`` (it becomes the record's metadata), so each
    result owns a fresh dict and a fresh ``inline_actions`` list.
    """

    __slots__ = ("applied", "inline_actions", "notes")

    def __init__(
        self,
        applied: bool = True,
        inline_actions: Optional[List[EosAction]] = None,
        notes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.applied = applied
        self.inline_actions = [] if inline_actions is None else inline_actions
        self.notes = {} if notes is None else notes

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.applied, self.inline_actions, self.notes) == (
            other.applied,
            other.inline_actions,
            other.notes,
        )

    #: Mutable, like the dataclass it replaced: equal results need not hash.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ContractResult(applied={self.applied!r}, "
            f"inline_actions={self.inline_actions!r}, notes={self.notes!r})"
        )


class EosContract:
    """Base class for simulated EOS contracts."""

    #: Action names the contract accepts; subclasses override.
    action_names: tuple = ()

    def __init__(self, account: str):
        self.account = account

    def handles(self, action_name: str) -> bool:
        return not self.action_names or action_name in self.action_names

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        """Apply ``action``; subclasses implement the contract semantics."""
        raise NotImplementedError


class TokenContract(EosContract):
    """Standard token-interface contract (``eosio.token`` and user tokens)."""

    action_names = ("create", "issue", "transfer", "open", "close", "retire")

    def __init__(self, account: str, symbol: str, max_supply: float = 1e12):
        super().__init__(account)
        self.symbol = symbol
        self.max_supply = max_supply
        self.issued = 0.0

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        if action.name == "transfer":
            return self._apply_transfer(action, registry)
        if action.name == "issue":
            return self._apply_issue(action, registry)
        # create/open/close/retire only touch bookkeeping the analysis ignores.
        return ContractResult(applied=True)

    def _apply_issue(
        self, action: EosAction, registry: EosAccountRegistry
    ) -> ContractResult:
        amount = float(action.data.get("quantity", 0.0))
        recipient = str(action.data.get("to", action.actor))
        if self.issued + amount > self.max_supply:
            raise ChainError(f"{self.symbol} issuance exceeds max supply")
        registry.get(recipient).credit(amount, self.symbol)
        self.issued += amount
        return ContractResult(applied=True, notes={"issued": amount})

    def _apply_transfer(
        self, action: EosAction, registry: EosAccountRegistry
    ) -> ContractResult:
        data = action.data
        sender = str(data.get("from", action.actor))
        receiver = str(data.get("to", action.receiver))
        amount = float(data.get("quantity", 0.0))
        symbol = str(data.get("symbol", self.symbol))
        if amount < 0:
            raise ChainError("transfer amount must be non-negative")
        registry.get(sender).debit(amount, symbol)
        registry.get(receiver).credit(amount, symbol)
        return ContractResult(applied=True, notes={"amount": amount, "symbol": symbol})


class EidosContract(EosContract):
    """The EIDOS airdrop contract (§4.1).

    Any EOS transfer to the contract is answered, inside the same
    transaction, by (1) a transfer of the same EOS amount back to the sender
    and (2) a grant of 0.01 % of the contract's remaining EIDOS balance.
    Because EOS has no per-transaction fee, the scheme turns idle CPU stake
    into free tokens and flooded the network with boomerang transactions.
    """

    action_names = ("transfer",)
    PAYOUT_FRACTION = 0.0001  # 0.01 % of the remaining pool per claim

    def __init__(self, account: str = "eidosonecoin", initial_pool: float = 1_000_000_000.0):
        super().__init__(account)
        self.symbol = "EIDOS"
        self.pool = initial_pool
        self.claims = 0

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        data = action.data
        sender = str(data.get("from", action.actor))
        if sender == self.account:
            # Inline grant issued by the contract itself: move EIDOS to the
            # recipient and stop (no further boomerang).
            recipient = str(data.get("to", action.receiver))
            amount = float(data.get("quantity", 0.0))
            registry.get(recipient).credit(amount, self.symbol)
            return ContractResult(applied=True, notes={"grant": amount})
        amount = float(data.get("quantity", 0.0))
        payout = self.pool * self.PAYOUT_FRACTION
        self.pool -= payout
        self.claims += 1
        inline = [
            # The boomerang: the EOS comes straight back to the sender.  The
            # actions are delivered to the token contracts (their receiver
            # scope), exactly like user-submitted transfers.
            make_transfer("eosio.token", self.account, sender, amount, "EOS", memo="refund"),
            make_transfer(self.account, self.account, sender, payout, self.symbol, memo="mining"),
        ]
        return ContractResult(
            applied=True,
            inline_actions=inline,
            notes={"payout": payout, "boomerang": True},
        )


class BettingContract(EosContract):
    """A ``betdice``-style betting application.

    Roughly 80 % of the contract's actions are bookkeeping (``removetask``,
    ``log``); actual bets (``betrecord``) are a small share — the mix the
    workload generator reproduces for Figure 4.
    """

    action_names = (
        "removetask",
        "log",
        "sendhouse",
        "betrecord",
        "betpayrecord",
        "transfer",
    )

    def __init__(self, account: str, house_edge: float = 0.02):
        super().__init__(account)
        self.house_edge = house_edge
        self.total_wagered = 0.0
        self.total_paid_out = 0.0

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        if action.name == "betrecord":
            wager = float(action.data.get("wager", 0.0))
            self.total_wagered += wager
            return ContractResult(applied=True, notes={"wager": wager})
        if action.name == "betpayrecord":
            payout = float(action.data.get("payout", 0.0))
            self.total_paid_out += payout
            return ContractResult(applied=True, notes={"payout": payout})
        # Bookkeeping actions have no balance effect.
        return ContractResult(applied=True, notes={"bookkeeping": True})


class DexTrade(NamedTuple):
    """One settled trade on the DEX (a ``verifytrade2`` call)."""

    buyer: str
    seller: str
    symbol: str
    amount: float
    price: float
    timestamp: float

    @property
    def is_self_trade(self) -> bool:
        return self.buyer == self.seller


class DexContract(EosContract):
    """A WhaleEx-style decentralised exchange settling trades on-chain.

    ``verifytrade2`` settles a matched buy/sell pair.  Nothing prevents the
    buyer and the seller from being the same account and the trading fee is
    zero — the two properties that make wash trading free (§4.1).
    """

    action_names = (
        "verifytrade2",
        "clearing",
        "clearsettres",
        "verifyad",
        "cancelorder",
    )

    def __init__(self, account: str):
        super().__init__(account)
        self.trades: List[DexTrade] = []

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        if action.name != "verifytrade2":
            return ContractResult(applied=True, notes={"bookkeeping": True})
        buyer = str(action.data.get("buyer", action.actor))
        seller = str(action.data.get("seller", action.actor))
        symbol = str(action.data.get("symbol", "EOS"))
        amount = float(action.data.get("amount", 0.0))
        price = float(action.data.get("price", 0.0))
        trade = DexTrade(
            buyer=buyer,
            seller=seller,
            symbol=symbol,
            amount=amount,
            price=price,
            timestamp=timestamp,
        )
        self.trades.append(trade)
        notes = {
            "buyer": buyer,
            "seller": seller,
            "symbol": symbol,
            "self_trade": trade.is_self_trade,
            "amount": amount,
            "price": price,
        }
        if not trade.is_self_trade and amount > 0:
            # Genuine trades move the traded token from seller to buyer.
            seller_account = registry.maybe_get(seller)
            buyer_account = registry.maybe_get(buyer)
            if seller_account is not None and buyer_account is not None:
                if seller_account.balance(symbol) >= amount:
                    seller_account.debit(amount, symbol)
                    buyer_account.credit(amount, symbol)
        return ContractResult(applied=True, notes=notes)

    def self_trade_fraction(self) -> float:
        """Fraction of settled trades where buyer == seller."""
        if not self.trades:
            return 0.0
        return sum(1 for trade in self.trades if trade.is_self_trade) / len(self.trades)


class ContentPaymentContract(EosContract):
    """A ``pornhashbaby``-style site using EOS for payments and bookkeeping."""

    action_names = ("record", "login", "transfer")

    def __init__(self, account: str):
        super().__init__(account)
        self.records = 0
        self.logins = 0

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        if action.name == "record":
            self.records += 1
        elif action.name == "login":
            self.logins += 1
        return ContractResult(applied=True)


class GameContract(EosContract):
    """An ``eossanguoone``-style role-playing game storing game state on-chain."""

    action_names = ("reveal2", "combat", "deletemat", "sellmat", "makeitem")

    def __init__(self, account: str):
        super().__init__(account)
        self.events: Dict[str, int] = {}

    def apply(
        self, action: EosAction, registry: EosAccountRegistry, timestamp: float
    ) -> ContractResult:
        self.events[action.name] = self.events.get(action.name, 0) + 1
        return ContractResult(applied=True)


class ContractRegistry:
    """Contracts deployed on the chain, indexed by account name."""

    def __init__(self) -> None:
        self._contracts: Dict[str, EosContract] = {}

    def deploy(self, contract: EosContract) -> None:
        self._contracts[contract.account] = contract

    def get(self, account: str) -> Optional[EosContract]:
        return self._contracts.get(account)

    def __contains__(self, account: str) -> bool:
        return account in self._contracts

    def accounts(self) -> List[str]:
        return sorted(self._contracts)
