"""Tezos account model: implicit and originated accounts.

Tezos has two account kinds (§2.3.2):

* **Implicit** accounts (``tz1...`` addresses) are derived from a key pair.
  They can bake blocks and receive delegations, but cannot hold code.
* **Originated** accounts (``KT1...`` addresses) are created by implicit
  accounts, can act as smart contracts, and can delegate their stake to a
  baker's implicit account.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng

IMPLICIT_PREFIX = "tz1"
ORIGINATED_PREFIX = "KT1"
ADDRESS_BODY_LENGTH = 33

_BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


class TezosAccountKind(str, enum.Enum):
    IMPLICIT = "implicit"
    ORIGINATED = "originated"


def generate_address(rng: DeterministicRng, kind: TezosAccountKind) -> str:
    """Generate a syntactically plausible Tezos address of the given kind."""
    prefix = IMPLICIT_PREFIX if kind is TezosAccountKind.IMPLICIT else ORIGINATED_PREFIX
    body = "".join(rng.choice(_BASE58_ALPHABET) for _ in range(ADDRESS_BODY_LENGTH))
    return prefix + body


def is_implicit_address(address: str) -> bool:
    return address.startswith(("tz1", "tz2", "tz3"))


def is_originated_address(address: str) -> bool:
    return address.startswith("KT1")


@dataclass
class TezosAccount:
    """One Tezos account (implicit or originated)."""

    address: str
    kind: TezosAccountKind
    balance_xtz: float = 0.0
    delegate: Optional[str] = None
    revealed: bool = False
    activated: bool = False
    manager: Optional[str] = None
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is TezosAccountKind.IMPLICIT and not is_implicit_address(self.address):
            raise ChainError(f"implicit account needs a tz address: {self.address!r}")
        if self.kind is TezosAccountKind.ORIGINATED and not is_originated_address(self.address):
            raise ChainError(f"originated account needs a KT1 address: {self.address!r}")

    @property
    def can_bake(self) -> bool:
        """Only implicit accounts can bake (§2.3.2)."""
        return self.kind is TezosAccountKind.IMPLICIT

    def credit(self, amount: float) -> None:
        if amount < 0:
            raise ChainError("credit amount must be non-negative")
        self.balance_xtz += amount

    def debit(self, amount: float) -> None:
        if amount < 0:
            raise ChainError("debit amount must be non-negative")
        if self.balance_xtz + 1e-9 < amount:
            raise ChainError(
                f"insufficient balance on {self.address}: {self.balance_xtz} < {amount}"
            )
        self.balance_xtz -= amount


class TezosAccountRegistry:
    """All Tezos accounts, indexed by address."""

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0)
        self._accounts: Dict[str, TezosAccount] = {}

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, address: str) -> bool:
        return address in self._accounts

    def get(self, address: str) -> TezosAccount:
        account = self._accounts.get(address)
        if account is None:
            raise ChainError(f"unknown Tezos account: {address!r}")
        return account

    def maybe_get(self, address: str) -> Optional[TezosAccount]:
        return self._accounts.get(address)

    def create_implicit(
        self, balance: float = 0.0, created_at: float = 0.0, address: Optional[str] = None
    ) -> TezosAccount:
        """Create an implicit account (optionally at a fixed address)."""
        if address is None:
            address = generate_address(self._rng, TezosAccountKind.IMPLICIT)
        if address in self._accounts:
            raise ChainError(f"Tezos account already exists: {address!r}")
        account = TezosAccount(
            address=address,
            kind=TezosAccountKind.IMPLICIT,
            balance_xtz=balance,
            created_at=created_at,
        )
        self._accounts[address] = account
        return account

    def originate(
        self,
        manager: str,
        balance: float = 0.0,
        created_at: float = 0.0,
        address: Optional[str] = None,
    ) -> TezosAccount:
        """Originate a contract account managed by ``manager`` (implicit)."""
        manager_account = self.get(manager)
        if manager_account.kind is not TezosAccountKind.IMPLICIT:
            raise ChainError("only implicit accounts can originate contracts")
        if address is None:
            address = generate_address(self._rng, TezosAccountKind.ORIGINATED)
        if address in self._accounts:
            raise ChainError(f"Tezos account already exists: {address!r}")
        account = TezosAccount(
            address=address,
            kind=TezosAccountKind.ORIGINATED,
            balance_xtz=balance,
            manager=manager,
            created_at=created_at,
        )
        self._accounts[address] = account
        return account

    def delegate(self, delegator: str, baker: str) -> None:
        """Point ``delegator``'s stake at ``baker`` (must be implicit)."""
        baker_account = self.get(baker)
        if not baker_account.can_bake:
            raise ChainError("delegation target must be an implicit account")
        self.get(delegator).delegate = baker

    def accounts(self) -> Iterable[TezosAccount]:
        return self._accounts.values()

    def implicit_accounts(self) -> List[TezosAccount]:
        return [acc for acc in self._accounts.values() if acc.kind is TezosAccountKind.IMPLICIT]

    def originated_accounts(self) -> List[TezosAccount]:
        return [acc for acc in self._accounts.values() if acc.kind is TezosAccountKind.ORIGINATED]

    def staking_balance(self, baker: str) -> float:
        """Baker's own balance plus everything delegated to it."""
        own = self.get(baker).balance_xtz
        delegated = sum(
            account.balance_xtz
            for account in self._accounts.values()
            if account.delegate == baker and account.address != baker
        )
        return own + delegated

    def staking_balances(self) -> Dict[str, float]:
        """Staking balance of every implicit account, computed in one pass.

        Equivalent to calling :meth:`staking_balance` for each implicit
        account but O(accounts) overall, which matters once airdrop-style
        workloads have created tens of thousands of accounts.
        """
        balances: Dict[str, float] = {
            account.address: account.balance_xtz
            for account in self._accounts.values()
            if account.kind is TezosAccountKind.IMPLICIT
        }
        for account in self._accounts.values():
            delegate = account.delegate
            if delegate and delegate != account.address and delegate in balances:
                balances[delegate] += account.balance_xtz
        return balances

    def total_supply(self) -> float:
        return sum(account.balance_xtz for account in self._accounts.values())
