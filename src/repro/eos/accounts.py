"""EOS account model.

EOS account names are at most 12 characters drawn from ``a-z``, ``1-5`` and
``.``; dots are only allowed inside system-account suffixes.  The paper's
classification distinguishes *system* accounts (created at chain
instantiation and managed by the active block producers) from *regular*
accounts (user-created, free to deploy arbitrary contracts), and further
splits system accounts into privileged and unprivileged ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ChainError

EOS_NAME_ALPHABET = set("abcdefghijklmnopqrstuvwxyz12345.")
EOS_NAME_MAX_LENGTH = 12

#: Privileged system accounts can bypass authorisation checks (§2.3.1).
PRIVILEGED_SYSTEM_ACCOUNTS = ("eosio", "eosio.msig", "eosio.wrap")

#: Unprivileged system accounts holding the standard system contracts.
UNPRIVILEGED_SYSTEM_ACCOUNTS = (
    "eosio.token",
    "eosio.ram",
    "eosio.ramfee",
    "eosio.stake",
    "eosio.names",
    "eosio.saving",
    "eosio.bpay",
    "eosio.vpay",
    "eosio.rex",
)


class EosAccountKind(str, enum.Enum):
    """Whether an account was created at genesis or by a user."""

    SYSTEM_PRIVILEGED = "system_privileged"
    SYSTEM = "system"
    REGULAR = "regular"


def is_valid_eos_name(name: str) -> bool:
    """Return whether ``name`` is a syntactically valid EOS account name."""
    if not name or len(name) > EOS_NAME_MAX_LENGTH:
        return False
    if any(char not in EOS_NAME_ALPHABET for char in name):
        return False
    if name.startswith(".") or name.endswith("."):
        return False
    return True


@dataclass
class EosAccount:
    """One EOS account with its balances and resource stakes."""

    name: str
    kind: EosAccountKind = EosAccountKind.REGULAR
    created_at: float = 0.0
    creator: str = ""
    eos_balance: float = 0.0
    token_balances: Dict[str, float] = field(default_factory=dict)
    cpu_staked: float = 0.0
    net_staked: float = 0.0
    ram_bytes: int = 0
    is_contract: bool = False
    contract_name: str = ""

    def __post_init__(self) -> None:
        if not is_valid_eos_name(self.name):
            raise ChainError(f"invalid EOS account name: {self.name!r}")

    @property
    def is_system(self) -> bool:
        return self.kind in (EosAccountKind.SYSTEM, EosAccountKind.SYSTEM_PRIVILEGED)

    @property
    def is_privileged(self) -> bool:
        return self.kind is EosAccountKind.SYSTEM_PRIVILEGED

    # -- balances ---------------------------------------------------------
    def credit(self, amount: float, symbol: str = "EOS") -> None:
        """Add ``amount`` of ``symbol`` to this account."""
        if amount < 0:
            raise ChainError("credit amount must be non-negative")
        if symbol == "EOS":
            self.eos_balance += amount
        else:
            self.token_balances[symbol] = self.token_balances.get(symbol, 0.0) + amount

    def debit(self, amount: float, symbol: str = "EOS") -> None:
        """Remove ``amount`` of ``symbol``, raising if the balance is short."""
        if amount < 0:
            raise ChainError("debit amount must be non-negative")
        balance = self.balance(symbol)
        if balance + 1e-9 < amount:
            raise ChainError(
                f"insufficient {symbol} balance on {self.name}: {balance} < {amount}"
            )
        if symbol == "EOS":
            self.eos_balance -= amount
        else:
            self.token_balances[symbol] = balance - amount

    def balance(self, symbol: str = "EOS") -> float:
        """Current balance of ``symbol``."""
        if symbol == "EOS":
            return self.eos_balance
        return self.token_balances.get(symbol, 0.0)


class EosAccountRegistry:
    """All accounts known to the chain, indexed by name."""

    def __init__(self) -> None:
        self._accounts: Dict[str, EosAccount] = {}
        self._bootstrap_system_accounts()

    def _bootstrap_system_accounts(self) -> None:
        for name in PRIVILEGED_SYSTEM_ACCOUNTS:
            self._accounts[name] = EosAccount(
                name=name, kind=EosAccountKind.SYSTEM_PRIVILEGED, is_contract=True
            )
        for name in UNPRIVILEGED_SYSTEM_ACCOUNTS:
            self._accounts[name] = EosAccount(
                name=name, kind=EosAccountKind.SYSTEM, is_contract=True
            )

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, name: str) -> bool:
        return name in self._accounts

    def get(self, name: str) -> EosAccount:
        """Fetch an account, raising :class:`ChainError` if it is unknown."""
        account = self._accounts.get(name)
        if account is None:
            raise ChainError(f"unknown EOS account: {name!r}")
        return account

    def maybe_get(self, name: str) -> Optional[EosAccount]:
        return self._accounts.get(name)

    def create(
        self,
        name: str,
        creator: str = "eosio",
        created_at: float = 0.0,
        initial_balance: float = 0.0,
        is_contract: bool = False,
    ) -> EosAccount:
        """Create a new regular account (the ``newaccount`` system action)."""
        if name in self._accounts:
            raise ChainError(f"EOS account already exists: {name!r}")
        if creator not in self._accounts:
            raise ChainError(f"creator account does not exist: {creator!r}")
        account = EosAccount(
            name=name,
            kind=EosAccountKind.REGULAR,
            created_at=created_at,
            creator=creator,
            eos_balance=initial_balance,
            is_contract=is_contract,
        )
        self._accounts[name] = account
        return account

    def accounts(self) -> Iterable[EosAccount]:
        return self._accounts.values()

    def system_accounts(self) -> List[EosAccount]:
        return [account for account in self._accounts.values() if account.is_system]

    def regular_accounts(self) -> List[EosAccount]:
        return [account for account in self._accounts.values() if not account.is_system]

    def contracts(self) -> List[EosAccount]:
        """Accounts that have a contract deployed (system or user)."""
        return [account for account in self._accounts.values() if account.is_contract]

    def total_supply(self, symbol: str = "EOS") -> float:
        """Sum of all balances for ``symbol`` — conserved by transfers."""
        return sum(account.balance(symbol) for account in self._accounts.values())
