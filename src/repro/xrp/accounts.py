"""XRP ledger account model.

Accounts are identified by base-58 addresses starting with ``r``.  A handful
of special addresses serve fixed purposes and cannot sign transactions
(funds sent there are lost).  A new account only exists on the ledger once a
*parent* account has sent it the reserve — the activation relationship the
paper uses (via XRP Scan metadata) to cluster exchange-controlled accounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng
from repro.xrp.amounts import ACCOUNT_RESERVE_XRP

#: Special addresses that are not derived from a key pair (§2.3.3); funds
#: sent to them are permanently lost.
SPECIAL_ADDRESSES = {
    "rrrrrrrrrrrrrrrrrrrrrhoLvTp": "ACCOUNT_ZERO",
    "rrrrrrrrrrrrrrrrrrrrBZbvji": "ACCOUNT_ONE",
    "rrrrrrrrrrrrrrrrrNAMEtxvNvQ": "NAME_RESERVATION_BLACKHOLE",
    "rrrrrrrrrrrrrrrrrrrn5RM1rHd": "NAN_ADDRESS",
}

_BASE58_ALPHABET = "rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz"
ADDRESS_BODY_LENGTH = 24


def generate_address(rng: DeterministicRng) -> str:
    """Generate a syntactically plausible (non-special) XRP address."""
    body = "".join(rng.choice(_BASE58_ALPHABET) for _ in range(ADDRESS_BODY_LENGTH))
    return "r" + body


def is_special_address(address: str) -> bool:
    return address in SPECIAL_ADDRESSES


@dataclass
class XrpAccount:
    """One XRP ledger account."""

    address: str
    xrp_balance: float = 0.0
    parent: str = ""
    username: str = ""
    activated_at: float = 0.0
    sequence: int = 1

    @property
    def spendable_xrp(self) -> float:
        """XRP available above the account reserve."""
        return max(0.0, self.xrp_balance - ACCOUNT_RESERVE_XRP)

    def credit_xrp(self, amount: float) -> None:
        if amount < 0:
            raise ChainError("credit amount must be non-negative")
        self.xrp_balance += amount

    def debit_xrp(self, amount: float, respect_reserve: bool = True) -> None:
        if amount < 0:
            raise ChainError("debit amount must be non-negative")
        available = self.spendable_xrp if respect_reserve else self.xrp_balance
        if available + 1e-9 < amount:
            raise ChainError(
                f"insufficient XRP on {self.address}: {available} available < {amount}"
            )
        self.xrp_balance -= amount

    def next_sequence(self) -> int:
        """Consume and return the account's next transaction sequence number."""
        sequence = self.sequence
        self.sequence += 1
        return sequence


class XrpAccountRegistry:
    """All accounts known to the ledger, with the activation (parent) graph."""

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0)
        self._accounts: Dict[str, XrpAccount] = {}

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, address: str) -> bool:
        return address in self._accounts

    def get(self, address: str) -> XrpAccount:
        account = self._accounts.get(address)
        if account is None:
            raise ChainError(f"unknown XRP account: {address!r}")
        return account

    def maybe_get(self, address: str) -> Optional[XrpAccount]:
        return self._accounts.get(address)

    def create_genesis(self, address: Optional[str] = None, balance: float = 0.0, username: str = "") -> XrpAccount:
        """Create an account with no parent (genesis / pre-window accounts)."""
        if address is None:
            address = generate_address(self._rng)
        if address in self._accounts:
            raise ChainError(f"XRP account already exists: {address!r}")
        account = XrpAccount(address=address, xrp_balance=balance, username=username)
        self._accounts[address] = account
        return account

    def activate(
        self,
        parent: str,
        initial_xrp: float,
        timestamp: float = 0.0,
        address: Optional[str] = None,
        username: str = "",
    ) -> XrpAccount:
        """Activate a new account funded by ``parent`` (must cover the reserve)."""
        if initial_xrp < ACCOUNT_RESERVE_XRP:
            raise ChainError(
                f"activation requires at least the {ACCOUNT_RESERVE_XRP} XRP reserve"
            )
        parent_account = self.get(parent)
        parent_account.debit_xrp(initial_xrp)
        if address is None:
            address = generate_address(self._rng)
        if address in self._accounts:
            raise ChainError(f"XRP account already exists: {address!r}")
        account = XrpAccount(
            address=address,
            xrp_balance=initial_xrp,
            parent=parent,
            activated_at=timestamp,
            username=username,
        )
        self._accounts[address] = account
        return account

    def addresses(self) -> List[str]:
        """Every known address, sorted."""
        return sorted(self._accounts)

    def accounts(self) -> Iterable[XrpAccount]:
        return self._accounts.values()

    def descendants(self, ancestor: str) -> List[str]:
        """Addresses activated (directly or transitively) by ``ancestor``."""
        children: Dict[str, List[str]] = {}
        for account in self._accounts.values():
            if account.parent:
                children.setdefault(account.parent, []).append(account.address)
        result: List[str] = []
        frontier = list(children.get(ancestor, []))
        while frontier:
            address = frontier.pop()
            result.append(address)
            frontier.extend(children.get(address, []))
        return sorted(result)

    def cluster_identifier(self, address: str) -> str:
        """Cluster label for an account, following the paper's §3.3 rule.

        Accounts are clustered by username; accounts without a username
        inherit their parent's username with a ``-- descendant`` suffix, and
        fall back to their own address when no ancestor has a username.
        """
        account = self.maybe_get(address)
        if account is None:
            return address
        if account.username:
            return account.username
        seen = set()
        parent = account.parent
        while parent and parent not in seen:
            seen.add(parent)
            parent_account = self.maybe_get(parent)
            if parent_account is None:
                break
            if parent_account.username:
                return f"{parent_account.username} -- descendant"
            parent = parent_account.parent
        return address

    def total_xrp(self) -> float:
        """Total XRP held across all accounts (conserved minus burned fees)."""
        return sum(account.xrp_balance for account in self._accounts.values())
