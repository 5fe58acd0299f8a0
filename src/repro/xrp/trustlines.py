"""Trust lines: how issuer-specific IOU balances live on the XRP ledger.

An account can only hold an IOU of ``(currency, issuer)`` if it has opened a
trust line towards the issuer (the ``TrustSet`` transaction) with a limit at
least as large as the balance.  Payments of IOUs move balances along trust
lines; if the required lines do not exist or have no capacity, the payment
fails with ``PATH_DRY`` — the most common Payment failure in the paper's
dataset (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.errors import ChainError
from repro.xrp.amounts import XRP_CURRENCY, IouAmount


@dataclass
class TrustLine:
    """A trust line from ``holder`` towards ``issuer`` for ``currency``."""

    holder: str
    issuer: str
    currency: str
    limit: float
    balance: float = 0.0

    def __post_init__(self) -> None:
        if self.currency == XRP_CURRENCY:
            raise ChainError("trust lines cannot be established for native XRP")
        if self.limit < 0:
            raise ChainError("trust line limit must be non-negative")

    @property
    def capacity(self) -> float:
        """How much more of the IOU the holder is willing to accept."""
        return max(0.0, self.limit - self.balance)


class TrustLineTable:
    """All trust lines on the ledger, indexed by (holder, currency, issuer)."""

    def __init__(self) -> None:
        self._lines: Dict[Tuple[str, str, str], TrustLine] = {}

    def __len__(self) -> int:
        return len(self._lines)

    def _key(self, holder: str, currency: str, issuer: str) -> Tuple[str, str, str]:
        return (holder, currency, issuer)

    def set_trust(self, holder: str, currency: str, issuer: str, limit: float) -> TrustLine:
        """Create or update a trust line (the ``TrustSet`` transaction)."""
        if holder == issuer:
            raise ChainError("an issuer does not need a trust line to itself")
        key = self._key(holder, currency, issuer)
        line = self._lines.get(key)
        if line is None:
            line = TrustLine(holder=holder, issuer=issuer, currency=currency, limit=limit)
            self._lines[key] = line
        else:
            if limit < line.balance:
                raise ChainError("cannot lower a trust line limit below its balance")
            line.limit = limit
        return line

    def get(self, holder: str, currency: str, issuer: str) -> TrustLine:
        line = self._lines.get(self._key(holder, currency, issuer))
        if line is None:
            raise ChainError(
                f"no trust line from {holder} for {currency}/{issuer}"
            )
        return line

    def has_line(self, holder: str, currency: str, issuer: str) -> bool:
        return self._key(holder, currency, issuer) in self._lines

    def balance(self, holder: str, currency: str, issuer: str) -> float:
        line = self._lines.get(self._key(holder, currency, issuer))
        return line.balance if line else 0.0

    # -- IOU movement ---------------------------------------------------------
    def can_receive(self, holder: str, amount: IouAmount) -> bool:
        """Whether ``holder`` can accept ``amount`` over an existing line."""
        if amount.is_native:
            return True
        line = self._lines.get(self._key(holder, amount.currency, amount.issuer))
        if line is None:
            return False
        return line.capacity + 1e-9 >= amount.value

    def can_send(self, holder: str, amount: IouAmount) -> bool:
        """Whether ``holder`` holds enough of the IOU (issuers mint freely)."""
        if amount.is_native:
            return True
        if holder == amount.issuer:
            return True
        return self.balance(holder, amount.currency, amount.issuer) + 1e-9 >= amount.value

    def transfer(self, sender: str, receiver: str, amount: IouAmount) -> None:
        """Move an IOU balance from ``sender`` to ``receiver``.

        Issuing (sender == issuer) creates new IOUs; redemption
        (receiver == issuer) destroys them.  Everything else rides existing
        trust lines, which must have enough balance / capacity.
        """
        if amount.is_native:
            raise ChainError("native XRP does not move over trust lines")
        if amount.value < 0:
            raise ChainError("transfer amount must be non-negative")
        if sender != amount.issuer:
            line = self.get(sender, amount.currency, amount.issuer)
            if line.balance + 1e-9 < amount.value:
                raise ChainError("insufficient IOU balance (PATH_DRY)")
            line.balance -= amount.value
        if receiver != amount.issuer:
            line = self.get(receiver, amount.currency, amount.issuer)
            if line.capacity + 1e-9 < amount.value:
                raise ChainError("receiving trust line has no capacity (PATH_DRY)")
            line.balance += amount.value

    def credit(self, holder: str, amount: IouAmount) -> None:
        """Force-credit an IOU balance (used when seeding scenario state)."""
        if amount.is_native:
            raise ChainError("native XRP does not live on trust lines")
        line = self._lines.get(self._key(holder, amount.currency, amount.issuer))
        if line is None:
            line = self.set_trust(holder, amount.currency, amount.issuer, limit=max(amount.value, 1e9))
        line.balance += amount.value
        if line.balance > line.limit:
            line.limit = line.balance
