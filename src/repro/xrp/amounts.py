"""XRP and IOU amount arithmetic.

The XRP ledger supports two kinds of value:

* the native currency **XRP**, counted in integer *drops*
  (1 XRP = 1,000,000 drops) and never issued as an IOU;
* **IOU tokens**, identified by a ``(currency, issuer)`` pair.  Any account
  can issue an IOU with any ticker — which is exactly why the paper insists
  that an IOU's ticker says nothing about its value (§4.3): "BTC" issued by a
  random account is not bitcoin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ChainError
from repro.common.records import XRP_CURRENCY

#: Number of drops per XRP.
DROPS_PER_XRP = 1_000_000

#: Standard transaction fee in drops (10 drops in late 2019).
STANDARD_FEE_DROPS = 10

#: Reserve that a new account must hold to exist on the ledger (20 XRP).
ACCOUNT_RESERVE_XRP = 20.0


def xrp_to_drops(xrp: float) -> int:
    """Convert an XRP amount to integer drops."""
    if xrp < 0:
        raise ChainError("XRP amounts must be non-negative")
    return int(round(xrp * DROPS_PER_XRP))


def drops_to_xrp(drops: int) -> float:
    """Convert integer drops to an XRP amount."""
    if drops < 0:
        raise ChainError("drop amounts must be non-negative")
    return drops / DROPS_PER_XRP


@dataclass(frozen=True)
class IouAmount:
    """An amount of an issuer-specific IOU token (or of native XRP).

    ``issuer`` is empty for native XRP; for IOUs the same currency code with
    a different issuer is a *different asset* — the distinction on which the
    paper's zero-value analysis rests.
    """

    currency: str
    value: float
    issuer: str = ""

    def __post_init__(self) -> None:
        if not self.currency:
            raise ChainError("currency code must not be empty")
        if self.currency == XRP_CURRENCY and self.issuer:
            raise ChainError("native XRP cannot have an issuer")
        if self.currency != XRP_CURRENCY and not self.issuer:
            raise ChainError(f"IOU amount of {self.currency} requires an issuer")

    @property
    def is_native(self) -> bool:
        return self.currency == XRP_CURRENCY

    @property
    def asset_key(self) -> tuple:
        """Hashable identifier of the asset: (currency, issuer)."""
        return (self.currency, self.issuer)

    def with_value(self, value: float) -> "IouAmount":
        return IouAmount(currency=self.currency, value=value, issuer=self.issuer)

    def __add__(self, other: "IouAmount") -> "IouAmount":
        self._check_same_asset(other)
        return self.with_value(self.value + other.value)

    def __sub__(self, other: "IouAmount") -> "IouAmount":
        self._check_same_asset(other)
        return self.with_value(self.value - other.value)

    def _check_same_asset(self, other: "IouAmount") -> None:
        if self.asset_key != other.asset_key:
            raise ChainError(
                f"cannot combine amounts of different assets: {self.asset_key} vs {other.asset_key}"
            )

    def to_dict(self) -> dict:
        return {"currency": self.currency, "value": self.value, "issuer": self.issuer}

    @classmethod
    def native(cls, xrp: float) -> "IouAmount":
        """Construct a native XRP amount."""
        return cls(currency=XRP_CURRENCY, value=xrp)

    @classmethod
    def iou(cls, currency: str, value: float, issuer: str) -> "IouAmount":
        """Construct an issuer-specific IOU amount."""
        return cls(currency=currency, value=value, issuer=issuer)
