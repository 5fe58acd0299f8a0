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


class IouAmount:
    """An amount of an issuer-specific IOU token (or of native XRP).

    ``issuer`` is empty for native XRP; for IOUs the same currency code with
    a different issuer is a *different asset* — the distinction on which the
    paper's zero-value analysis rests.

    A value: nothing assigns to an amount after construction, and it hashes
    and compares by its three fields.  A plain class rather than a frozen
    dataclass because the workload builds several per XRP transaction and a
    frozen dataclass pays one ``object.__setattr__`` per field; not a tuple
    because ``+`` and ``-`` add values, where a tuple's would concatenate.
    """

    __slots__ = ("currency", "value", "issuer")

    def __init__(self, currency: str, value: float, issuer: str = "") -> None:
        if not currency:
            raise ChainError("currency code must not be empty")
        if currency == XRP_CURRENCY:
            if issuer:
                raise ChainError("native XRP cannot have an issuer")
        elif not issuer:
            raise ChainError(f"IOU amount of {currency} requires an issuer")
        self.currency = currency
        self.value = value
        self.issuer = issuer

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.currency, self.value, self.issuer) == (
            other.currency,
            other.value,
            other.issuer,
        )

    def __hash__(self) -> int:
        return hash((self.currency, self.value, self.issuer))

    def __repr__(self) -> str:
        return (
            f"IouAmount(currency={self.currency!r}, value={self.value!r}, "
            f"issuer={self.issuer!r})"
        )

    @property
    def is_native(self) -> bool:
        return self.currency == XRP_CURRENCY

    @property
    def asset_key(self) -> tuple:
        """Hashable identifier of the asset: (currency, issuer)."""
        return (self.currency, self.issuer)

    def with_value(self, value: float) -> "IouAmount":
        return IouAmount(self.currency, value, self.issuer)

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
