"""The XRP ledger's decentralised exchange: offers and offer crossing.

``OfferCreate`` places an order to exchange one asset for another; when the
order book contains a crossing counter-offer the trade executes immediately,
otherwise the offer rests on the book until cancelled, superseded or
expired.  The paper finds that only ~0.2 % of successfully created offers are
ever fulfilled to any extent (Figure 7), and uses executed exchanges against
XRP as the *only* reliable price oracle for IOU tokens (§4.3) — both of
which the analysis layer computes from the structures defined here.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Tuple

from repro.common.errors import ChainError
from repro.xrp.amounts import XRP_CURRENCY, IouAmount


class Offer:
    """A resting order: pay ``taker_gets`` to receive ``taker_pays``.

    ``taker_gets`` is what the offer owner is selling, ``taker_pays`` what
    they ask in return (the XRP ledger's naming, seen from the taker).

    A plain class rather than a dataclass: one is built per ``OfferCreate``
    and crossing fills it in place.
    """

    __slots__ = (
        "offer_id",
        "owner",
        "taker_gets",
        "taker_pays",
        "created_at",
        "filled_gets",
        "filled_pays",
        "cancelled",
    )

    def __init__(
        self,
        offer_id: int,
        owner: str,
        taker_gets: IouAmount,
        taker_pays: IouAmount,
        created_at: float = 0.0,
        filled_gets: float = 0.0,
        filled_pays: float = 0.0,
        cancelled: bool = False,
    ) -> None:
        self.offer_id = offer_id
        self.owner = owner
        self.taker_gets = taker_gets
        self.taker_pays = taker_pays
        self.created_at = created_at
        self.filled_gets = filled_gets
        self.filled_pays = filled_pays
        self.cancelled = cancelled

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    #: Mutable, like the dataclass it replaced: equal offers need not hash.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"Offer({fields})"

    @property
    def price(self) -> float:
        """Price of one unit of ``taker_gets`` expressed in ``taker_pays``."""
        if self.taker_gets.value <= 0:
            raise ChainError("offer must sell a positive amount")
        return self.taker_pays.value / self.taker_gets.value

    @property
    def remaining_gets(self) -> float:
        return max(0.0, self.taker_gets.value - self.filled_gets)

    @property
    def is_open(self) -> bool:
        return not self.cancelled and self.remaining_gets > 1e-12

    @property
    def was_filled(self) -> bool:
        """Whether the offer was fulfilled to any extent (Figure 7's criterion)."""
        return self.filled_gets > 1e-12

    @property
    def pair(self) -> Tuple[tuple, tuple]:
        return (self.taker_gets.asset_key, self.taker_pays.asset_key)


class ExchangeExecution(NamedTuple):
    """One executed exchange between two offers (or an offer and a taker)."""

    timestamp: float
    buyer: str
    seller: str
    sold: IouAmount
    bought: IouAmount

    @property
    def rate(self) -> float:
        """Units of ``bought`` per unit of ``sold``."""
        if self.sold.value <= 0:
            return 0.0
        return self.bought.value / self.sold.value


class OrderBook:
    """All resting offers on the ledger's DEX, with crossing on insert."""

    #: How many of the most recent offers :meth:`recent_open_offers` exposes.
    RECENT_WINDOW = 512

    def __init__(self) -> None:
        self._offers: Dict[int, Offer] = {}
        self._next_id = 1
        self.executions: List[ExchangeExecution] = []
        # Per-(gets, pays) book of the *open* offers as ``(price, offer_id,
        # offer)``, kept sorted: best price first, equal prices in placement
        # order.  An offer leaves its book the moment it closes (cancelled or
        # filled), so crossing walks live offers only and reads never prune.
        self._by_pair: Dict[Tuple[tuple, tuple], List[Tuple[float, int, Offer]]] = {}
        self._open_count = 0
        self._recent: Deque[Offer] = deque(maxlen=self.RECENT_WINDOW)

    def __len__(self) -> int:
        return self._open_count

    def recent_open_offers(self) -> List[Offer]:
        """The most recently placed offers that are still open (cheap lookup)."""
        # ``Offer.is_open``, inlined: the workload asks on every offer it
        # cancels or takes, over the whole window.
        return [
            offer
            for offer in self._recent
            if not offer.cancelled and offer.taker_gets.value - offer.filled_gets > 1e-12
        ]

    def open_offers(self, gets_asset: tuple, pays_asset: tuple) -> List[Offer]:
        """Open offers selling ``gets_asset`` for ``pays_asset``, best price first."""
        return [offer for _, _, offer in self._by_pair.get((gets_asset, pays_asset), ())]

    def _drop(self, offer: Offer) -> None:
        """Take a just-closed offer off its pair's book."""
        book = self._by_pair[offer.pair]
        del book[bisect_left(book, (offer.price, offer.offer_id))]
        self._open_count -= 1

    def get(self, offer_id: int) -> Offer:
        offer = self._offers.get(offer_id)
        if offer is None:
            raise ChainError(f"unknown offer: {offer_id}")
        return offer

    def place(
        self,
        owner: str,
        taker_gets: IouAmount,
        taker_pays: IouAmount,
        timestamp: float = 0.0,
    ) -> Tuple[Offer, List[ExchangeExecution]]:
        """Place an offer, crossing it against the opposite side of the book.

        Returns the (possibly partially or fully filled) offer and the list
        of executions it triggered.
        """
        if taker_gets.value <= 0 or taker_pays.value <= 0:
            raise ChainError("offers must exchange positive amounts")
        if taker_gets.asset_key == taker_pays.asset_key:
            raise ChainError("offers must exchange two distinct assets")
        offer = Offer(self._next_id, owner, taker_gets, taker_pays, timestamp)
        self._next_id += 1
        executions = self._cross(offer, timestamp)
        self._offers[offer.offer_id] = offer
        self._recent.append(offer)
        if offer.is_open:
            insort(
                self._by_pair.setdefault(offer.pair, []),
                (offer.price, offer.offer_id, offer),
            )
            self._open_count += 1
        return offer, executions

    def _cross(self, incoming: Offer, timestamp: float) -> List[ExchangeExecution]:
        """Match ``incoming`` against resting offers on the opposite side."""
        executions: List[ExchangeExecution] = []
        # The opposite side sells what the incoming offer wants to receive.
        opposite = self._by_pair.get(
            (incoming.taker_pays.asset_key, incoming.taker_gets.asset_key), ()
        )
        incoming_price = incoming.price
        filled: List[Offer] = []
        for resting_price, _, resting in opposite:
            if incoming.remaining_gets <= 1e-12:
                break
            # The resting offer's price is expressed in the incoming offer's
            # "gets" units; a trade happens when the combined prices cross.
            if resting_price * incoming_price > 1.0 + 1e-9:
                break
            # Trade size limited by both sides, measured in the incoming
            # offer's "gets" asset (what the incoming owner is selling).
            resting_wants = resting.taker_pays.value - resting.filled_pays
            trade_gets = min(incoming.remaining_gets, resting_wants)
            if trade_gets <= 1e-12:
                continue
            trade_pays = trade_gets * incoming_price
            incoming.filled_gets += trade_gets
            incoming.filled_pays += trade_pays
            resting.filled_pays += trade_gets
            resting.filled_gets += trade_pays
            executions.append(
                ExchangeExecution(
                    timestamp=timestamp,
                    buyer=resting.owner,
                    seller=incoming.owner,
                    sold=incoming.taker_gets.with_value(trade_gets),
                    bought=incoming.taker_pays.with_value(trade_pays),
                )
            )
            if not resting.is_open:
                filled.append(resting)
        for resting in filled:
            self._drop(resting)
        self.executions.extend(executions)
        return executions

    def cancel(self, offer_id: int, owner: str) -> Offer:
        """Cancel a resting offer (the ``OfferCancel`` transaction)."""
        offer = self.get(offer_id)
        if offer.owner != owner:
            raise ChainError("only the offer owner may cancel it")
        if offer.is_open:
            self._drop(offer)
        offer.cancelled = True
        return offer

    # -- price oracle -----------------------------------------------------------
    def executed_rates_vs_xrp(self, currency: str, issuer: str) -> List[Tuple[float, float]]:
        """(timestamp, XRP per token) for every execution of the IOU against XRP."""
        asset = (currency, issuer)
        rates: List[Tuple[float, float]] = []
        for execution in self.executions:
            sold_key = execution.sold.asset_key
            bought_key = execution.bought.asset_key
            if sold_key == asset and bought_key == (XRP_CURRENCY, ""):
                if execution.sold.value > 0:
                    rates.append((execution.timestamp, execution.bought.value / execution.sold.value))
            elif bought_key == asset and sold_key == (XRP_CURRENCY, ""):
                if execution.bought.value > 0:
                    rates.append((execution.timestamp, execution.sold.value / execution.bought.value))
        return sorted(rates)

    def average_rate_vs_xrp(self, currency: str, issuer: str) -> float:
        """Average executed XRP rate of the IOU; 0.0 when it never traded."""
        rates = [rate for _, rate in self.executed_rates_vs_xrp(currency, issuer)]
        if not rates:
            return 0.0
        return sum(rates) / len(rates)

    def fill_fraction(self) -> float:
        """Share of offers that were fulfilled to any extent (Figure 7)."""
        offers = list(self._offers.values())
        if not offers:
            return 0.0
        return sum(1 for offer in offers if offer.was_filled) / len(offers)
