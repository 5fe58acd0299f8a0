"""Tests for the XRP DEX order book and offer crossing."""

import pytest

from repro.common.errors import ChainError
from repro.xrp.amounts import IouAmount
from repro.xrp.orderbook import OrderBook

ISSUER = "rGateway"


def btc(value):
    return IouAmount.iou("BTC", value, ISSUER)


def xrp(value):
    return IouAmount.native(value)


class TestOfferPlacement:
    def test_offer_rests_when_book_is_empty(self):
        book = OrderBook()
        offer, executions = book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        assert executions == []
        assert offer.is_open
        assert not offer.was_filled
        assert offer.price == pytest.approx(30_000.0)
        assert len(book) == 1

    def test_invalid_offers_rejected(self):
        book = OrderBook()
        with pytest.raises(ChainError):
            book.place("rSeller", taker_gets=btc(0.0), taker_pays=xrp(1.0))
        with pytest.raises(ChainError):
            book.place("rSeller", taker_gets=xrp(1.0), taker_pays=xrp(2.0))

    def test_crossing_offers_execute(self):
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        buy, executions = book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert len(executions) == 1
        execution = executions[0]
        assert execution.seller == "rBuyer"
        assert execution.buyer == "rSeller"
        assert buy.was_filled
        assert not buy.is_open
        assert len(book.executions) == 1

    def test_non_crossing_offers_rest(self):
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        # Buyer only offers 20,000 XRP per BTC: no cross.
        _, executions = book.place("rBuyer", taker_gets=xrp(20_000.0), taker_pays=btc(1.0))
        assert executions == []
        assert len(book) == 2

    def test_partial_fill(self):
        book = OrderBook()
        resting, _ = book.place("rSeller", taker_gets=btc(2.0), taker_pays=xrp(60_000.0))
        incoming, executions = book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert len(executions) == 1
        assert incoming.was_filled
        assert resting.was_filled
        assert resting.is_open  # half of the resting offer remains
        assert resting.remaining_gets == pytest.approx(1.0)

    def test_best_price_consumed_first(self):
        book = OrderBook()
        cheap, _ = book.place("rCheap", taker_gets=btc(1.0), taker_pays=xrp(25_000.0))
        expensive, _ = book.place("rExpensive", taker_gets=btc(1.0), taker_pays=xrp(35_000.0))
        _, executions = book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert len(executions) == 1
        assert executions[0].buyer == "rCheap"
        assert cheap.was_filled
        assert not expensive.was_filled


class TestCancellation:
    def test_cancel_marks_offer_closed(self):
        book = OrderBook()
        offer, _ = book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        book.cancel(offer.offer_id, "rSeller")
        assert not offer.is_open
        assert len(book) == 0

    def test_only_owner_may_cancel(self):
        book = OrderBook()
        offer, _ = book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        with pytest.raises(ChainError):
            book.cancel(offer.offer_id, "rStranger")

    def test_unknown_offer(self):
        book = OrderBook()
        with pytest.raises(ChainError):
            book.cancel(42, "rAnyone")


class TestPriceOracle:
    def test_executed_rate_vs_xrp(self):
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        rates = book.executed_rates_vs_xrp("BTC", ISSUER)
        assert len(rates) == 1
        assert rates[0][1] == pytest.approx(30_000.0)
        assert book.average_rate_vs_xrp("BTC", ISSUER) == pytest.approx(30_000.0)

    def test_rate_is_zero_without_executions(self):
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        assert book.average_rate_vs_xrp("BTC", ISSUER) == 0.0
        assert book.average_rate_vs_xrp("BTC", "rOtherIssuer") == 0.0

    def test_rate_history_tracks_collapse(self):
        # The Figure 11b pattern: an IOU trades at 30,500 then collapses.
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_500.0), timestamp=1.0)
        book.place("rBuyer", taker_gets=xrp(30_500.0), taker_pays=btc(1.0), timestamp=1.0)
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(1.0), timestamp=2.0)
        book.place("rBuyer", taker_gets=xrp(1.0), taker_pays=btc(1.0), timestamp=2.0)
        history = book.executed_rates_vs_xrp("BTC", ISSUER)
        assert [rate for _, rate in history] == pytest.approx([30_500.0, 1.0])

    def test_fill_fraction(self):
        book = OrderBook()
        book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        book.place("rResting", taker_gets=btc(1.0), taker_pays=xrp(90_000.0))
        assert book.fill_fraction() == pytest.approx(2.0 / 3.0)


class TestIncrementalBook:
    """The book keeps each pair's open offers sorted; reads never prune."""

    def test_best_price_first_with_ties_in_placement_order(self):
        book = OrderBook()
        first, _ = book.place("rFirst", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        cheap, _ = book.place("rCheap", taker_gets=btc(2.0), taker_pays=xrp(50_000.0))
        second, _ = book.place("rSecond", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        dear, _ = book.place("rDear", taker_gets=btc(1.0), taker_pays=xrp(40_000.0))
        asset = (btc(0).asset_key, xrp(0).asset_key)
        assert book.open_offers(*asset) == [cheap, first, second, dear]
        # A taker wide enough for everything at 30,000 and below sweeps the
        # cheap offer, then the equal-priced pair in the order it was placed.
        _, executions = book.place("rTaker", taker_gets=xrp(120_000.0), taker_pays=btc(4.0))
        assert [execution.buyer for execution in executions] == ["rCheap", "rFirst", "rSecond"]

    def test_partial_fill_stays_on_the_book_and_full_fill_leaves_it(self):
        book = OrderBook()
        resting, _ = book.place("rSeller", taker_gets=btc(2.0), taker_pays=xrp(60_000.0))
        asset = (btc(0).asset_key, xrp(0).asset_key)
        taker, _ = book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert not taker.is_open and resting.is_open
        assert book.open_offers(*asset) == [resting]
        assert len(book) == 1  # the filled taker never rested
        book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert not resting.is_open
        assert book.open_offers(*asset) == []
        assert len(book) == 0
        assert len(book.all_offers()) == 3

    def test_cancel_then_cross_skips_the_cancelled_offer(self):
        book = OrderBook()
        cancelled, _ = book.place("rGone", taker_gets=btc(1.0), taker_pays=xrp(20_000.0))
        kept, _ = book.place("rKept", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        book.cancel(cancelled.offer_id, "rGone")
        assert len(book) == 1
        buyer, executions = book.place("rBuyer", taker_gets=xrp(30_000.0), taker_pays=btc(1.0))
        assert [execution.buyer for execution in executions] == ["rKept"]
        assert not cancelled.was_filled
        assert not kept.is_open and not buyer.is_open and len(book) == 0
        # Cancelling an offer that is already closed (cancelled or filled) is
        # not a second removal.
        book.cancel(cancelled.offer_id, "rGone")
        book.cancel(kept.offer_id, "rKept")
        assert len(book) == 0

    def test_reading_the_book_does_not_change_it(self):
        book = OrderBook()
        offer, _ = book.place("rSeller", taker_gets=btc(1.0), taker_pays=xrp(30_000.0))
        book.cancel(offer.offer_id, "rSeller")
        before = {pair: list(entries) for pair, entries in book._by_pair.items()}
        book.open_offers(btc(0).asset_key, xrp(0).asset_key)
        book.open_offers(xrp(0).asset_key, btc(0).asset_key)  # a pair never traded
        assert {pair: list(entries) for pair, entries in book._by_pair.items()} == before

    def test_len_matches_a_recount_after_a_random_session(self):
        import random

        rng = random.Random(11)
        book = OrderBook()
        for step in range(400):
            roll = rng.random()
            if roll < 0.45:
                book.place(f"rS{step}", btc(rng.uniform(0.5, 2.0)), xrp(rng.uniform(20_000, 40_000)))
            elif roll < 0.9:
                book.place(f"rB{step}", xrp(rng.uniform(20_000, 40_000)), btc(rng.uniform(0.5, 2.0)))
            elif book.all_offers():
                target = rng.choice(book.all_offers())
                book.cancel(target.offer_id, target.owner)
        open_offers = [offer for offer in book.all_offers() if offer.is_open]
        assert len(book) == len(open_offers)
        for gets, pays in [(btc(0), xrp(0)), (xrp(0), btc(0))]:
            side = book.open_offers(gets.asset_key, pays.asset_key)
            expected = sorted(
                (offer for offer in open_offers if offer.pair == (gets.asset_key, pays.asset_key)),
                key=lambda offer: offer.price,
            )
            assert side == expected  # sorted() is stable: ties stay in placement order
        assert book.recent_open_offers() == open_offers[-len(book.recent_open_offers()):]
