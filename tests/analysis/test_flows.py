"""Tests for the Figure 12 value-flow aggregation."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.analysis.clustering import AccountClusterer
from repro.analysis.flows import ValueFlowAccumulator
from repro.analysis.value import ExchangeRateOracle
from repro.xrp.accounts import XrpAccountRegistry
from tests.support import run_on_records


def payment(sender, receiver, amount, currency="XRP", issuer="", success=True):
    return TransactionRecord(
        chain=ChainId.XRP,
        transaction_id=f"{sender}-{receiver}-{currency}-{amount}",
        block_height=1,
        timestamp=0.0,
        type="Payment",
        sender=sender,
        receiver=receiver,
        amount=amount,
        currency=currency,
        issuer=issuer,
        success=success,
    )


@pytest.fixture
def clusterer():
    registry = XrpAccountRegistry(rng=DeterministicRng(31))
    binance = registry.create_genesis(balance=1_000.0, username="Binance", address="rBinance")
    registry.activate(binance.address, initial_xrp=100.0, address="rBinanceHot")
    registry.create_genesis(balance=1_000.0, username="Ripple", address="rRipple")
    registry.create_genesis(balance=10.0, address="rNobody")
    return AccountClusterer(registry)


class TestAggregation:
    def test_flows_grouped_by_cluster_and_currency(self, clusterer):
        oracle = ExchangeRateOracle({("USD", "rGateway"): 5.0})
        records = [
            payment("rRipple", "rBinanceHot", 100.0),
            payment("rRipple", "rBinanceHot", 50.0),
            payment("rBinanceHot", "rNobody", 10.0, currency="USD", issuer="rGateway"),
        ]
        report = run_on_records(ValueFlowAccumulator(clusterer, oracle), records)
        assert report.total_xrp_value == pytest.approx(200.0)
        assert report.by_sender["Ripple"] == pytest.approx(150.0)
        assert report.by_sender["Binance -- descendant"] == pytest.approx(50.0)
        assert report.by_currency["USD"] == pytest.approx(50.0)
        assert report.currency_face_value["USD"] == pytest.approx(10.0)
        top_flow = report.flows[0]
        assert top_flow.sender_cluster == "Ripple"
        assert top_flow.receiver_cluster == "Binance -- descendant"
        assert top_flow.payment_count == 2

    def test_valueless_tokens_excluded_by_default(self, clusterer):
        oracle = ExchangeRateOracle()
        records = [payment("rRipple", "rNobody", 1_000_000.0, currency="BTC", issuer="rJunk")]
        report = run_on_records(ValueFlowAccumulator(clusterer, oracle), records)
        assert report.total_xrp_value == 0.0
        assert report.flows == []

    def test_valueless_tokens_counted_when_requested(self, clusterer):
        oracle = ExchangeRateOracle()
        records = [payment("rRipple", "rNobody", 5.0, currency="BTC", issuer="rJunk")]
        report = run_on_records(ValueFlowAccumulator(clusterer, oracle, True), records)
        assert report.total_xrp_value == 0.0
        assert report.flows[0].payment_count == 1
        assert report.currency_face_value["BTC"] == pytest.approx(5.0)

    def test_failed_and_non_payment_records_ignored(self, clusterer):
        oracle = ExchangeRateOracle()
        offer = TransactionRecord(
            chain=ChainId.XRP, transaction_id="o", block_height=1, timestamp=0.0,
            type="OfferCreate", sender="rRipple", receiver="", amount=10.0, currency="XRP",
        )
        records = [offer, payment("rRipple", "rNobody", 10.0, success=False)]
        report = run_on_records(ValueFlowAccumulator(clusterer, oracle), records)
        assert report.total_xrp_value == 0.0

    def test_concentration_and_tops(self, clusterer):
        oracle = ExchangeRateOracle()
        records = [payment("rRipple", "rBinanceHot", 90.0), payment("rNobody", "rRipple", 10.0)]
        report = run_on_records(ValueFlowAccumulator(clusterer, oracle), records)
        assert report.top_senders(1)[0][0] == "Ripple"
        assert report.top_receivers(1)[0][0] == "Binance -- descendant"
        assert report.sender_share("Ripple") == pytest.approx(0.9)
        assert report.top_sender_concentration(1) == pytest.approx(0.9)


class TestGeneratedFlows:
    def test_figure12_shape(self, xrp_figures):
        report = xrp_figures["value_flows"]
        assert report.total_xrp_value > 0.0
        # XRP is by far the most used currency by value.
        currencies = dict(report.top_currencies(10))
        assert max(currencies, key=currencies.get) == "XRP"
        # Ripple is among the top senders (escrow-release payments).
        top_senders = [name for name, _ in report.top_senders(5)]
        assert "Ripple" in top_senders
        # The top clusters cover a large share of the value moved (§3.3 / Fig 12).
        assert report.top_sender_concentration(10) > 0.4
