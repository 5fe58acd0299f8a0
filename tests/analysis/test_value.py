"""Tests for the XRP value analysis (Figure 7, Figure 11, §4.3)."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.analysis.value import (
    ExchangeRateOracle,
    FailureCodeAccumulator,
    ValueDistributionAccumulator,
    XrpDecompositionAccumulator,
    detect_self_dealing,
    iou_rate_table,
    rate_history,
)
from repro.xrp.amounts import IouAmount
from repro.xrp.orderbook import OrderBook
from repro.xrp.workload import LIQUID_LINKED_ISSUER, MYRONE_ACCOUNT, XrpWorkloadConfig, XrpWorkloadGenerator
from tests.support import run_on_records


def xrp_record(type_="Payment", success=True, amount=1.0, currency="XRP", issuer="", executed=False, error=""):
    metadata = {"executed": True} if executed else {}
    return TransactionRecord(
        chain=ChainId.XRP,
        transaction_id=f"{type_}-{currency}-{issuer}-{amount}-{success}-{executed}",
        block_height=1,
        timestamp=0.0,
        type=type_,
        sender="rSender",
        receiver="rReceiver",
        amount=amount,
        currency=currency,
        issuer=issuer,
        success=success,
        error_code=error,
        metadata=metadata,
    )


class TestOracle:
    def test_native_xrp_always_has_value(self):
        oracle = ExchangeRateOracle()
        assert oracle.rate("XRP", "") == 1.0
        assert oracle.has_value("XRP", "")

    def test_unknown_iou_is_valueless(self):
        oracle = ExchangeRateOracle()
        assert oracle.rate("BTC", "rRandom") == 0.0
        assert not oracle.has_value("BTC", "rRandom")

    def test_rates_are_issuer_specific(self):
        oracle = ExchangeRateOracle({("BTC", "rBitstamp"): 36_050.0, ("BTC", "rSpammer"): 0.0})
        assert oracle.has_value("BTC", "rBitstamp")
        assert not oracle.has_value("BTC", "rSpammer")
        assert oracle.xrp_value("BTC", "rBitstamp", 2.0) == pytest.approx(72_100.0)

    def test_from_orderbook(self):
        book = OrderBook()
        book.place("rSeller", IouAmount.iou("BTC", 1.0, "rBitstamp"), IouAmount.native(30_000.0))
        book.place("rBuyer", IouAmount.native(30_000.0), IouAmount.iou("BTC", 1.0, "rBitstamp"))
        oracle = ExchangeRateOracle.from_orderbook(book)
        assert oracle.rate("BTC", "rBitstamp") == pytest.approx(30_000.0)
        assert ("BTC", "rBitstamp") in oracle.known_assets()


class TestDecomposition:
    def test_synthetic_decomposition(self):
        oracle = ExchangeRateOracle({("USD", "rGateway"): 5.0})
        records = (
            [xrp_record("Payment", amount=10.0) for _ in range(2)]                      # valued (XRP)
            + [xrp_record("Payment", currency="USD", issuer="rGateway")]                # valued IOU
            + [xrp_record("Payment", currency="BTC", issuer="rJunk") for _ in range(7)]  # valueless
            + [xrp_record("OfferCreate") for _ in range(8)]
            + [xrp_record("OfferCreate", executed=True)]
            + [xrp_record("TrustSet")]
            + [xrp_record("Payment", success=False, error="tecPATH_DRY") for _ in range(2)]
        )
        decomposition = run_on_records(XrpDecompositionAccumulator(oracle), records)
        assert decomposition.total == 22
        assert decomposition.failed == 2
        assert decomposition.payments == 10
        assert decomposition.payments_with_value == 3
        assert decomposition.offers == 9
        assert decomposition.offers_exchanged == 1
        assert decomposition.others == 1
        assert decomposition.economic_value_share == pytest.approx(4 / 22)
        assert decomposition.offer_fill_fraction == pytest.approx(1 / 9)

    def test_non_xrp_records_ignored(self):
        oracle = ExchangeRateOracle()
        eos = TransactionRecord(
            chain=ChainId.EOS, transaction_id="t", block_height=1, timestamp=0.0,
            type="transfer", sender="a", receiver="b",
        )
        assert run_on_records(XrpDecompositionAccumulator(oracle), [eos]).total == 0

    def test_payment_value_predicates(self):
        # A successful payment carries value iff its asset has an XRP rate;
        # its XRP value is the amount at that rate.
        oracle = ExchangeRateOracle({("USD", "rGateway"): 5.0})
        valued = xrp_record("Payment", currency="USD", issuer="rGateway", amount=3.0)
        junk = xrp_record("Payment", currency="USD", issuer="rJunk", amount=3.0)
        failed = xrp_record("Payment", success=False)
        cases = ((valued, 1, 15.0), (junk, 0, 0.0), (failed, 0, 0.0))
        for record, with_value, xrp_value in cases:
            decomposition = run_on_records(XrpDecompositionAccumulator(oracle), [record])
            assert decomposition.payments_with_value == with_value
            values = run_on_records(ValueDistributionAccumulator(oracle), [record])
            assert (values.count, values.total_xrp) == (with_value, pytest.approx(xrp_value))

    def test_failure_code_distribution(self):
        records = [
            xrp_record("Payment", success=False, error="tecPATH_DRY"),
            xrp_record("Payment", success=False, error="tecPATH_DRY"),
            xrp_record("OfferCreate", success=False, error="tecUNFUNDED_OFFER"),
        ]
        table = run_on_records(FailureCodeAccumulator(), records)
        assert table["Payment"]["tecPATH_DRY"] == 2
        assert table["OfferCreate"]["tecUNFUNDED_OFFER"] == 1

    def test_generated_traffic_decomposition_matches_paper_shape(self, xrp_figures):
        decomposition = xrp_figures["xrp_decomposition"]
        # ~10% of recorded transactions fail.
        assert 0.05 < decomposition.failed_share < 0.2
        # Only a small fraction of throughput carries economic value (§3.4: ~2%).
        assert decomposition.economic_value_share < 0.1
        # Most successful payments move valueless tokens.
        assert decomposition.payments_without_value > decomposition.payments_with_value
        # Almost no offers are ever exchanged (paper: 0.2%).
        assert decomposition.offer_fill_fraction < 0.05


class TestIouRates:
    def test_rate_table_orders_by_rate(self):
        book = OrderBook()
        book.place("rS", IouAmount.iou("BTC", 1.0, "rBitstamp"), IouAmount.native(36_050.0))
        book.place("rB", IouAmount.native(36_050.0), IouAmount.iou("BTC", 1.0, "rBitstamp"))
        rows = iou_rate_table(
            book,
            [
                ("BTC", "rBitstamp", "Bitstamp"),
                ("BTC", "rSpammer", "not registered"),
            ],
        )
        assert rows[0].issuer_name == "Bitstamp"
        assert rows[0].average_rate == pytest.approx(36_050.0)
        assert rows[1].is_valueless

    def test_rate_history(self):
        book = OrderBook()
        book.place("rS", IouAmount.iou("BTC", 1.0, "rX"), IouAmount.native(30_500.0), timestamp=1.0)
        book.place("rB", IouAmount.native(30_500.0), IouAmount.iou("BTC", 1.0, "rX"), timestamp=1.0)
        history = rate_history(book, "BTC", "rX")
        assert history and history[0][1] == pytest.approx(30_500.0)


class TestSelfDealing:
    def test_detects_myrone_pattern(self):
        # The buyer of the IOU previously received it straight from the issuer.
        config = XrpWorkloadConfig(
            start_date="2019-12-12",
            end_date="2019-12-16",
            transactions_per_day=80,
            ledgers_per_day=4,
            ordinary_account_count=20,
            spam_accounts_per_wave=5,
            seed=3,
        )
        generator = XrpWorkloadGenerator(config)
        blocks = generator.generate()
        records = [record for block in blocks for record in block.transactions]
        findings = detect_self_dealing(records, generator.ledger.orderbook)
        assert any(
            finding["issuer"] == LIQUID_LINKED_ISSUER and finding["buyer"] == MYRONE_ACCOUNT
            for finding in findings
        )

    def test_no_findings_without_issuer_payments(self):
        book = OrderBook()
        book.place("rS", IouAmount.iou("BTC", 1.0, "rX"), IouAmount.native(100.0))
        book.place("rB", IouAmount.native(100.0), IouAmount.iou("BTC", 1.0, "rX"))
        assert detect_self_dealing([], book) == []
