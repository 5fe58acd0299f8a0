"""Tests for trust lines and IOU movement."""

import pytest

from repro.common.errors import ChainError
from repro.xrp.amounts import IouAmount
from repro.xrp.trustlines import TrustLineTable


ISSUER = "rGateway"
ALICE = "rAlice"
BOB = "rBob"


@pytest.fixture
def table():
    instance = TrustLineTable()
    instance.set_trust(ALICE, "USD", ISSUER, limit=1_000.0)
    instance.set_trust(BOB, "USD", ISSUER, limit=100.0)
    return instance


class TestTrustSet:
    def test_create_and_update_limit(self, table):
        line = table.get(ALICE, "USD", ISSUER)
        assert line.limit == 1_000.0
        table.set_trust(ALICE, "USD", ISSUER, limit=2_000.0)
        assert table.get(ALICE, "USD", ISSUER).limit == 2_000.0
        assert len(table) == 2  # an update is not a second line

    def test_cannot_lower_limit_below_balance(self, table):
        table.credit(ALICE, IouAmount.iou("USD", 500.0, ISSUER))
        with pytest.raises(ChainError):
            table.set_trust(ALICE, "USD", ISSUER, limit=100.0)

    def test_no_trust_line_for_native_xrp(self):
        table = TrustLineTable()
        with pytest.raises(ChainError):
            table.set_trust(ALICE, "XRP", ISSUER, limit=10.0)

    def test_issuer_needs_no_line_to_itself(self):
        table = TrustLineTable()
        with pytest.raises(ChainError):
            table.set_trust(ISSUER, "USD", ISSUER, limit=10.0)

    def test_missing_line_lookup(self, table):
        with pytest.raises(ChainError):
            table.get(ALICE, "EUR", ISSUER)
        assert not table.has_line(ALICE, "EUR", ISSUER)
        assert table.balance(ALICE, "EUR", ISSUER) == 0.0


class TestTransfers:
    def test_issuance_creates_iou(self, table):
        table.transfer(ISSUER, ALICE, IouAmount.iou("USD", 200.0, ISSUER))
        assert table.balance(ALICE, "USD", ISSUER) == 200.0

    def test_redemption_destroys_iou(self, table):
        table.transfer(ISSUER, ALICE, IouAmount.iou("USD", 200.0, ISSUER))
        table.transfer(ALICE, ISSUER, IouAmount.iou("USD", 50.0, ISSUER))
        assert table.balance(ALICE, "USD", ISSUER) == 150.0

    def test_peer_to_peer_transfer_rides_both_lines(self, table):
        table.transfer(ISSUER, ALICE, IouAmount.iou("USD", 80.0, ISSUER))
        table.transfer(ALICE, BOB, IouAmount.iou("USD", 30.0, ISSUER))
        assert table.balance(ALICE, "USD", ISSUER) == 50.0
        assert table.balance(BOB, "USD", ISSUER) == 30.0

    def test_insufficient_balance_is_path_dry(self, table):
        with pytest.raises(ChainError):
            table.transfer(ALICE, BOB, IouAmount.iou("USD", 10.0, ISSUER))

    def test_receiver_capacity_enforced(self, table):
        table.transfer(ISSUER, ALICE, IouAmount.iou("USD", 500.0, ISSUER))
        # Bob's limit is only 100.
        with pytest.raises(ChainError):
            table.transfer(ALICE, BOB, IouAmount.iou("USD", 200.0, ISSUER))

    def test_native_xrp_rejected(self, table):
        with pytest.raises(ChainError):
            table.transfer(ALICE, BOB, IouAmount.native(1.0))

    def test_can_send_and_receive_predicates(self, table):
        usd = IouAmount.iou("USD", 10.0, ISSUER)
        assert table.can_send(ISSUER, usd)  # issuers mint freely
        assert not table.can_send(ALICE, usd)
        assert table.can_receive(ALICE, usd)
        assert not table.can_receive("rStranger", usd)
        assert table.can_receive(ALICE, IouAmount.native(5.0))

    def test_credit_creates_line_when_missing(self):
        table = TrustLineTable()
        table.credit(ALICE, IouAmount.iou("BTC", 2.0, ISSUER))
        assert table.balance(ALICE, "BTC", ISSUER) == 2.0
        # Credit beyond the limit raises the limit rather than failing.
        table.credit(ALICE, IouAmount.iou("BTC", 1e10, ISSUER))
        assert table.get(ALICE, "BTC", ISSUER).limit >= table.balance(ALICE, "BTC", ISSUER)

