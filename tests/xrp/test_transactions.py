"""Tests for the XRP transaction engine and result codes."""

import pytest

from repro.common.errors import ChainError
from repro.common.rng import DeterministicRng
from repro.xrp.accounts import XrpAccountRegistry
from repro.xrp.amounts import IouAmount, drops_to_xrp
from repro.xrp.transactions import (
    ResultCode,
    TransactionType,
    XrpTransaction,
    XrpTransactionEngine,
)

ISSUER = "rGateway"


@pytest.fixture
def engine():
    registry = XrpAccountRegistry(rng=DeterministicRng(4))
    registry.create_genesis(address="rAlice", balance=1_000.0)
    registry.create_genesis(address="rBob", balance=500.0)
    registry.create_genesis(address=ISSUER, balance=100.0)
    instance = XrpTransactionEngine(registry)
    instance.trustlines.set_trust("rAlice", "USD", ISSUER, limit=10_000.0)
    instance.trustlines.set_trust("rBob", "USD", ISSUER, limit=10_000.0)
    return instance


class TestFees:
    def test_fee_charged_even_on_failure(self, engine):
        before = engine.accounts.get("rAlice").xrp_balance
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rAlice",
                destination="rNobody",
                amount=IouAmount.native(1.0),
            )
        )
        assert applied.result is ResultCode.NO_DST
        assert not applied.success
        assert engine.accounts.get("rAlice").xrp_balance == pytest.approx(
            before - drops_to_xrp(10)
        )
        assert engine.fees_burned_xrp > 0.0

    def test_unknown_sender_rejected_outright(self, engine):
        with pytest.raises(ChainError):
            engine.apply(
                XrpTransaction(
                    type=TransactionType.PAYMENT,
                    account="rGhost",
                    destination="rAlice",
                    amount=IouAmount.native(1.0),
                )
            )

    def test_sequence_incremented(self, engine):
        engine.apply(XrpTransaction(type=TransactionType.ACCOUNT_SET, account="rAlice"))
        assert engine.accounts.get("rAlice").sequence == 2


class TestPayments:
    def test_native_payment_moves_xrp(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rAlice",
                destination="rBob",
                amount=IouAmount.native(100.0),
            )
        )
        assert applied.success
        assert engine.accounts.get("rBob").xrp_balance == pytest.approx(600.0)

    def test_native_payment_unfunded(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rBob",
                destination="rAlice",
                amount=IouAmount.native(10_000.0),
            )
        )
        assert applied.result is ResultCode.UNFUNDED_PAYMENT

    def test_iou_payment_requires_trust_path(self, engine):
        # Alice holds no USD yet: PATH_DRY.
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rAlice",
                destination="rBob",
                amount=IouAmount.iou("USD", 10.0, ISSUER),
            )
        )
        assert applied.result is ResultCode.PATH_DRY

    def test_iou_payment_succeeds_over_trust_lines(self, engine):
        engine.trustlines.credit("rAlice", IouAmount.iou("USD", 100.0, ISSUER))
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rAlice",
                destination="rBob",
                amount=IouAmount.iou("USD", 40.0, ISSUER),
            )
        )
        assert applied.success
        assert engine.trustlines.balance("rBob", "USD", ISSUER) == 40.0

    def test_issuer_can_always_issue(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account=ISSUER,
                destination="rAlice",
                amount=IouAmount.iou("USD", 500.0, ISSUER),
            )
        )
        assert applied.success
        assert engine.trustlines.balance("rAlice", "USD", ISSUER) == 500.0

    def test_payment_to_special_address_burns_funds(self, engine):
        special = "rrrrrrrrrrrrrrrrrrrrrhoLvTp"
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.PAYMENT,
                account="rAlice",
                destination=special,
                amount=IouAmount.native(10.0),
            )
        )
        assert applied.success
        assert special not in engine.accounts

    def test_bad_amount(self, engine):
        applied = engine.apply(
            XrpTransaction(type=TransactionType.PAYMENT, account="rAlice", destination="rBob")
        )
        assert applied.result is ResultCode.BAD_AMOUNT


class TestOffers:
    def test_unfunded_offer(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account="rBob",
                taker_gets=IouAmount.iou("USD", 50.0, ISSUER),
                taker_pays=IouAmount.native(100.0),
            )
        )
        assert applied.result is ResultCode.UNFUNDED_OFFER

    def test_funded_offer_rests(self, engine):
        engine.trustlines.credit("rBob", IouAmount.iou("USD", 100.0, ISSUER))
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account="rBob",
                taker_gets=IouAmount.iou("USD", 50.0, ISSUER),
                taker_pays=IouAmount.native(100.0),
            )
        )
        assert applied.success
        assert applied.offer_id > 0
        assert applied.executions == []

    def test_crossing_offer_produces_executions(self, engine):
        engine.trustlines.credit("rBob", IouAmount.iou("USD", 100.0, ISSUER))
        engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account="rBob",
                taker_gets=IouAmount.iou("USD", 50.0, ISSUER),
                taker_pays=IouAmount.native(100.0),
            )
        )
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account="rAlice",
                taker_gets=IouAmount.native(100.0),
                taker_pays=IouAmount.iou("USD", 50.0, ISSUER),
            )
        )
        assert applied.success
        assert len(applied.executions) == 1

    def test_offer_cancel(self, engine):
        engine.trustlines.credit("rBob", IouAmount.iou("USD", 100.0, ISSUER))
        created = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CREATE,
                account="rBob",
                taker_gets=IouAmount.iou("USD", 10.0, ISSUER),
                taker_pays=IouAmount.native(30.0),
            )
        )
        cancelled = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CANCEL,
                account="rBob",
                offer_sequence=created.offer_id,
            )
        )
        assert cancelled.success
        missing = engine.apply(
            XrpTransaction(
                type=TransactionType.OFFER_CANCEL, account="rBob", offer_sequence=9_999
            )
        )
        assert missing.result is ResultCode.NO_ENTRY


class TestTrustSetAndSettings:
    def test_trust_set_creates_line(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.TRUST_SET,
                account="rAlice",
                limit=IouAmount.iou("EUR", 5_000.0, ISSUER),
            )
        )
        assert applied.success
        assert engine.trustlines.has_line("rAlice", "EUR", ISSUER)

    def test_trust_set_native_rejected(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.TRUST_SET,
                account="rAlice",
                limit=IouAmount.native(10.0),
            )
        )
        assert applied.result is ResultCode.BAD_AMOUNT

    def test_settings_transactions_are_noops(self, engine):
        for tx_type in (
            TransactionType.ACCOUNT_SET,
            TransactionType.SIGNER_LIST_SET,
            TransactionType.SET_REGULAR_KEY,
        ):
            applied = engine.apply(XrpTransaction(type=tx_type, account="rAlice"))
            assert applied.success


class TestEscrows:
    def test_escrow_create_locks_the_amount_and_numbers_escrows(self, engine):
        before = engine.accounts.get("rAlice").xrp_balance
        ids = [
            engine.apply(
                XrpTransaction(
                    type=TransactionType.ESCROW_CREATE,
                    account="rAlice",
                    destination="rBob",
                    amount=IouAmount.native(100.0),
                    finish_after=50.0,
                )
            ).offer_id
            for _ in range(2)
        ]
        assert ids == [1, 2]
        assert engine.accounts.get("rAlice").xrp_balance == pytest.approx(
            before - 2 * (100.0 + drops_to_xrp(10))
        )

    def test_escrow_unfunded(self, engine):
        applied = engine.apply(
            XrpTransaction(
                type=TransactionType.ESCROW_CREATE,
                account="rBob",
                destination="rAlice",
                amount=IouAmount.native(100_000.0),
            )
        )
        assert applied.result is ResultCode.UNFUNDED_PAYMENT
