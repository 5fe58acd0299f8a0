"""Tests for XRP drops and IOU amount arithmetic."""

import pytest

from repro.common.errors import ChainError
from repro.xrp.amounts import (
    ACCOUNT_RESERVE_XRP,
    DROPS_PER_XRP,
    IouAmount,
    STANDARD_FEE_DROPS,
    XRP_CURRENCY,
    drops_to_xrp,
)


class TestDrops:
    def test_conversion_round_trip(self):
        assert drops_to_xrp(1_500_000) == 1.5

    def test_constants(self):
        assert DROPS_PER_XRP == 1_000_000
        assert STANDARD_FEE_DROPS == 10
        assert ACCOUNT_RESERVE_XRP == 20.0

    def test_negative_amounts_rejected(self):
        with pytest.raises(ChainError):
            drops_to_xrp(-1)


class TestIouAmount:
    def test_native_amount(self):
        amount = IouAmount.native(5.0)
        assert amount.is_native
        assert amount.currency == XRP_CURRENCY
        assert amount.asset_key == ("XRP", "")

    def test_iou_requires_issuer(self):
        with pytest.raises(ChainError):
            IouAmount(currency="USD", value=1.0)

    def test_native_rejects_issuer(self):
        with pytest.raises(ChainError):
            IouAmount(currency="XRP", value=1.0, issuer="rIssuer")

    def test_empty_currency_rejected(self):
        with pytest.raises(ChainError):
            IouAmount(currency="", value=1.0)

    def test_same_ticker_different_issuer_is_a_different_asset(self):
        # The core observation of §4.3: "BTC" is not bitcoin unless you trust
        # the issuer.
        bitstamp_btc = IouAmount.iou("BTC", 1.0, "rBitstamp")
        random_btc = IouAmount.iou("BTC", 1.0, "rRandom")
        assert bitstamp_btc.asset_key != random_btc.asset_key
        with pytest.raises(ChainError):
            _ = bitstamp_btc + random_btc

    def test_arithmetic_on_same_asset(self):
        first = IouAmount.iou("USD", 3.0, "rIssuer")
        second = IouAmount.iou("USD", 2.0, "rIssuer")
        assert (first + second).value == 5.0
        assert (first - second).value == 1.0

    def test_with_value_preserves_asset(self):
        amount = IouAmount.iou("EUR", 1.0, "rIssuer")
        updated = amount.with_value(9.0)
        assert updated.value == 9.0
        assert updated.asset_key == amount.asset_key

    def test_to_dict(self):
        amount = IouAmount.iou("CNY", 7.0, "rIssuer")
        assert amount.to_dict() == {"currency": "CNY", "value": 7.0, "issuer": "rIssuer"}
