"""Tests for the WhaleEx wash-trading detector (§4.1)."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.analysis.washtrading import (
    TradeExtractionAccumulator,
    TradeObservation,
    WashTradeAccumulator,
    net_balance_changes,
    relative_balance_change,
)
from tests.support import run_on_records


def trade_record(buyer, seller, symbol="USDT", amount=10.0, contract="whaleextrust"):
    return TransactionRecord(
        chain=ChainId.EOS,
        transaction_id=f"{buyer}-{seller}-{symbol}",
        block_height=1,
        timestamp=0.0,
        type="verifytrade2",
        sender=buyer,
        receiver=contract,
        contract=contract,
        amount=amount,
        currency=symbol,
        metadata={"buyer": buyer, "seller": seller, "self_trade": buyer == seller},
    )


class TestExtraction:
    def test_extracts_only_dex_trades(self):
        records = [
            trade_record("a", "a"),
            TransactionRecord(
                chain=ChainId.EOS, transaction_id="x", block_height=1, timestamp=0.0,
                type="transfer", sender="a", receiver="eosio.token", contract="eosio.token",
            ),
        ]
        trades = run_on_records(TradeExtractionAccumulator(), records)
        assert len(trades) == 1
        assert trades[0].is_self_trade

    def test_non_eos_records_ignored(self):
        record = TransactionRecord(
            chain=ChainId.XRP, transaction_id="x", block_height=1, timestamp=0.0,
            type="verifytrade2", sender="a", receiver="whaleextrust",
        )
        assert run_on_records(TradeExtractionAccumulator(), [record]) == []


class TestAnalysis:
    def test_detects_concentrated_self_trading(self):
        records = [trade_record("washer", "washer") for _ in range(90)]
        records += [trade_record("alice", "bob") for _ in range(10)]
        report = run_on_records(WashTradeAccumulator(top_n=1), records)
        assert report.trade_count == 100
        assert report.top_accounts == ("washer",)
        assert report.top_accounts_trade_share == pytest.approx(0.9)
        assert report.self_trade_share_by_account["washer"] == pytest.approx(1.0)
        assert report.is_wash_trading_suspected()

    def test_honest_market_not_flagged(self):
        records = [trade_record(f"buyer{i}", f"seller{i}") for i in range(50)]
        report = run_on_records(WashTradeAccumulator(top_n=5), records)
        assert report.self_trade_share_overall == 0.0
        assert not report.is_wash_trading_suspected()

    def test_empty_stream(self):
        report = run_on_records(WashTradeAccumulator(), [])
        assert report.trade_count == 0
        assert not report.is_wash_trading_suspected()

    def test_generated_whaleex_traffic_is_flagged(self, eos_figures, scenario):
        report = eos_figures["wash_trading"]
        assert report.trade_count > 0
        # The top five accounts carry most of the trades and mostly self-trade,
        # as §4.1 reports (>70% of trades, >85% self-trades).
        assert report.top_accounts_trade_share > 0.5
        min_self_share = min(report.self_trade_share_by_account.values())
        assert min_self_share > scenario.eos.wash_trade_self_fraction - 0.25
        assert report.is_wash_trading_suspected()

    def test_net_balance_change_near_zero_for_wash_traders(self, eos_frame, eos_figures):
        report = eos_figures["wash_trading"]
        trades = TradeExtractionAccumulator().run(eos_frame)
        near_zero = 0
        for account, changes in report.net_balance_change_by_account.items():
            gross = sum(
                trade.amount for trade in trades if account in (trade.buyer, trade.seller)
            )
            net = sum(abs(value) for value in changes.values())
            if gross > 0 and relative_balance_change(net, gross) < 0.35:
                near_zero += 1
        # Self-trading dominates, so the aggregate net change stays small for
        # most of the top accounts even at the reduced test scale.
        assert near_zero >= max(1, len(report.top_accounts) // 2 + 1)


class TestBalanceChanges:
    def test_self_trades_move_nothing(self):
        trades = [TradeObservation("a", "a", "USDT", 100.0, 0.0)]
        changes = net_balance_changes(trades, ["a"])
        assert changes["a"] == {}

    def test_genuine_trades_net_out(self):
        trades = [
            TradeObservation("a", "b", "USDT", 10.0, 0.0),
            TradeObservation("b", "a", "USDT", 10.0, 1.0),
        ]
        changes = net_balance_changes(trades, ["a", "b"])
        assert changes["a"]["USDT"] == pytest.approx(0.0)
        assert changes["b"]["USDT"] == pytest.approx(0.0)

    def test_relative_balance_change(self):
        assert relative_balance_change(1.0, 200.0) == pytest.approx(0.005)
        assert relative_balance_change(5.0, 0.0) == 0.0
