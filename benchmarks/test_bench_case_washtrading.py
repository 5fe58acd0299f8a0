"""§4.1 case study — exchange wash trading on WhaleEx.

Regenerates the wash-trading statistics: the top five trading accounts are
involved in the bulk of ``verifytrade2`` settlements (paper: >70 %), each of
them is both buyer and seller in most of its trades (paper: >85 %), and the
net balance change of the traded currencies is negligible relative to the
gross volume (paper: <0.7 % for almost every currency).  Benchmarks the
detector over the full benchmark-scale EOS stream.
"""

from repro.analysis.washtrading import (
    TradeExtractionAccumulator,
    WashTradeAccumulator,
    relative_balance_change,
)


def test_case_washtrading_report(benchmark, eos_frame, bench_scenario):
    report = benchmark(WashTradeAccumulator().run, eos_frame)
    print("\n§4.1 — WhaleEx wash trading:")
    print(f"  settled trades:                     {report.trade_count}")
    print(f"  trades involving the top 5 accounts: {report.top_accounts_trade_share:.1%}")
    print(f"  overall self-trade share:            {report.self_trade_share_overall:.1%}")
    for account, share in report.self_trade_share_by_account.items():
        print(f"    {account:14s} self-trades: {share:.1%}")
    assert report.trade_count > 100
    # Paper: top-5 accounts associated with over 70% of the trades.
    assert report.top_accounts_trade_share > 0.6
    # Paper: each top account self-trades in more than 85% of its trades.
    assert min(report.self_trade_share_by_account.values()) > 0.6
    assert report.is_wash_trading_suspected()


def test_case_washtrading_balance_changes(benchmark, eos_frame):
    report = WashTradeAccumulator().run(eos_frame)
    trades = benchmark(TradeExtractionAccumulator().run, eos_frame)
    print("\n§4.1 — net balance change of the top wash-trading accounts:")
    small_net_accounts = 0
    for account in report.top_accounts:
        gross = sum(
            trade.amount for trade in trades if account in (trade.buyer, trade.seller)
        )
        net = sum(abs(value) for value in report.net_balance_change_by_account[account].values())
        rel = relative_balance_change(net, gross)
        print(f"  {account:14s} |net| {net:10.2f} of gross {gross:12.2f}  ({rel:.2%})")
        if rel < 0.5:
            small_net_accounts += 1
    # The paper finds near-zero balance changes (<0.7% of gross) over millions
    # of trades; at the simulation's few hundred trades the random-walk net is
    # proportionally larger, so the check is that the net stays well below the
    # gross volume (directional flow would put it near 100%) for every account.
    assert small_net_accounts == len(report.top_accounts)
