"""Figure 4 — EOS top applications by received transactions.

Regenerates the Figure 4 table: the applications receiving the most actions
together with their per-action breakdown (``transfer`` ~100 % for
``eosio.token``, bookkeeping-dominated mixes for the betting and DEX
contracts), and benchmarks the ranking pass.
"""

from repro.analysis.accounts import AccountActivityAccumulator
from repro.analysis.classify import ContractBreakdownAccumulator


def test_fig4_top_receivers(benchmark, eos_frame):
    receivers = benchmark(AccountActivityAccumulator("receiver", 10).run, eos_frame)
    print("\nFigure 4 — EOS top applications by received actions:")
    for activity in receivers:
        top_name, _, top_share = activity.top_type()
        print(
            f"  {activity.account:14s} {activity.total:>9d} actions "
            f"({activity.share_of_chain:5.1%})  top action: {top_name} {top_share:.1%}"
        )
    names = [activity.account for activity in receivers]
    # The paper's top applications all appear, with eosio.token first.
    assert names[0] == "eosio.token"
    for application in ("eidosonecoin", "betdicetasks", "whaleextrust", "pornhashbaby", "eossanguoone"):
        assert application in names


def test_fig4_token_contract_breakdown(benchmark, eos_frame):
    breakdown = benchmark(ContractBreakdownAccumulator("eosio.token").run, eos_frame)
    name, _, share = breakdown[0]
    assert name == "transfer"
    assert share > 0.999  # paper: 99.999%


def test_fig4_betting_contract_breakdown(eos_frame):
    rows = ContractBreakdownAccumulator("betdicetasks").run(eos_frame)
    breakdown = {name: share for name, _, share in rows}
    print(f"\nFigure 4 — betdicetasks action mix: { {k: round(v, 3) for k, v in breakdown.items()} }")
    # Paper: removetask 68%, log ~12%; bets are a small minority.
    assert breakdown["removetask"] == max(breakdown.values())
    assert breakdown["removetask"] > 0.5
    assert breakdown.get("betrecord", 0.0) < 0.15


def test_fig4_dex_contract_breakdown(eos_frame):
    rows = ContractBreakdownAccumulator("whaleextrust").run(eos_frame)
    breakdown = {name: share for name, _, share in rows}
    # Paper: verifytrade2 is the most used WhaleEx action (29.8%).
    assert breakdown["verifytrade2"] == max(breakdown.values())
