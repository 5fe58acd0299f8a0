"""Case study: the EIDOS airdrop, boomerang transactions and congestion (§4.1).

Generates EOS traffic across the 2019-11-01 EIDOS launch and reports:

* how the per-6-hour action count explodes at the launch (Figure 3a);
* how many boomerang claims were detected and what share of post-launch
  traffic they represent (the paper's 95 % headline);
* the WhaleEx wash-trading statistics (top-account concentration, self-trade
  shares, near-zero net balance changes);
* the resource-market consequences: congestion-mode share and the CPU price
  spike that squeezed low-stake users off the chain.

Run with:  python examples/eos_eidos_congestion.py
"""

from __future__ import annotations

from repro.analysis.airdrop import AirdropAccumulator, analyze_congestion
from repro.analysis.report import full_report
from repro.analysis.throughput import spike_ratio
from repro.common.clock import date_from_timestamp
from repro.common.columns import TxFrame
from repro.common.records import ChainId, iter_transactions
from repro.eos.workload import EosWorkloadConfig, EosWorkloadGenerator


def main() -> None:
    config = EosWorkloadConfig(
        start_date="2019-10-18",
        end_date="2019-11-15",
        transactions_per_day=1_200,
        blocks_per_day=12,
        user_account_count=120,
        seed=42,
    )
    print(f"Generating EOS traffic {config.start_date} -> {config.end_date} ...")
    generator = EosWorkloadGenerator(config)
    blocks = generator.generate()
    records = list(iter_transactions(blocks))
    print(f"  {len(blocks)} blocks, {len(records)} actions")
    frame = TxFrame.from_records(records)
    figures = full_report(frame).chains[ChainId.EOS]

    # Figure 3a: throughput per 6-hour bin by application category.
    series = figures["throughput_series"]
    launch = config.eidos_launch_timestamp
    print("\nThroughput across time (Figure 3a shape):")
    print(f"  traffic after / before the EIDOS launch: {spike_ratio(series, launch):.1f}x")
    peak_index, peak_count = series.peak_bin()
    print(
        f"  busiest 6-hour bin: {peak_count} actions on "
        f"{date_from_timestamp(series.bin_start(peak_index))}"
    )

    # Boomerang claims (§4.1).
    airdrop = AirdropAccumulator(config.eidos_launch_date).run(frame)
    print("\nEIDOS boomerang transactions:")
    print(f"  detected claims:                {airdrop.claim_count}")
    print(f"  unique claimer accounts:        {airdrop.unique_claimers}")
    print(f"  share of post-launch actions:   {airdrop.boomerang_action_share_post_launch:.1%}")
    print(f"  post/pre traffic multiplier:    {airdrop.traffic_multiplier:.1f}x")

    # Congestion mode and CPU price (§4.1).
    congestion = analyze_congestion(generator.chain.resources.history(), launch)
    print("\nResource market impact:")
    print(f"  post-launch blocks in congestion mode: {congestion.congested_share:.1%}")
    print(f"  CPU price increase vs pre-launch:      {congestion.cpu_price_increase:,.0f}x")
    print(f"  transactions rejected for lack of CPU: {generator.chain.rejected_transactions}")

    # WhaleEx wash trading (§4.1).
    wash = figures["wash_trading"]
    print("\nWhaleEx wash trading:")
    print(f"  settled trades:                       {wash.trade_count}")
    print(f"  share involving the top-5 accounts:   {wash.top_accounts_trade_share:.1%}")
    for account, share in wash.self_trade_share_by_account.items():
        print(f"    {account:14s} self-trade share: {share:.1%}")
    print(f"  verdict: wash trading suspected = {wash.is_wash_trading_suspected()}")


if __name__ == "__main__":
    main()
