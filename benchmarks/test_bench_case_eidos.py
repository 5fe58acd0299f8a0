"""§4.1 case study — EIDOS boomerang transactions and network congestion.

Regenerates the airdrop statistics over the full benchmark window: the
launch multiplies traffic by more than an order of magnitude, boomerang
claims dominate post-launch actions (paper: 95 % of all transactions), the
network enters congestion mode and the CPU price spikes by orders of
magnitude (paper: +10,000 %), squeezing out low-stake users.  Benchmarks the
boomerang detector and the congestion summary.
"""

from repro.analysis.airdrop import (
    AirdropAccumulator,
    BoomerangClaimsAccumulator,
    analyze_congestion,
)


def test_case_eidos_boomerang_detection(benchmark, eos_frame, bench_scenario):
    claims = benchmark(BoomerangClaimsAccumulator().run, eos_frame)
    report = AirdropAccumulator(bench_scenario.eos.eidos_launch_date).run(eos_frame)
    print("\n§4.1 — EIDOS airdrop:")
    print(f"  boomerang claims detected:        {len(claims)}")
    print(f"  unique claimer accounts:          {report.unique_claimers}")
    print(f"  share of post-launch actions:     {report.boomerang_action_share_post_launch:.1%}")
    print(f"  post/pre traffic multiplier:      {report.traffic_multiplier:.1f}x")
    assert len(claims) > 1_000
    # Paper: 95% of transactions were triggered by the airdrop after launch.
    assert report.boomerang_action_share_post_launch > 0.8
    # Paper: total transactions increased by more than 10x.
    assert report.traffic_multiplier > 10.0
    # Every claim returns exactly the EOS that was sent (the boomerang).
    assert all(claim.eos_amount > 0 for claim in claims[:100])


def test_case_eidos_congestion(benchmark, eos_generator, bench_scenario):
    history = eos_generator.chain.resources.history()
    launch = bench_scenario.eos.eidos_launch_timestamp
    report = benchmark(analyze_congestion, history, launch)
    print("\n§4.1 — congestion mode:")
    print(f"  blocks sampled:                     {report.samples}")
    print(f"  post-launch blocks congested:       {report.congested_share:.1%}")
    print(f"  CPU price increase vs pre-launch:   {report.cpu_price_increase:,.0f}x")
    print(f"  transactions rejected (no CPU):     {eos_generator.chain.rejected_transactions}")
    # The network spends a substantial share of post-launch blocks congested
    # and the CPU price rises by orders of magnitude (paper: 10,000%).
    assert report.congested_share > 0.3
    assert report.cpu_price_increase > 100.0
    # No congestion before the launch.
    pre = [sample for sample in history if sample.timestamp < launch]
    assert not any(sample.congested for sample in pre)
    # Low-stake users get squeezed: some transactions are rejected for CPU.
    assert eos_generator.chain.rejected_transactions > 0
