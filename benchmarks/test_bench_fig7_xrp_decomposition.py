"""Figure 7 — XRP ledger throughput decomposition.

Regenerates the Figure 7 sunburst numbers: the failed-transaction share
(~10.7 %), the split of successful traffic into payments and offers, the
share of payments moving valued tokens (1 in 19), the share of offers that
lead to an exchange (0.2 %), and the headline economic-value share (~2.3 %).
Benchmarks the decomposition pass.
"""

from repro.analysis.value import FailureCodeAccumulator, XrpDecompositionAccumulator


def test_fig7_decomposition(benchmark, xrp_frame, xrp_oracle):
    decomposition = benchmark(XrpDecompositionAccumulator(xrp_oracle).run, xrp_frame)
    print("\nFigure 7 — XRP throughput decomposition:")
    print(f"  total transactions:        {decomposition.total}")
    print(f"  failed:                    {decomposition.failed} ({decomposition.failed_share:.1%})")
    print(f"  successful payments:       {decomposition.payments}")
    print(f"    with value:              {decomposition.payments_with_value}")
    print(f"    without value:           {decomposition.payments_without_value}")
    print(f"  successful offers:         {decomposition.offers}")
    print(f"    leading to an exchange:  {decomposition.offers_exchanged} ({decomposition.offer_fill_fraction:.2%})")
    print(f"  economic-value share:      {decomposition.economic_value_share:.2%}")
    # Paper targets (shape): ~10% failures, ~2% value, 1-in-19 valued payments,
    # ~0.2% of offers exchanged.
    assert 0.06 <= decomposition.failed_share <= 0.18
    assert 0.005 <= decomposition.economic_value_share <= 0.06
    assert decomposition.payments_without_value > 10 * decomposition.payments_with_value
    assert decomposition.offer_fill_fraction < 0.02
    assert decomposition.offers > 0 and decomposition.payments > 0


def test_fig7_failure_codes(benchmark, xrp_frame):
    table = benchmark(FailureCodeAccumulator().run, xrp_frame)
    print(f"\nFigure 7 — most frequent failure codes: "
          f"{ {tx: max(codes, key=codes.get) for tx, codes in table.items()} }")
    # Paper: PATH_DRY dominates Payment failures, tecUNFUNDED_OFFER dominates
    # OfferCreate failures.
    assert max(table["Payment"], key=table["Payment"].get) == "tecPATH_DRY"
    assert max(table["OfferCreate"], key=table["OfferCreate"].get) == "tecUNFUNDED_OFFER"
