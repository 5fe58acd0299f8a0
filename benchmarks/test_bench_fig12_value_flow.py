"""Figure 12 — value flow on the XRP ledger between account clusters.

Regenerates the Figure 12 aggregation: successful Payment transactions are
grouped by sender cluster, currency and receiver cluster, valued through the
DEX exchange-rate oracle, and summed in XRP terms.  Shape targets: XRP is by
far the most-moved currency, Ripple (escrow releases/returns) and the
exchange clusters dominate both ends, and the top clusters cover about half
of the volume.  Benchmarks the aggregation pass and the clustering ablation.
"""

from repro.analysis.flows import ValueFlowAccumulator


def test_fig12_value_flow(benchmark, xrp_frame, xrp_clusterer, xrp_oracle):
    report = benchmark(ValueFlowAccumulator(xrp_clusterer, xrp_oracle).run, xrp_frame)
    print("\nFigure 12 — XRP value flow (XRP-denominated):")
    print(f"  total: {report.total_xrp_value:,.0f} XRP")
    print("  top senders:   " + ", ".join(f"{name} ({value:,.0f})" for name, value in report.top_senders(5)))
    print("  top receivers: " + ", ".join(f"{name} ({value:,.0f})" for name, value in report.top_receivers(5)))
    print("  currencies:    " + ", ".join(f"{name} ({value:,.0f})" for name, value in report.top_currencies(5)))
    currencies = dict(report.top_currencies(10))
    # XRP dominates the value moved; fiat IOUs are an order of magnitude behind.
    assert max(currencies, key=currencies.get) == "XRP"
    assert currencies["XRP"] > 0.5 * report.total_xrp_value
    # Ripple and the named exchange clusters appear among the top senders.
    top_sender_names = [name for name, _ in report.top_senders(10)]
    assert "Ripple" in top_sender_names
    assert any("descendant" in name or name in (
        "Binance", "Bithumb", "Coinbase", "Bitstamp", "UPbit", "Bittrex", "Huobi Global",
    ) for name in top_sender_names)
    # The top-10 sender clusters account for roughly half of the volume (51%).
    assert report.top_sender_concentration(10) > 0.4


def test_fig12_clustering_ablation(benchmark, xrp_frame, xrp_clusterer, xrp_oracle):
    """Ablation: address-level flows are strictly more fragmented than clustered ones."""

    class IdentityClusterer:
        def cluster_of(self, address):
            return address

    clustered = ValueFlowAccumulator(xrp_clusterer, xrp_oracle).run(xrp_frame)
    unclustered = benchmark(
        ValueFlowAccumulator(IdentityClusterer(), xrp_oracle).run, xrp_frame
    )
    print(
        f"\nFigure 12 ablation — sender entities: clustered {len(clustered.by_sender)}, "
        f"address-level {len(unclustered.by_sender)}"
    )
    assert len(unclustered.by_sender) >= len(clustered.by_sender)
    assert abs(unclustered.total_xrp_value - clustered.total_xrp_value) < 1e-6


def test_fig12_value_attribution_ablation(xrp_frame, xrp_clusterer, xrp_oracle):
    """Ablation: the face-value rule wildly overstates flows vs the paper's rule."""
    paper_rule = ValueFlowAccumulator(xrp_clusterer, xrp_oracle).run(xrp_frame)
    face_value = ValueFlowAccumulator(
        xrp_clusterer, xrp_oracle, include_valueless=True
    ).run(xrp_frame)
    paper_payments = sum(flow.payment_count for flow in paper_rule.flows)
    face_payments = sum(flow.payment_count for flow in face_value.flows)
    print(
        f"\nFigure 12 ablation — payments counted: paper rule {paper_payments}, "
        f"face-value rule {face_payments}"
    )
    assert face_payments > 2 * paper_payments
