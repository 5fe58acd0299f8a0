"""Figure 8 — most active accounts on the XRP ledger.

Regenerates the Figure 8 table: the most active accounts are offer bots
(>98 % OfferCreate), they descend from a Huobi-named parent (or transact
with its descendants), they share the destination tag 104398 on their rare
payments, and together they carry a large share of total traffic.
Benchmarks the top-sender ranking and the common-control evidence pass.
"""

from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    traffic_concentration,
)
from repro.analysis.clustering import common_control_evidence, shared_destination_tags
from repro.xrp.workload import HUOBI_DESTINATION_TAG


def test_fig8_top_accounts(benchmark, xrp_frame, xrp_generator, xrp_clusterer):
    senders = benchmark(AccountActivityAccumulator("sender", 10).run, xrp_frame)
    bots = set(xrp_generator.offer_bots)
    print("\nFigure 8 — most active XRP accounts:")
    for activity in senders:
        top_name, _, top_share = activity.top_type()
        cluster = xrp_clusterer.cluster_of(activity.account)
        print(
            f"  {activity.account[:24]:26s} {activity.total:>7d} tx "
            f"({activity.share_of_chain:5.1%})  {top_name} {top_share:5.1%}  cluster: {cluster}"
        )
    top_bot_entries = [activity for activity in senders if activity.account in bots]
    # The Huobi-linked bots dominate the ranking, almost exclusively OfferCreate.
    assert len(top_bot_entries) >= 3
    for activity in top_bot_entries:
        name, _, share = activity.top_type()
        assert name == "OfferCreate"
        assert share > 0.95


def test_fig8_common_control_evidence(benchmark, xrp_records, xrp_generator, xrp_clusterer):
    evidence = benchmark(
        common_control_evidence,
        xrp_records,
        xrp_clusterer,
        xrp_generator.offer_bots,
        "Huobi Global",
    )
    assert all(entry["descends_from_parent"] for entry in evidence.values())
    assert all("CNY" in entry["currencies"] for entry in evidence.values())
    tagged = [entry for entry in evidence.values() if HUOBI_DESTINATION_TAG in entry["destination_tags"]]
    assert tagged, "at least one bot payment must carry the shared destination tag"
    shared = shared_destination_tags(xrp_records)
    assert HUOBI_DESTINATION_TAG in shared


def test_fig8_traffic_concentration(benchmark, xrp_frame):
    def concentration_of(frame):
        return traffic_concentration(SenderCountsAccumulator().run(frame), 18)

    concentration = benchmark(concentration_of, xrp_frame)
    print(f"\nFigure 8 — share of traffic from the 18 most active accounts: {concentration:.1%}")
    # Paper (§3.3): the 18 most active accounts produce half of the traffic.
    assert concentration > 0.35
