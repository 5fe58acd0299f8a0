"""Tests for XRP account clustering and common-control evidence."""

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.analysis.clustering import (
    AccountClusterer,
    ClusterCountsAccumulator,
    common_control_evidence,
    shared_destination_tags,
)
from repro.xrp.accounts import XrpAccountRegistry
from tests.support import run_on_records


@pytest.fixture
def registry():
    reg = XrpAccountRegistry(rng=DeterministicRng(21))
    huobi = reg.create_genesis(balance=10_000.0, username="Huobi Global")
    binance = reg.create_genesis(balance=10_000.0, username="Binance")
    reg.activate(huobi.address, initial_xrp=100.0, address="rHuobiBot1")
    reg.activate(huobi.address, initial_xrp=100.0, address="rHuobiBot2")
    reg.activate(binance.address, initial_xrp=100.0, address="rBinanceHot")
    reg.create_genesis(address="rLoner", balance=50.0)
    return reg


def xrp_record(sender, receiver="rSomeone", type_="OfferCreate", tag=None, currency=""):
    metadata = {} if tag is None else {"destination_tag": tag}
    return TransactionRecord(
        chain=ChainId.XRP,
        transaction_id=f"{sender}-{type_}-{tag}",
        block_height=1,
        timestamp=0.0,
        type=type_,
        sender=sender,
        receiver=receiver,
        currency=currency,
        metadata=metadata,
    )


class TestClusterer:
    def test_cluster_by_username_and_parent(self, registry):
        clusterer = AccountClusterer(registry)
        assert clusterer.cluster_of("rHuobiBot1") == "Huobi Global -- descendant"
        assert clusterer.cluster_of("rBinanceHot") == "Binance -- descendant"
        assert clusterer.cluster_of("rLoner") == "rLoner"

    def test_clusters_grouping(self, registry):
        clusterer = AccountClusterer(registry)
        clusters = clusterer.clusters(["rHuobiBot1", "rHuobiBot2", "rBinanceHot", "rLoner"])
        names = {cluster.name: cluster.size for cluster in clusters}
        assert names["Huobi Global -- descendant"] == 2
        assert names["Binance -- descendant"] == 1
        assert clusters[0].name == "Huobi Global -- descendant"

    def test_is_descendant_of(self, registry):
        clusterer = AccountClusterer(registry)
        assert clusterer.is_descendant_of("rHuobiBot1", "Huobi Global")
        assert not clusterer.is_descendant_of("rBinanceHot", "Huobi Global")

    def test_cache_returns_same_result(self, registry):
        clusterer = AccountClusterer(registry)
        assert clusterer.cluster_of("rHuobiBot1") == clusterer.cluster_of("rHuobiBot1")


class TestHelpers:
    def test_cluster_transaction_counts(self, registry):
        clusterer = AccountClusterer(registry)
        records = [xrp_record("rHuobiBot1"), xrp_record("rHuobiBot2"), xrp_record("rLoner")]
        counts = run_on_records(ClusterCountsAccumulator(clusterer, "sender"), records)
        assert counts["Huobi Global -- descendant"] == 2
        assert counts["rLoner"] == 1

    def test_cluster_counts_invalid_side(self, registry):
        with pytest.raises(ValueError):
            ClusterCountsAccumulator(AccountClusterer(registry), side="middle")

    def test_shared_destination_tags(self):
        records = [
            xrp_record("rA", type_="Payment", tag=104_398),
            xrp_record("rB", type_="Payment", tag=104_398),
            xrp_record("rC", type_="Payment", tag=7),
        ]
        shared = shared_destination_tags(records)
        assert shared == {104_398: ["rA", "rB"]}

    def test_common_control_evidence(self, registry):
        clusterer = AccountClusterer(registry)
        records = (
            [xrp_record("rHuobiBot1", type_="OfferCreate", currency="CNY") for _ in range(99)]
            + [xrp_record("rHuobiBot1", type_="Payment", tag=104_398)]
            + [xrp_record("rLoner", type_="Payment")]
        )
        evidence = common_control_evidence(
            records, clusterer, ["rHuobiBot1", "rLoner"], parent_username="Huobi Global"
        )
        bot = evidence["rHuobiBot1"]
        assert bot["descends_from_parent"] is True
        assert bot["offer_create_share"] == pytest.approx(0.99)
        assert 104_398 in bot["destination_tags"]
        assert "CNY" in bot["currencies"]
        assert evidence["rLoner"]["descends_from_parent"] is False

    def test_figure8_evidence_on_generated_traffic(self, xrp_records, xrp_generator):
        clusterer = AccountClusterer(xrp_generator.ledger.accounts)
        evidence = common_control_evidence(
            xrp_records, clusterer, xrp_generator.offer_bots, parent_username="Huobi Global"
        )
        assert all(item["descends_from_parent"] for item in evidence.values())
        assert all(item["offer_create_share"] > 0.9 for item in evidence.values())
