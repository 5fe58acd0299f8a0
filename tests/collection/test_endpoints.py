"""Tests for endpoint shortlisting and the endpoint pool.

Also exercises the Tezos and XRP RPC endpoints through the chain-agnostic
interface the crawler uses.
"""

import pytest

from repro.common.errors import CollectionError, RateLimitExceeded, RpcError
from repro.common.jsonrpc import INTERNAL_ERROR
from repro.common.rng import DeterministicRng
from repro.collection.endpoints import (
    EndpointPool,
    probe_endpoint,
    shortlist_endpoints,
)
from repro.eos.chain import EosChain
from repro.eos.rpc import EndpointProfile, EosRpcEndpoint
from repro.tezos.chain import TezosChain
from repro.tezos.baking import ROLL_SIZE_XTZ
from repro.tezos.rpc import TezosRpcEndpoint
from repro.xrp.ledger import XrpLedger
from repro.xrp.rpc import XrpRpcEndpoint


def make_eos_endpoint(name, rps=100.0, failure_rate=0.0, latency=0.05):
    chain = EosChain()
    return EosRpcEndpoint(
        chain,
        profile=EndpointProfile(
            name=name,
            requests_per_second=rps,
            burst=rps,
            base_latency=latency,
            failure_rate=failure_rate,
        ),
        rng=DeterministicRng(1),
    )


class TestProbing:
    def test_probe_healthy_endpoint(self):
        probe = probe_endpoint(make_eos_endpoint("good"), now=0.0)
        assert probe.reachable
        assert probe.successful_probes == 5
        assert probe.score > 0.0

    def test_probe_rate_limited_endpoint(self):
        probe = probe_endpoint(make_eos_endpoint("limited", rps=1.0), now=0.0)
        assert probe.reachable
        assert probe.throttled_probes > 0

    def test_probe_flaky_endpoint_scores_lower(self):
        healthy = probe_endpoint(make_eos_endpoint("good"), now=0.0)
        flaky = probe_endpoint(make_eos_endpoint("flaky", failure_rate=0.9), now=0.0)
        assert flaky.score < healthy.score


class TestShortlisting:
    def test_keeps_the_best_endpoints(self):
        endpoints = (
            [make_eos_endpoint(f"fast{i}", latency=0.02) for i in range(6)]
            + [make_eos_endpoint(f"slow{i}", latency=2.0) for i in range(6)]
            + [make_eos_endpoint(f"limited{i}", rps=0.5) for i in range(20)]
        )
        shortlisted = shortlist_endpoints(endpoints, now=0.0, max_selected=6)
        assert len(shortlisted) == 6
        assert all(endpoint.name.startswith("fast") for endpoint in shortlisted)

    def test_requires_at_least_one_endpoint(self):
        with pytest.raises(CollectionError):
            shortlist_endpoints([], now=0.0)

    def test_all_unusable_raises(self):
        # failure_rate close to 1 makes every probe fail deterministically.
        endpoints = [make_eos_endpoint("dead", failure_rate=0.999)]
        with pytest.raises(CollectionError):
            shortlist_endpoints(endpoints, now=0.0)


class TestEndpointPool:
    def test_round_robin_over_healthy_endpoints(self):
        endpoints = [make_eos_endpoint(f"e{i}") for i in range(3)]
        pool = EndpointPool(endpoints)
        picked = {pool.next_endpoint().name for _ in range(6)}
        assert len(picked) >= 2

    def test_failures_demote_endpoints(self):
        endpoints = [make_eos_endpoint("good"), make_eos_endpoint("bad")]
        pool = EndpointPool(endpoints)
        bad = endpoints[1]
        for _ in range(5):
            pool.record_failure(bad)
        pool.record_success(endpoints[0])
        picks = [pool.next_endpoint().name for _ in range(10)]
        assert picks.count("bad") == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(CollectionError):
            EndpointPool([])

    def test_health_accounting(self):
        endpoints = [make_eos_endpoint("one")]
        pool = EndpointPool(endpoints)
        pool.record_success(endpoints[0])
        pool.record_throttle(endpoints[0])
        health = pool.health("one")
        assert health.successes == 1
        assert health.throttles == 1

    def test_retry_after_holds_endpoint_out(self):
        endpoints = [make_eos_endpoint("held"), make_eos_endpoint("free")]
        pool = EndpointPool(endpoints)
        pool.record_throttle(endpoints[0], retry_after=30.0, now=100.0)
        picks = {pool.next_endpoint(now=110.0).name for _ in range(6)}
        assert picks == {"free"}

    def test_retry_after_hold_expires(self):
        endpoints = [make_eos_endpoint("held"), make_eos_endpoint("free")]
        pool = EndpointPool(endpoints)
        pool.record_throttle(endpoints[0], retry_after=30.0, now=100.0)
        pool.record_success(endpoints[0])
        pool.record_success(endpoints[0])
        picks = {pool.next_endpoint(now=131.0).name for _ in range(6)}
        assert "held" in picks

    def test_all_held_falls_back_to_full_pool(self):
        endpoints = [make_eos_endpoint("a"), make_eos_endpoint("b")]
        pool = EndpointPool(endpoints)
        for endpoint in endpoints:
            pool.record_throttle(endpoint, retry_after=60.0, now=0.0)
        # Refusing to pick anything would wedge the crawler; a fully held
        # pool degrades to ignoring the holds.
        assert pool.next_endpoint(now=10.0).name in {"a", "b"}

    def test_without_now_holds_are_ignored(self):
        endpoints = [make_eos_endpoint("held")]
        pool = EndpointPool(endpoints)
        pool.record_throttle(endpoints[0], retry_after=60.0, now=0.0)
        assert pool.next_endpoint().name == "held"

    def test_retry_after_survives_snapshot_roundtrip(self):
        endpoints = [make_eos_endpoint("held"), make_eos_endpoint("free")]
        pool = EndpointPool(endpoints)
        pool.record_throttle(endpoints[0], retry_after=45.0, now=5.0)
        state = pool.snapshot()
        restored = EndpointPool([make_eos_endpoint("held"), make_eos_endpoint("free")])
        restored.restore(state["health"], state["cursor"])
        assert restored.health("held").retry_after_until == 50.0
        picks = {restored.next_endpoint(now=20.0).name for _ in range(6)}
        assert picks == {"free"}

    def test_restore_accepts_legacy_three_element_health(self):
        pool = EndpointPool([make_eos_endpoint("one")])
        pool.restore({"one": [3, 1, 2]}, 0)
        health = pool.health("one")
        assert (health.successes, health.failures, health.throttles) == (3, 1, 2)
        assert health.retry_after_until == 0.0


def _eos_served():
    chain = EosChain()
    return chain, EosRpcEndpoint(chain), lambda: chain.produce_block([])


def _tezos_served():
    chain = TezosChain()
    chain.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
    return chain, TezosRpcEndpoint(chain), lambda: chain.bake_block([])


def _xrp_served():
    ledger = XrpLedger()
    return ledger, XrpRpcEndpoint(ledger), lambda: ledger.close_ledger([])


class TestBlockLookupErrors:
    """Only a chain's own refusal is a 404; a bug in the lookup is not."""

    @pytest.mark.parametrize("served", [_eos_served, _tezos_served, _xrp_served])
    def test_unproduced_and_pruned_are_not_found_a_bug_is_internal(self, served, monkeypatch):
        chain, endpoint, produce = served()
        first = produce().height
        head = produce().height
        with pytest.raises(RpcError) as unproduced:
            endpoint.fetch_block(head + 1, 0.0)
        assert unproduced.value.code == 404
        chain.prune()
        assert endpoint.fetch_block(head, 0.0).height == endpoint.head_height(0.0) == head
        with pytest.raises(RpcError) as pruned:
            endpoint.fetch_block(first, 0.0)
        assert pruned.value.code == 404

        def broken(height):
            raise TypeError("list indices must be integers")

        monkeypatch.setattr(chain, "block_at", broken)
        with pytest.raises(RpcError) as bug:
            endpoint.fetch_block(head, 0.0)
        assert bug.value.code == INTERNAL_ERROR
        assert "list indices" in bug.value.message


class TestChainEndpoints:
    def test_tezos_endpoint_serves_blocks(self):
        chain = TezosChain()
        chain.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
        chain.bake_block([])
        endpoint = TezosRpcEndpoint(chain)
        assert endpoint.chain_name == "tezos"
        head = endpoint.head_height(0.0)
        block = endpoint.fetch_block(head, 0.0)
        assert block.height == head
        with pytest.raises(RpcError):
            endpoint.fetch_block(head + 10, 0.0)

    def test_xrp_endpoint_serves_blocks_and_metadata(self):
        ledger = XrpLedger()
        parent = ledger.accounts.create_genesis(balance=1_000.0, username="Binance")
        child = ledger.accounts.activate(parent.address, initial_xrp=50.0)
        ledger.close_ledger([])
        endpoint = XrpRpcEndpoint(ledger)
        assert endpoint.chain_name == "xrp"
        head = endpoint.head_height(0.0)
        block = endpoint.fetch_block(head, 0.0)
        assert block.height == head
        info = endpoint.account_info(child.address, 0.0)
        assert info["parent"] == parent.address
        assert endpoint.account_info("rUnknownAccount", 0.0)["username"] == ""
        assert endpoint.exchange_rate("BTC", "rNoTrades", 0.0) == 0.0

    def test_xrp_endpoint_rate_limit(self):
        ledger = XrpLedger()
        endpoint = XrpRpcEndpoint(
            ledger, profile=EndpointProfile(name="tight", requests_per_second=1.0, burst=1.0)
        )
        endpoint.head_height(0.0)
        with pytest.raises(RateLimitExceeded):
            endpoint.head_height(0.0)
