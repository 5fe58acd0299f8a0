"""Tests for the simulated endpoints and the endpoint pool.

Also exercises the Tezos and XRP RPC endpoints through the chain-agnostic
interface the crawler uses.
"""

import pytest

from repro.common.errors import (
    INTERNAL_ERROR,
    METHOD_NOT_FOUND,
    BlockNotFound,
    CollectionError,
    EndpointUnavailable,
    RateLimitExceeded,
    RpcError,
)
from repro.common.records import BlockRecord
from repro.common.rng import DeterministicRng
from repro.collection.endpoints import EndpointPool, EndpointProfile
from repro.eos.chain import EosChain
from repro.eos.rpc import EosRpcEndpoint
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
        health = pool._health["one"]
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


def _eos_served(profile=None, rng=None):
    chain = EosChain()
    return chain, EosRpcEndpoint(chain, profile, rng), lambda: chain.produce_block([])


def _tezos_served(profile=None, rng=None):
    chain = TezosChain()
    chain.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
    return chain, TezosRpcEndpoint(chain, profile, rng), lambda: chain.bake_block([])


def _xrp_served(profile=None, rng=None):
    ledger = XrpLedger()
    return ledger, XrpRpcEndpoint(ledger, profile, rng), lambda: ledger.close_ledger([])


SERVED = [_eos_served, _tezos_served, _xrp_served]


class TestBlockLookupErrors:
    """Only a chain's own refusal is a 404; a bug in the lookup is not."""

    @pytest.mark.parametrize("served", SERVED)
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


class TestEndpointContract:
    """Every chain's endpoint answers through the same call path."""

    @pytest.mark.parametrize("served", SERVED)
    def test_unknown_method_is_method_not_found(self, served):
        _, endpoint, _ = served()
        with pytest.raises(RpcError) as unknown:
            endpoint.call("no_such_method", {}, 0.0)
        assert unknown.value.code == METHOD_NOT_FOUND
        assert "no_such_method" in unknown.value.message

    @pytest.mark.parametrize("served", SERVED)
    def test_block_not_found_reaches_the_caller_as_raised(self, served):
        _, endpoint, produce = served()
        head = produce().height
        with pytest.raises(BlockNotFound) as missing:
            endpoint.fetch_block(head + 1, 0.0)
        assert missing.value.height == head + 1

    @pytest.mark.parametrize("served", SERVED)
    def test_a_non_rpc_exception_is_internal_error(self, served, monkeypatch):
        chain, endpoint, _ = served()

        def broken():
            raise ValueError("head index out of range")

        monkeypatch.setattr(chain, "head", broken)
        with pytest.raises(RpcError) as bug:
            endpoint.head_height(0.0)
        assert bug.value.code == INTERNAL_ERROR
        assert bug.value.message == "head index out of range"

    @pytest.mark.parametrize("served", SERVED)
    def test_requests_served_and_rejected_are_counted(self, served):
        _, endpoint, produce = served()
        head = produce().height
        endpoint.head_height(0.0)
        endpoint.fetch_block(head, 0.0)
        with pytest.raises(BlockNotFound):
            endpoint.fetch_block(head + 1, 0.0)
        assert (endpoint.requests_served, endpoint.requests_rejected) == (3, 0)
        _, down, _ = served(EndpointProfile(name="down", failure_rate=0.999))
        with pytest.raises(EndpointUnavailable):
            down.head_height(0.0)
        assert (down.requests_served, down.requests_rejected) == (0, 1)

    @pytest.mark.parametrize("served", SERVED)
    def test_registered_method_dispatches_to_its_handler(self, served):
        _, endpoint, produce = served()
        head = produce().height
        result = endpoint.call(endpoint.head_method, {}, 0.0)
        assert result[endpoint.head_field] == head

    @pytest.mark.parametrize("served", SERVED)
    def test_rpc_error_code_preserved(self, served, monkeypatch):
        chain, endpoint, produce = served()
        head = produce().height
        raised = RpcError(418, "refused by the handler")

        def refusing(height):
            raise raised

        monkeypatch.setattr(chain, "block_at", refusing)
        with pytest.raises(RpcError) as refused:
            endpoint.fetch_block(head, 0.0)
        assert refused.value is raised
        assert refused.value.code == 418

    @pytest.mark.parametrize("served", SERVED)
    def test_fetch_block_decodes_the_served_block(self, served):
        chain, endpoint, produce = served()
        head = produce().height
        expected = BlockRecord.from_dict(chain.block_at(head).to_dict())
        assert endpoint.fetch_block(head, 0.0) == expected

    @pytest.mark.parametrize("served", SERVED)
    def test_rate_limit_is_checked_before_the_outage_draw(self, served):
        profile = EndpointProfile(
            name="tight", requests_per_second=1.0, burst=1.0, failure_rate=0.5
        )
        _, endpoint, _ = served(profile, DeterministicRng(3))
        reference = DeterministicRng(3)
        try:
            endpoint.head_height(0.0)
        except EndpointUnavailable:
            pass
        reference.random()  # the first call's outage draw
        with pytest.raises(RateLimitExceeded):
            endpoint.head_height(0.0)
        # A throttled call draws nothing and counts as neither served nor rejected.
        assert endpoint.requests_served + endpoint.requests_rejected == 1
        assert endpoint.rng.random() == reference.random()

    @pytest.mark.parametrize("served", SERVED)
    def test_no_outage_draw_when_failure_rate_is_zero(self, served):
        _, endpoint, produce = served(EndpointProfile(name="steady"), DeterministicRng(5))
        head = produce().height
        endpoint.head_height(0.0)
        endpoint.fetch_block(head, 0.0)
        assert endpoint.rng.random() == DeterministicRng(5).random()

    @pytest.mark.parametrize("served", SERVED)
    def test_latency_makes_one_draw(self, served):
        profile = EndpointProfile(name="timed", base_latency=0.1)
        _, endpoint, _ = served(profile, DeterministicRng(9))
        reference = DeterministicRng(9)
        expected = [0.1 * (1.0 + 0.2 * reference.random()) for _ in range(2)]
        assert [endpoint.latency(), endpoint.latency()] == expected


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

    def test_xrp_endpoint_serves_blocks_and_nothing_else(self):
        ledger = XrpLedger()
        ledger.close_ledger([])
        endpoint = XrpRpcEndpoint(ledger)
        assert endpoint.chain_name == "xrp"
        head = endpoint.head_height(0.0)
        block = endpoint.fetch_block(head, 0.0)
        assert block.height == head
        # The crawl reads heads and blocks only; explorer and data-API
        # methods are not served.
        for method in ("account_info", "exchange_rate"):
            with pytest.raises(RpcError) as unknown:
                endpoint.call(method, {}, 0.0)
            assert unknown.value.code == METHOD_NOT_FOUND

    def test_xrp_endpoint_rate_limit(self):
        ledger = XrpLedger()
        endpoint = XrpRpcEndpoint(
            ledger, profile=EndpointProfile(name="tight", requests_per_second=1.0, burst=1.0)
        )
        endpoint.head_height(0.0)
        with pytest.raises(RateLimitExceeded):
            endpoint.head_height(0.0)
