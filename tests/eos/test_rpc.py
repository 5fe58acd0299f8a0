"""Tests for the simulated EOS RPC endpoint."""

import pytest

from repro.collection.endpoints import EndpointProfile
from repro.common.errors import EndpointUnavailable, RateLimitExceeded, RpcError
from repro.eos.chain import EosChain, EosTransaction
from repro.eos.actions import make_transfer
from repro.eos.contracts import TokenContract
from repro.eos.rpc import EosRpcEndpoint


@pytest.fixture
def chain():
    instance = EosChain()
    instance.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
    instance.accounts.create("alice", initial_balance=10.0)
    instance.accounts.create("bob")
    instance.resources.stake_cpu("alice", 10.0)
    for index in range(3):
        instance.produce_block(
            [
                EosTransaction(
                    transaction_id=f"tx{index}",
                    actions=(make_transfer("eosio.token", "alice", "bob", 0.1, "EOS"),),
                )
            ]
        )
    return instance


class TestEndpoint:
    def test_head_height(self, chain):
        endpoint = EosRpcEndpoint(chain)
        assert endpoint.head_height(now=0.0) == chain.head_height

    def test_fetch_block_round_trip(self, chain):
        endpoint = EosRpcEndpoint(chain)
        height = chain.config.start_height + 1
        block = endpoint.fetch_block(height, now=0.0)
        assert block.height == height
        assert block.transactions == chain.block_at(height).transactions

    def test_missing_block_raises_rpc_error(self, chain):
        endpoint = EosRpcEndpoint(chain)
        with pytest.raises(RpcError):
            endpoint.fetch_block(999_999_999, now=0.0)

    def test_rate_limit_enforced(self, chain):
        endpoint = EosRpcEndpoint(
            chain, profile=EndpointProfile(name="tiny", requests_per_second=1.0, burst=2.0)
        )
        endpoint.head_height(0.0)
        endpoint.head_height(0.0)
        with pytest.raises(RateLimitExceeded):
            endpoint.head_height(0.0)
        # After the bucket refills the endpoint serves again.
        assert endpoint.head_height(10.0) == chain.head_height

    def test_transient_failures(self, chain):
        endpoint = EosRpcEndpoint(
            chain,
            profile=EndpointProfile(name="flaky", requests_per_second=100.0, burst=100.0, failure_rate=0.999),
        )
        with pytest.raises(EndpointUnavailable):
            endpoint.head_height(0.0)

    def test_latency_positive_and_bounded(self, chain):
        endpoint = EosRpcEndpoint(chain, profile=EndpointProfile(name="p", base_latency=0.1))
        for _ in range(20):
            latency = endpoint.latency()
            assert 0.1 <= latency <= 0.12 + 1e-9

    def test_counters(self, chain):
        endpoint = EosRpcEndpoint(chain)
        endpoint.head_height(0.0)
        endpoint.fetch_block(chain.config.start_height, 0.0)
        assert endpoint.requests_served == 2

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            EndpointProfile(name="bad", requests_per_second=0.0)
        with pytest.raises(ValueError):
            EndpointProfile(name="bad", failure_rate=1.5)

    def test_head_of_empty_chain(self):
        empty = EosChain()
        endpoint = EosRpcEndpoint(empty)
        assert endpoint.head_height(0.0) == empty.config.start_height - 1
