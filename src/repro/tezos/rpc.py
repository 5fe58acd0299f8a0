"""Simulated Tezos node RPC.

The paper runs its own Tezos full node and crawls it through the node RPC
(``/chains/main/blocks/<level>``).  The simulated endpoint mirrors the two
calls the crawler needs — head level and block by level — behind the same
generic interface the EOS and XRP endpoints expose, so the collection layer
is chain-agnostic.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.common.errors import BlockNotFound, ChainError, EndpointUnavailable
from repro.common.jsonrpc import RpcDispatcher, RpcRequest
from repro.common.ratelimit import TokenBucket
from repro.common.records import BlockRecord
from repro.common.rng import DeterministicRng
from repro.eos.rpc import EndpointProfile
from repro.tezos.chain import TezosChain


class TezosRpcEndpoint:
    """A simulated self-hosted Tezos node RPC."""

    chain_name = "tezos"

    def __init__(
        self,
        chain: TezosChain,
        profile: Optional[EndpointProfile] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.chain = chain
        # A self-hosted node has effectively no rate limit compared to the
        # public endpoints, but the knob still exists for fault-injection.
        self.profile = profile or EndpointProfile(
            name="tezos-local-node", requests_per_second=1000.0, burst=1000.0
        )
        self.rng = rng or DeterministicRng(0)
        self._bucket = TokenBucket(
            rate=self.profile.requests_per_second, capacity=self.profile.burst
        )
        self._dispatcher = RpcDispatcher()
        self._dispatcher.register("header", self._handle_header)
        self._dispatcher.register("block", self._handle_block)
        self.requests_served = 0

    @property
    def name(self) -> str:
        return self.profile.name

    def head_height(self, now: float) -> int:
        result = self.call("header", {}, now)
        return int(result["level"])

    def fetch_block(self, height: int, now: float) -> BlockRecord:
        result = self.call("block", {"level": height}, now)
        return BlockRecord.from_dict(result)

    def latency(self) -> float:
        return self.profile.base_latency * (1.0 + 0.2 * self.rng.random())

    def call(self, method: str, params: Mapping[str, Any], now: float) -> Any:
        self._bucket.acquire_or_raise(now)
        if self.profile.failure_rate and self.rng.bernoulli(self.profile.failure_rate):
            raise EndpointUnavailable(f"{self.name} transient failure")
        response = self._dispatcher.dispatch(RpcRequest(method=method, params=params))
        self.requests_served += 1
        return response.raise_for_error()

    def _handle_header(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "chain_id": "tezos-mainnet-sim",
            "level": head.height if head else self.chain.config.start_level - 1,
            "timestamp": head.timestamp if head else self.chain.clock.now,
        }

    def _handle_block(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        level = int(params.get("level", -1))
        try:
            block = self.chain.block_at(level)
        except ChainError as exc:
            raise BlockNotFound(level) from exc
        return block.to_dict()
