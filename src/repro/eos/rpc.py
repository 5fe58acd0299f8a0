"""Simulated EOS RPC endpoints.

EOS block producers expose a public HTTP RPC; the two calls the paper's
crawler uses are ``get_info`` (head block number) and ``get_block`` (full
block content by height).  The simulated endpoint wraps an
:class:`~repro.eos.chain.EosChain`, enforces a per-endpoint token-bucket
rate limit, models latency and transient outages, and serialises blocks in
the same dictionary shape the crawler stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.common.errors import BlockNotFound, ChainError, EndpointUnavailable
from repro.common.jsonrpc import RpcDispatcher, RpcRequest, RpcResponse
from repro.common.ratelimit import TokenBucket
from repro.common.records import BlockRecord
from repro.common.rng import DeterministicRng
from repro.eos.chain import EosChain


@dataclass
class EndpointProfile:
    """Operational characteristics of one public endpoint.

    The paper shortlists 6 of 32 advertised EOS endpoints based on rate
    limits, latency and stability; these three knobs are what the crawler's
    endpoint-selection logic ranks on.
    """

    name: str
    requests_per_second: float = 10.0
    burst: float = 20.0
    base_latency: float = 0.05
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be within [0, 1)")


class EosRpcEndpoint:
    """One simulated EOS public RPC endpoint backed by a chain instance."""

    chain_name = "eos"

    def __init__(
        self,
        chain: EosChain,
        profile: Optional[EndpointProfile] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.chain = chain
        self.profile = profile or EndpointProfile(name="eos-endpoint")
        self.rng = rng or DeterministicRng(0)
        self._bucket = TokenBucket(
            rate=self.profile.requests_per_second, capacity=self.profile.burst
        )
        self._dispatcher = RpcDispatcher()
        self._dispatcher.register("get_info", self._handle_get_info)
        self._dispatcher.register("get_block", self._handle_get_block)
        self.requests_served = 0
        self.requests_rejected = 0

    @property
    def name(self) -> str:
        return self.profile.name

    # -- protocol used by the crawler -----------------------------------------
    def head_height(self, now: float) -> int:
        """Current head block number (the crawler's starting point)."""
        result = self.call("get_info", {}, now)
        return int(result["head_block_num"])

    def fetch_block(self, height: int, now: float) -> BlockRecord:
        """Fetch one block and decode it into the canonical record."""
        result = self.call("get_block", {"block_num_or_id": height}, now)
        return BlockRecord.from_dict(result)

    def latency(self) -> float:
        """Simulated round-trip latency for one request."""
        return self.profile.base_latency * (1.0 + 0.2 * self.rng.random())

    # -- RPC plumbing ------------------------------------------------------------
    def call(self, method: str, params: Mapping[str, Any], now: float) -> Any:
        """Issue one RPC call, enforcing rate limits and simulated outages."""
        self._bucket.acquire_or_raise(now)
        if self.profile.failure_rate and self.rng.bernoulli(self.profile.failure_rate):
            self.requests_rejected += 1
            raise EndpointUnavailable(f"{self.name} transient failure")
        request = RpcRequest(method=method, params=params)
        response: RpcResponse = self._dispatcher.dispatch(request)
        self.requests_served += 1
        return response.raise_for_error()

    def _handle_get_info(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "chain_id": "eos-mainnet-sim",
            "head_block_num": head.height if head else self.chain.config.start_height - 1,
            "head_block_producer": head.producer if head else "",
            "head_block_time": head.timestamp if head else self.chain.clock.now,
        }

    def _handle_get_block(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        height = int(params.get("block_num_or_id", -1))
        try:
            block = self.chain.block_at(height)
        except ChainError as exc:
            raise BlockNotFound(height) from exc
        return block.to_dict()
