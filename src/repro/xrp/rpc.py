"""Simulated XRP ledger RPC / Data API endpoints.

The paper uses three data sources for XRP: the community full-history
websocket endpoint (``ledger`` method), the XRP Scan explorer API for
account metadata (username, parent account), and the Ripple Data API for
issuer-specific exchange rates.  The simulated endpoint exposes all three
behind the same interface the other chains' endpoints implement, so the
crawler and the value analysis do not care which chain they are talking to.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.common.errors import BlockNotFound, ChainError, EndpointUnavailable
from repro.common.jsonrpc import RpcDispatcher, RpcRequest
from repro.common.ratelimit import TokenBucket
from repro.common.records import BlockRecord
from repro.common.rng import DeterministicRng
from repro.eos.rpc import EndpointProfile
from repro.xrp.ledger import XrpLedger


class XrpRpcEndpoint:
    """Simulated full-history endpoint + explorer + data API for XRP."""

    chain_name = "xrp"

    def __init__(
        self,
        ledger: XrpLedger,
        profile: Optional[EndpointProfile] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.ledger = ledger
        self.profile = profile or EndpointProfile(
            name="xrp-full-history", requests_per_second=50.0, burst=100.0
        )
        self.rng = rng or DeterministicRng(0)
        self._bucket = TokenBucket(
            rate=self.profile.requests_per_second, capacity=self.profile.burst
        )
        self._dispatcher = RpcDispatcher()
        self._dispatcher.register("server_info", self._handle_server_info)
        self._dispatcher.register("ledger", self._handle_ledger)
        self._dispatcher.register("account_info", self._handle_account_info)
        self._dispatcher.register("exchange_rate", self._handle_exchange_rate)
        self.requests_served = 0

    @property
    def name(self) -> str:
        return self.profile.name

    # -- crawler protocol ---------------------------------------------------------
    def head_height(self, now: float) -> int:
        result = self.call("server_info", {}, now)
        return int(result["validated_ledger_index"])

    def fetch_block(self, height: int, now: float) -> BlockRecord:
        result = self.call("ledger", {"ledger_index": height}, now)
        return BlockRecord.from_dict(result)

    def latency(self) -> float:
        return self.profile.base_latency * (1.0 + 0.2 * self.rng.random())

    # -- explorer / data API ---------------------------------------------------------
    def account_info(self, address: str, now: float) -> Mapping[str, Any]:
        """Username and parent account, as served by XRP Scan."""
        return self.call("account_info", {"account": address}, now)

    def exchange_rate(self, currency: str, issuer: str, now: float) -> float:
        """Average executed XRP rate of an IOU, as served by the Data API."""
        result = self.call("exchange_rate", {"currency": currency, "issuer": issuer}, now)
        return float(result["rate"])

    # -- plumbing -----------------------------------------------------------------
    def call(self, method: str, params: Mapping[str, Any], now: float) -> Any:
        self._bucket.acquire_or_raise(now)
        if self.profile.failure_rate and self.rng.bernoulli(self.profile.failure_rate):
            raise EndpointUnavailable(f"{self.name} transient failure")
        response = self._dispatcher.dispatch(RpcRequest(method=method, params=params))
        self.requests_served += 1
        return response.raise_for_error()

    def _handle_server_info(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.ledger.head()
        return {
            "validated_ledger_index": head.height if head else self.ledger.config.start_index - 1,
            "close_time": head.timestamp if head else self.ledger.clock.now,
        }

    def _handle_ledger(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        index = int(params.get("ledger_index", -1))
        try:
            block = self.ledger.block_at(index)
        except ChainError as exc:
            raise BlockNotFound(index) from exc
        return block.to_dict()

    def _handle_account_info(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        address = str(params.get("account", ""))
        account = self.ledger.accounts.maybe_get(address)
        if account is None:
            return {"account": address, "username": "", "parent": ""}
        return {
            "account": address,
            "username": account.username,
            "parent": account.parent,
            "activated_at": account.activated_at,
        }

    def _handle_exchange_rate(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        currency = str(params.get("currency", ""))
        issuer = str(params.get("issuer", ""))
        rate = self.ledger.orderbook.average_rate_vs_xrp(currency, issuer)
        return {"currency": currency, "issuer": issuer, "rate": rate}
