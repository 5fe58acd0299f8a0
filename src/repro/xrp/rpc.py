"""Simulated XRP ledger RPC / Data API endpoints.

The paper uses three data sources for XRP: the community full-history
websocket endpoint (``ledger`` method), the XRP Scan explorer API for
account metadata (username, parent account), and the Ripple Data API for
issuer-specific exchange rates.  The simulated endpoint serves all three on
the endpoint base the other chains share, so the crawler and the value
analysis do not care which chain they are talking to.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.collection.endpoints import Handler, RpcEndpoint


class XrpRpcEndpoint(RpcEndpoint):
    """Simulated full-history endpoint + explorer + data API over an ``XrpLedger``."""

    chain_name = "xrp"
    default_profile = {"name": "xrp-full-history", "requests_per_second": 50.0, "burst": 100.0}
    head_method, head_field = "server_info", "validated_ledger_index"
    block_method, block_param = "ledger", "ledger_index"

    # -- explorer / data API ---------------------------------------------------------
    def account_info(self, address: str, now: float) -> Mapping[str, Any]:
        """Username and parent account, as served by XRP Scan."""
        return self.call("account_info", {"account": address}, now)

    def exchange_rate(self, currency: str, issuer: str, now: float) -> float:
        """Average executed XRP rate of an IOU, as served by the Data API."""
        result = self.call("exchange_rate", {"currency": currency, "issuer": issuer}, now)
        return float(result["rate"])

    # -- handlers -----------------------------------------------------------------
    def _extra_handlers(self) -> Dict[str, Handler]:
        return {
            "account_info": self._handle_account_info,
            "exchange_rate": self._handle_exchange_rate,
        }

    def _handle_head(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "validated_ledger_index": head.height if head else self.chain.config.start_index - 1,
            "close_time": head.timestamp if head else self.chain.clock.now,
        }

    def _handle_account_info(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        address = str(params.get("account", ""))
        account = self.chain.accounts.maybe_get(address)
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
        rate = self.chain.orderbook.average_rate_vs_xrp(currency, issuer)
        return {"currency": currency, "issuer": issuer, "rate": rate}
