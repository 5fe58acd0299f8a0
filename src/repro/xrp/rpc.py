"""Simulated XRP ledger RPC endpoint.

The paper uses three data sources for XRP: the community full-history
websocket endpoint (``ledger`` method), the XRP Scan explorer API for
account metadata (username, parent account), and the Ripple Data API for
issuer-specific exchange rates.  The crawl reads only the first, so that is
what the simulated endpoint serves, on the endpoint base the other chains
share: the crawler does not care which chain it is talking to.  The value
analysis reads the other two straight off the ledger instead
(:func:`repro.collection.generate.xrp_companions`: the account registry's
usernames and parents, the order book's rates).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.collection.endpoints import RpcEndpoint


class XrpRpcEndpoint(RpcEndpoint):
    """Simulated full-history endpoint over an ``XrpLedger``."""

    chain_name = "xrp"
    default_profile = {"name": "xrp-full-history", "requests_per_second": 50.0, "burst": 100.0}
    head_method, head_field = "server_info", "validated_ledger_index"
    block_method, block_param = "ledger", "ledger_index"

    def _handle_head(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "validated_ledger_index": head.height if head else self.chain.config.start_index - 1,
            "close_time": head.timestamp if head else self.chain.clock.now,
        }
