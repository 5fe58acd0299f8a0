"""Simulated Tezos node RPC.

The paper runs its own Tezos full node and crawls it through the node RPC
(``/chains/main/blocks/<level>``).  The simulated endpoint mirrors the two
calls the crawler needs — head level and block by level — on the endpoint
base the EOS and XRP endpoints share, so the collection layer is
chain-agnostic.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.collection.endpoints import RpcEndpoint


class TezosRpcEndpoint(RpcEndpoint):
    """A simulated self-hosted Tezos node RPC backed by a ``TezosChain``."""

    chain_name = "tezos"
    # A self-hosted node has effectively no rate limit compared to the
    # public endpoints, but the knob still exists for fault-injection.
    default_profile = {"name": "tezos-local-node", "requests_per_second": 1000.0, "burst": 1000.0}
    head_method, head_field = "header", "level"
    block_method, block_param = "block", "level"

    def _handle_head(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "chain_id": "tezos-mainnet-sim",
            "level": head.height if head else self.chain.config.start_level - 1,
            "timestamp": head.timestamp if head else self.chain.clock.now,
        }
