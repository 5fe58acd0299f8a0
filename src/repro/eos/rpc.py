"""Simulated EOS RPC endpoints.

EOS block producers expose a public HTTP RPC; the two calls the paper's
crawler uses are ``get_info`` (head block number) and ``get_block`` (full
block content by height).  Rate limits, latency and outages come from
:class:`~repro.collection.endpoints.RpcEndpoint`; this module adds the
``get_info`` answer.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.collection.endpoints import RpcEndpoint


class EosRpcEndpoint(RpcEndpoint):
    """One simulated EOS public RPC endpoint backed by an ``EosChain``."""

    chain_name = "eos"
    default_profile = {"name": "eos-endpoint"}
    head_method, head_field = "get_info", "head_block_num"
    block_method, block_param = "get_block", "block_num_or_id"

    def _handle_head(self, params: Mapping[str, Any]) -> Mapping[str, Any]:
        head = self.chain.head()
        return {
            "chain_id": "eos-mainnet-sim",
            "head_block_num": head.height if head else self.chain.config.start_height - 1,
            "head_block_producer": head.producer if head else "",
            "head_block_time": head.timestamp if head else self.chain.clock.now,
        }
