"""Quickstart: regenerate the paper's headline findings end to end.

The script runs the whole pipeline at a small scale:

1. generate two weeks of calibrated traffic for EOS, Tezos and XRP
   (straddling the EIDOS airdrop launch and the first XRP spam wave);
2. serve the chains over their simulated RPC endpoints and crawl them in
   reverse chronological order, exactly like the paper's data collection
   (§3.1), streaming each block's transactions through a frame sink into a
   compressed columnar store in a temporary directory;
3. read the stores' records into one columnar ``TxFrame`` — the canonical
   analysis substrate — and run the single-pass analysis engine:
   one streaming scan per chain produces the summary of findings the
   paper's introduction quotes.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import os
import tempfile
from itertools import chain

from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.crawler import BlockCrawler
from repro.collection.dataset import characterize_dataset
from repro.collection.endpoints import EndpointPool
from repro.collection.store import FrameSink, FrameStore
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from repro.eos.rpc import EosRpcEndpoint
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import small_scenario
from repro.tezos.rpc import TezosRpcEndpoint
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.rpc import XrpRpcEndpoint
from repro.xrp.workload import XrpWorkloadGenerator


def crawl(endpoint, lowest_height: int, directory: str) -> FrameStore:
    """Crawl every block an endpoint serves, newest first, into a store at
    ``directory``."""
    store = FrameStore(directory=directory)
    crawler = BlockCrawler(EndpointPool([endpoint]), FrameSink(store))
    head = crawler.discover_head()
    report = crawler.crawl_range(highest=head, lowest=lowest_height)
    print(
        f"  crawled {report.blocks_fetched} {endpoint.chain_name} blocks "
        f"({report.transactions_fetched} transactions, "
        f"{report.requests_issued} RPC requests, {report.retries} retries)"
    )
    return store


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-quickstart-") as scratch:
        run(scratch)


def run(scratch: str) -> None:
    """The walkthrough, with each chain's store in a directory under ``scratch``."""
    scenario = small_scenario(seed=7)

    print("Generating calibrated workloads (two weeks around 2019-11-01)...")
    eos = EosWorkloadGenerator(scenario.eos)
    tezos = TezosWorkloadGenerator(scenario.tezos)
    xrp = XrpWorkloadGenerator(scenario.xrp)
    eos.generate()
    tezos.generate()
    xrp.generate()

    print("Crawling the simulated RPC endpoints (reverse chronological)...")
    eos_store = crawl(
        EosRpcEndpoint(eos.chain), eos.chain.config.start_height, os.path.join(scratch, "eos")
    )
    tezos_store = crawl(
        TezosRpcEndpoint(tezos.chain),
        tezos.chain.config.start_level,
        os.path.join(scratch, "tezos"),
    )
    xrp_store = crawl(
        XrpRpcEndpoint(xrp.ledger), xrp.ledger.config.start_index, os.path.join(scratch, "xrp")
    )

    print("\nDataset characterisation (Figure 2 columns, at simulation scale):")
    for store in (eos_store, tezos_store, xrp_store):
        row = characterize_dataset(store).to_row()
        print(
            f"  {row['chain']:5s}  blocks {row['first_block']}..{row['last_block']}"
            f"  ({row['block_count']} blocks, {row['transaction_count']} transactions,"
            f" {row['storage_gb']:.6f} GB compressed)"
        )

    print("\nRunning the single-pass analysis engine (one scan per chain)...")
    oracle = ExchangeRateOracle.from_orderbook(xrp.ledger.orderbook)
    # The three stores' records fill one columnar frame; the report is then
    # a single engine pass per chain — no per-figure re-iteration.
    frame = TxFrame.from_records(
        chain.from_iterable(store.iter_records() for store in (eos_store, tezos_store, xrp_store))
    )
    report = full_report(frame, oracle=oracle)
    print()
    print(report.summary().format_text())
    # Every figure behind the summary is there by name.
    decomposition = report.chains[ChainId.XRP]["xrp_decomposition"]
    print(
        f"\nXRP, Figure 7: {decomposition.failed_share:.1%} of transactions failed, "
        f"{decomposition.payments_with_value:,} of {decomposition.payments:,} "
        f"successful payments carried value."
    )
    print(
        "\nPaper headlines for comparison: 95% of EOS actions are EIDOS-driven token\n"
        "transfers, 82% of Tezos operations are consensus endorsements, and only ~2%\n"
        "of XRP ledger transactions carry economic value."
    )


if __name__ == "__main__":
    main()
