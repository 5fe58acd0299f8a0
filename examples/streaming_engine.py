"""Streaming tour: generator → TxFrame → engine → figures, no block lists.

The pipeline the paper implies at ~530M transactions only works if nothing
is ever materialised per record.  This example shows the streaming path:

1. pick a scenario from the registry (``small`` by default; try
   ``eidos_flood`` or ``spam_storm`` for the stress variants);
2. stream each generator's canonical records straight into a columnar
   ``TxFrame`` via ``stream_records()`` — no intermediate block lists;
3. run the single-pass engine: one scan per chain yields Figure 1, the
   Figure 2 statistics with the headline TPS, the Figure 3 series and the
   chain's case studies;
4. chunk-compress the frame directly into a ``FrameStore`` in a temporary
   directory and report the storage accounting.

Run with:  python examples/streaming_engine.py [scenario-name]
"""

from __future__ import annotations

import sys
import tempfile
import time

from repro.analysis.clustering import AccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import get_scenario, scenario_names
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "small"
    scenario = get_scenario(name, seed=7)
    print(f"Scenario {name!r} (registered: {', '.join(scenario_names())})")

    generators = {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }

    frame = TxFrame()
    started = time.perf_counter()
    for chain_name, generator in generators.items():
        appended = frame.extend(generator.stream_records())
        print(f"  streamed {appended:>8,d} {chain_name} records into the frame")
    print(
        f"Ingest: {len(frame):,} rows in {time.perf_counter() - started:.2f}s "
        f"({len(frame.accounts):,} interned accounts, {len(frame.types)} types)"
    )

    oracle = ExchangeRateOracle.from_orderbook(generators["xrp"].ledger.orderbook)
    clusterer = AccountClusterer(generators["xrp"].ledger.accounts)

    started = time.perf_counter()
    report = full_report(frame, oracle=oracle, clusterer=clusterer)
    elapsed = time.perf_counter() - started
    print(f"\nSingle-pass engine: every figure for every chain in {elapsed:.2f}s")

    # One block per chain (each figure's own text form), then the summary.
    print(report.format_text())

    # Any figure is also there by name, as the object its accumulator returns.
    print("\nFigures by name (top_senders, throughput_series):")
    for chain, figures in report.chains.items():
        busiest = figures["top_senders"][0]
        print(
            f"  {chain.value}: busiest sender {busiest.account} "
            f"({busiest.share_of_chain:.1%} of rows), "
            f"{figures['throughput_series'].bin_count} throughput bins"
        )

    with tempfile.TemporaryDirectory(prefix="repro-streaming-") as directory:
        store = FrameStore(chunk_rows=50_000, directory=directory)
        store.add_frame(frame)
    stats = store.compression_stats()
    print(
        f"\nFrameStore: {store.row_count:,} rows chunk-compressed directly from the "
        f"frame into {stats.chunk_count} chunks, "
        f"{stats.compressed_bytes / 1_000_000:.2f} MB "
        f"({stats.ratio:.0%} of raw)"
    )


if __name__ == "__main__":
    main()
