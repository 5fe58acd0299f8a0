"""Parallel tour: store the frame, fan chunk tasks out to workers — same figures.

The analysis workload is embarrassingly parallel: chains are independent
and, within a chain, every accumulator's exported state folds across
disjoint row ranges.  This example builds the ``small`` scenario's dataset once,
persists it as a chunked on-disk ``FrameStore``, and computes the full
figure report twice:

1. with the serial single-pass engine over the resident frame
   (``full_report``), and
2. with the out-of-core chunk engine (``parallel_report_from_store``):
   worker processes each stream a contiguous range of the store's chunks —
   no process holds the whole frame — and the scanned accumulator states
   fold back in chunk order before one finalisation.

The two reports must agree — that is the contract of the one fold,
``export_state`` → ``restore_state`` in row order — so the
script ends by asserting the summaries match.  The command-line equivalent:

    python -m repro report --scale small --cache DIR --workers 2

Run with:  python examples/parallel_report.py [scenario-name] [workers]
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import get_scenario
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "small"
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    scenario = get_scenario(name, seed=7)

    generators = {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }
    frame = TxFrame()
    for generator in generators.values():
        frame.extend(generator.stream_records())
    oracle = ExchangeRateOracle.from_orderbook(generators["xrp"].ledger.orderbook)
    # Workers receive the analysis companions by value: freeze the live
    # clusterer into a plain address → cluster map over the frame's accounts.
    clusterer = StaticAccountClusterer.from_clusterer(
        AccountClusterer(generators["xrp"].ledger.accounts), frame.accounts.values
    )
    print(f"Scenario {name!r}: {len(frame):,} rows across {len(frame.chains())} chains")

    started = time.perf_counter()
    serial = full_report(frame, oracle=oracle, clusterer=clusterer)
    serial_seconds = time.perf_counter() - started
    print(f"Serial single-pass engine:  {serial_seconds:.2f}s")

    with tempfile.TemporaryDirectory(prefix="repro-parallel-") as directory:
        store = FrameStore(chunk_rows=10_000, directory=directory)
        store.add_frame(frame)
        print(f"Stored as {store.chunk_count} chunks in {directory}")
        started = time.perf_counter()
        parallel = parallel_report_from_store(
            directory, oracle=oracle, clusterer=clusterer, workers=workers
        )
        parallel_seconds = time.perf_counter() - started
    print(
        f"Out-of-core chunk engine:   {parallel_seconds:.2f}s "
        f"({workers} workers on {os.cpu_count()} cores)"
    )

    assert parallel.summary().to_rows() == serial.summary().to_rows(), (
        "parallel report diverged from the serial engine"
    )
    print("\nParallel report is result-identical to the serial engine.")
    print("\n" + parallel.summary().format_text())


if __name__ == "__main__":
    main()
