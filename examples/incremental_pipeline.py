"""Incremental ingestion with checkpointed accumulators and live updates.

Builds a durable pipeline directory, tails the ``live_tail`` scenario's
block stream in timed batches, and refreshes the full figure report after
every batch — scanning only the rows that arrived, never recomputing
history.  Finishes by proving the incremental report identical to a
from-scratch batch run over the same rows.

Run with ``PYTHONPATH=src python examples/incremental_pipeline.py``.
"""

from __future__ import annotations

import tempfile

from repro.analysis.report import full_report
from repro.common.clock import SimulationClock, iso_from_timestamp
from repro.pipeline import LiveTailRunner, Pipeline
from repro.scenarios import get_scenario


def main() -> None:
    scenario = get_scenario("live_tail", seed=7)
    with tempfile.TemporaryDirectory(prefix="repro-pipeline-") as root:
        pipeline = Pipeline(root, chunk_rows=5_000)
        runner = LiveTailRunner(
            pipeline,
            scenario,
            batch_seconds=12 * 3600.0,  # half-day batches
            clock=SimulationClock(0.0),
        )
        print(f"Tailing scenario {scenario.name!r} into {root}")
        last = None
        for update in runner.run(max_batches=6):
            print(
                f"  [{iso_from_timestamp(update.virtual_time)}] "
                f"+{update.rows_ingested:,} rows, scanned "
                f"{update.stats.rows_scanned:,}/{update.stats.rows_total:,} "
                f"({'incremental' if update.stats.incremental else 'first scan'})"
            )
            last = update
        assert last is not None

        # The incremental report equals a from-scratch batch run.
        oracle, clusterer = pipeline.analysis_config()
        batch = full_report(pipeline.frame, oracle=oracle, clusterer=clusterer)
        assert last.report.summary().to_rows() == batch.summary().to_rows()
        for chain, expected in batch.chains.items():
            figures = last.report.chains[chain]
            for name in expected:
                assert figures[name] == expected[name], (chain, name)
        print("\nIncremental report == batch report, figure for figure.")
        print(last.report.summary().format_text())


if __name__ == "__main__":
    main()
