"""The ``ingest_update`` closed loop: one client feeding a pipeline batch by batch.

One *pass* replays the scenario's whole block stream in six-hour batches
(the CLI's default for ``repro ingest`` / ``repro watch``) into a fresh
pipeline directory; one *cycle* is what a ``watch`` tick makes its user wait
for: ``Pipeline.ingest_blocks`` → ``Pipeline.update`` → render.  Drawing the
next batch from the workload generators is the load generator's work: it is
timed on its own and is not part of a cycle.  A cycle is timed on the wall
clock and in CPU seconds (:class:`benchenv.Timed`).

The untraced benchmark runs this file as a child process, so the pipeline's
peak memory and garbage-collector state are its own and not the harness's;
the traced run calls :func:`run_pass` in-process to record spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from typing import Dict, Optional

import benchenv
from spans import Tracer

BATCH_SECONDS = 6 * 3600.0


def run_pass(
    root: str, seed: int, tracer: Tracer, speed: Optional[benchenv.BoxSpeed] = None
) -> Dict:
    """Ingest the whole stream into a fresh pipeline at ``root``; check it.

    ``speed``, in the untraced run, gets its reference children between cycles.
    """
    from repro.analysis.report import full_report
    from repro.collection.store import FrameStore
    from repro.pipeline import (
        Pipeline,
        frozen_analysis_config,
        pending_batches,
        scenario_generators,
    )
    from repro.scenarios import get_scenario

    pipeline = Pipeline(root)
    generators = scenario_generators(get_scenario(benchenv.SCALE, seed=seed))
    pipeline.set_analysis_config(*frozen_analysis_config(generators))
    batches = pending_batches(pipeline, generators, BATCH_SECONDS)
    cycles = []
    checkpoint_loads = []
    checkpoint_saves = []
    rows_scanned = rescans = 0
    rendered = None
    references = len(speed.samples) if speed is not None else 0
    gc.collect()
    while True:
        with tracer.span("loadgen"):
            # The blocks of one batch are the only record objects alive at a
            # time; holding more makes every later collection slower.
            batch = next(batches, None)
        if batch is None:
            break
        _index, _batch_end, blocks, skip_rows = batch
        watch = benchenv.Stopwatch()
        with tracer.span("pipeline.cycle"):
            with tracer.span("pipeline.ingest") as span:
                rows = pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
                if span is not None:
                    span["rows"] = rows
            with tracer.span("pipeline.update"):
                report, stats = pipeline.update()
            with tracer.span("report.render"):
                rendered = benchenv.render(report)
        cycles.append([rows, *watch.read()])
        # The pipeline times these two itself, on the wall clock, so they
        # are kept beside the spans (CPU seconds) and not among them.
        checkpoint_loads.append(stats.checkpoint_load_seconds)
        checkpoint_saves.append(stats.checkpoint_save_seconds)
        rows_scanned += stats.rows_scanned
        rescans += len(stats.chains_rescanned)
        del batch, blocks
        if speed is not None:
            speed.keep_up()
    expected = benchenv.render(
        full_report(pipeline.frame, *pipeline.analysis_config())
    )
    return {
        "cycles": cycles,
        "checkpoint_load_wall_s": checkpoint_loads,
        "checkpoint_save_wall_s": checkpoint_saves,
        "rows": pipeline.store.row_count,
        "manifest_rows": FrameStore.open(pipeline.frames_dir).row_count,
        "identity": rendered == expected,
        "rows_scanned": rows_scanned,
        "rescans": rescans,
        "chunks": pipeline.store.chunk_count,
        "store_bytes": benchenv.store_bytes(pipeline.frames_dir),
        "checkpoint_bytes": os.path.getsize(pipeline.checkpoints.path),
        "reference_cpu_s": speed.samples[references:] if speed is not None else [],
    }


def run_passes(work: str, seed: int, seconds: float, tracer: Tracer) -> list:
    """Whole passes, closed loop, until ``seconds`` have gone by."""
    passes = []
    speed = benchenv.BoxSpeed(work)
    for count in benchenv.while_budget(seconds):
        root = os.path.join(work, f"pipeline-{count}")
        tracer.iteration = count
        passes.append(run_pass(root, seed, tracer, speed))
        shutil.rmtree(root)
    return passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    benchenv.bootstrap()
    passes = run_passes(args.work, args.seed, args.seconds, Tracer("ingest_update", enabled=False))
    json.dump(passes, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
