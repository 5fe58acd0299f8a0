"""``ingest`` / ``watch`` / ``soak``: the commands that replay a registered
scenario's block stream into a pipeline directory (``--data DIR``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Tuple

from repro.analysis.report import FullReport
from repro.common import faults
from repro.common.clock import SECONDS_PER_HOUR, SimulationClock, iso_from_timestamp
from repro.common.errors import ReproError
from repro.pipeline import (
    LiveTailRunner,
    Pipeline,
    frozen_analysis_config,
    pending_batches,
    run_soak,
    scenario_generators,
)
from repro.scenarios import get_scenario


def _pipeline_settings(pipeline: Pipeline, args: argparse.Namespace) -> Tuple[str, int, float]:
    """Resolve (scenario, seed, batch_seconds) for a pipeline directory.

    The first ingest/watch pins the settings into the pipeline meta; later
    invocations must match (or omit the flags to inherit), because a
    pipeline replays its scenario's deterministic block stream to know
    where to resume.
    """
    meta = pipeline.meta
    scale = args.scale or meta.get("scenario") or "live_tail"
    seed = args.seed if args.seed is not None else meta.get("seed", 7)
    batch_hours = (
        args.batch_hours if args.batch_hours is not None else meta.get("batch_hours", 6.0)
    )
    if "scenario" in meta:
        pinned = (meta["scenario"], meta["seed"], meta["batch_hours"])
        if (scale, seed, batch_hours) != pinned:
            raise ReproError(
                f"pipeline {pipeline.root!r} is pinned to scenario={pinned[0]!r} "
                f"seed={pinned[1]} batch-hours={pinned[2]}; "
                "omit the flags or use a fresh --data directory"
            )
    else:
        pipeline.set_meta(scenario=scale, seed=seed, batch_hours=batch_hours)
    return scale, seed, batch_hours * SECONDS_PER_HOUR


def cmd_ingest(args: argparse.Namespace, out) -> int:
    pipeline = Pipeline(args.data)
    scale, seed, batch_seconds = _pipeline_settings(pipeline, args)
    scenario = get_scenario(scale, seed=seed)
    generators = scenario_generators(scenario)
    if not pipeline.has_analysis_config():
        pipeline.set_analysis_config(*frozen_analysis_config(generators))
    ingested_batches = 0
    ingested_rows = 0
    last_time: Optional[float] = None
    for index, batch_end, blocks, skip_rows in pending_batches(
        pipeline, generators, batch_seconds
    ):
        if args.batches is not None and ingested_batches >= args.batches:
            break
        ingested_rows += pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
        pipeline.set_meta(next_batch_index=index + 1)
        ingested_batches += 1
        last_time = batch_end
    if ingested_batches == 0:
        print(
            f"Nothing to ingest: scenario {scale!r} is fully ingested "
            f"({pipeline.store.row_count:,} rows)",
            file=out,
        )
        return 0
    print(
        f"Ingested {ingested_batches} batch(es), {ingested_rows:,} rows "
        f"into {args.data} (virtual time {iso_from_timestamp(last_time)}); "
        f"store: {pipeline.store.row_count:,} rows in "
        f"{pipeline.store.chunk_count} chunks, checkpoint watermark "
        f"{pipeline.watermark:,}",
        file=out,
    )
    return 0


def cmd_watch(args: argparse.Namespace, out) -> int:
    pipeline = Pipeline(args.data)
    scale, seed, batch_seconds = _pipeline_settings(pipeline, args)
    scenario = get_scenario(scale, seed=seed)
    skip = int(pipeline.meta.get("next_batch_index", 0))
    runner = LiveTailRunner(
        pipeline,
        scenario,
        batch_seconds=batch_seconds,
        clock=SimulationClock(0.0),
        workers=args.workers,
    )
    print(
        f"Watching scenario {scale!r} (seed {seed}, {batch_seconds / 3600:.0f}h "
        f"batches) from batch {skip}",
        file=out,
    )
    last_report: Optional[FullReport] = None
    for update in runner.run(max_batches=args.batches):
        summaries = []
        for chain, figures in update.report.chains.items():
            summaries.append(f"{chain.value}:{figures.tps:.3f}tps")
        checkpoint_seconds = (
            update.stats.checkpoint_load_seconds
            + update.stats.checkpoint_save_seconds
        )
        print(
            f"[{iso_from_timestamp(update.virtual_time)}] "
            f"batch {update.batch_index}: +{update.blocks_ingested} blocks "
            f"(+{update.rows_ingested:,} rows), scanned "
            f"{update.stats.rows_scanned:,}/{update.stats.rows_total:,} rows "
            f"in {update.stats.elapsed_seconds:.2f}s "
            f"(ckpt {checkpoint_seconds:.2f}s) | {' '.join(summaries)}",
            file=out,
        )
        last_report = update.report
    if last_report is None:
        print("Nothing to watch: the scenario stream is fully ingested", file=out)
        return 0
    print("\n" + last_report.summary().format_text(), file=out)
    return 0


def cmd_soak(args: argparse.Namespace, out) -> int:
    info = sys.stderr if args.json else out
    plan = None
    spec = args.faults if args.faults is not None else os.environ.get(faults.FAULTS_ENV)
    if spec:
        plan = faults.FaultPlan.parse(spec)
    fault_text = f"fault plan {spec!r}" if spec else "no faults"
    print(
        f"Soaking scenario {args.scale!r} (seed {args.seed}) for {args.days} "
        f"simulated day(s) under {fault_text}",
        file=info,
    )
    result = run_soak(
        args.data,
        days=args.days,
        scale=args.scale,
        seed=args.seed,
        plan=plan,
        workers=args.workers,
        chunk_rows=args.chunk_rows,
        oracle=not args.no_oracle,
    )
    if args.events:
        with open(args.events, "w", encoding="utf-8") as handle:
            if result.event_log:
                handle.write(result.event_log + "\n")
        print(f"Wrote fault event log to {args.events}", file=info)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(
            f"{len(result.cycles)} cycle(s), {result.rows_total:,} rows | "
            f"{result.crashes} crash(es) and {result.worker_deaths} worker "
            f"death(s) recovered | {result.retries} retries, "
            f"{result.rate_limit_hits} rate-limit hits, "
            f"{result.rescans} rescan(s), {result.injected_fires} injected "
            f"fault(s) fired",
            file=out,
        )
        print(
            f"gates: fsck={'clean' if result.fsck_clean else 'DAMAGED'} "
            + (
                f"identity={'ok' if result.identity_ok else 'DIVERGED'} "
                f"rows={'ok' if result.rows_total == result.oracle_rows else 'LOST/DUP'} "
                if not args.no_oracle
                else ""
            )
            + f"memory={'flat' if result.memory_flat else 'GROWING'}",
            file=out,
        )
        for failure in result.failures:
            print(f"FAILED: {failure}", file=out)
    return 0 if result.ok else 1
