"""``update`` / ``fsck``: the commands that read a pipeline directory.

A pipeline directory (``--data DIR``) is the incremental superset of the
dataset cache: chunked rows plus a checkpoint of scanned accumulator state,
so figures refresh in time proportional to what arrived, not to history.
Neither command loads a simulator or the scenario registry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.common.errors import ReproError
from repro.pipeline import Pipeline, run_fsck


def _print_update(stats, out) -> None:
    mode = "incremental" if stats.incremental else "full rescan"
    rescans = (
        f" (rescanned: {', '.join(stats.chains_rescanned)})"
        if stats.chains_rescanned
        else ""
    )
    print(
        f"Update scanned {stats.rows_scanned:,} of {stats.rows_total:,} rows "
        f"({mode}){rescans} in {stats.elapsed_seconds:.2f}s; "
        f"checkpoint load {stats.checkpoint_load_seconds:.3f}s / "
        f"save {stats.checkpoint_save_seconds:.3f}s; "
        f"watermark {stats.watermark_before:,} -> {stats.watermark_after:,}",
        file=out,
    )


def cmd_update(args: argparse.Namespace, out) -> int:
    info = sys.stderr if args.json else out
    if not os.path.isdir(args.data):
        # Before Pipeline(), which creates what it does not find: a typo
        # leaves nothing behind.
        raise ReproError(f"{args.data!r} is not a directory; run ingest or watch first")
    pipeline = Pipeline(args.data)
    if pipeline.store.row_count == 0 and "scenario" not in pipeline.meta:
        # A mistyped --data would otherwise "succeed" with an empty report.
        raise ReproError(
            f"{args.data!r} is not an initialised pipeline "
            "(no rows, no pinned scenario); run ingest or watch first"
        )
    report, stats = pipeline.update(workers=args.workers)
    _print_update(stats, info)
    if args.json:
        payload = report.to_dict()
        payload["_update"] = {
            "rows_total": stats.rows_total,
            "rows_scanned": stats.rows_scanned,
            "incremental": stats.incremental,
            "chains_rescanned": stats.chains_rescanned,
            "checkpoint_load_seconds": round(stats.checkpoint_load_seconds, 6),
            "checkpoint_save_seconds": round(stats.checkpoint_save_seconds, 6),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(report.format_text(), file=out)
    return 0


def cmd_fsck(args: argparse.Namespace, out) -> int:
    info = sys.stderr if args.json else out
    report = run_fsck(args.directory, repair=args.repair)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(
            f"Checked {report.chunks_checked} chunk(s) in {report.store_dir} "
            f"({report.chunks_ok} ok)"
            + (", checkpoint checked" if report.checkpoint_checked else ""),
            file=info,
        )
        for issue in report.issues:
            repair_text = f" -> {issue.repair}" if issue.repair else ""
            print(f"  [{issue.kind}] {issue.detail}{repair_text}", file=out)
        if report.clean:
            print("clean: no damage found", file=out)
        elif args.repair:
            quarantined = sum(1 for issue in report.issues if issue.repair == "quarantined")
            degraded = ", ".join(
                f"{chain}={rows}" for chain, rows in sorted(report.degraded_rows.items())
            )
            print(
                f"repaired: {quarantined} file(s) quarantined, degraded rows "
                f"{{{degraded or 'none'}}}",
                file=out,
            )
        else:
            # --repair leaves chunk_version chunks in place: only a migration reads them.
            hint = (
                f"run `repro migrate-store {report.store_dir}` to rewrite legacy chunks"
                if all(issue.kind == "chunk_version" for issue in report.issues)
                else "re-run with --repair to quarantine"
            )
            print(f"DAMAGED: {len(report.issues)} issue(s) found ({hint})", file=out)
    if report.clean:
        return 0
    return 0 if args.repair else 1
