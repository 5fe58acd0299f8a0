"""``report``: a scenario's dataset (generated or cached) → the paper's figures.

Over the resident frame by default; with ``--out-of-core`` / ``--workers N``
by streaming the cached store's chunks through the chunk engine.  Rendering
is the report's own (:meth:`FullReport.to_dict` / ``format_text``);
``_report_to_dict`` stays only because ``bench/`` imports that name.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.parallel import default_workers, parallel_report_from_store
from repro.analysis.report import FullReport, full_report
from repro.analysis.statecache import ChunkStateCache
from repro.cli.dataset import ensure_store, load_or_generate
from repro.common.errors import ReproError


def _report_to_dict(report: FullReport) -> dict:
    return report.to_dict()


def cmd_report(args: argparse.Namespace, out) -> int:
    # In JSON mode only the payload goes to ``out`` (pipe-friendly); the
    # progress lines move to stderr.
    info = sys.stderr if args.json else out
    # More than one worker *means* the chunk engine: workers stream chunk
    # ranges of the cached store, so the same rule about --cache applies.
    if args.out_of_core or args.workers > 1:
        if not args.cache:
            raise ReproError(
                "--out-of-core / --workers N requires --cache DIR "
                "(the store lives there)"
            )
        stored = ensure_store(
            args.scale, args.seed, args.cache, gen_workers=args.gen_workers
        )
        source = "cache" if stored.from_cache else "generated"
        print(
            f"Dataset {args.scale!r} seed {args.seed}: {stored.rows:,} rows "
            f"({source} in {stored.build_seconds:.2f}s; out-of-core store)",
            file=info,
        )
        workers = args.workers if args.workers >= 1 else default_workers()
        cache = (
            None if args.no_cache else ChunkStateCache.for_store(stored.directory)
        )
        started = time.perf_counter()
        report = parallel_report_from_store(
            stored.directory,
            oracle=stored.oracle,
            clusterer=stored.clusterer,
            workers=workers,
            cache=cache,
            store=stored.store,
        )
        elapsed = time.perf_counter() - started
        cache_text = (
            f"; state cache {cache.hits} hit(s) / {cache.misses} miss(es)"
            if cache is not None
            else ""
        )
        print(
            f"Report computed by the out-of-core chunk engine "
            f"({workers} workers) in {elapsed:.2f}s{cache_text}",
            file=info,
        )
    else:
        dataset = load_or_generate(
            args.scale, args.seed, cache_root=args.cache, gen_workers=args.gen_workers
        )
        source = "cache" if dataset.from_cache else "generated"
        print(
            f"Dataset {args.scale!r} seed {args.seed}: {len(dataset.frame):,} rows "
            f"({source} in {dataset.build_seconds:.2f}s)",
            file=info,
        )
        started = time.perf_counter()
        report = full_report(
            dataset.frame, oracle=dataset.oracle, clusterer=dataset.clusterer
        )
        elapsed = time.perf_counter() - started
        print(
            f"Report computed by the serial single-pass engine in {elapsed:.2f}s",
            file=info,
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_text(), file=out)
    return 0
