"""``report``: a scenario's dataset (generated or cached) → the paper's figures.

Every report takes one route: the chunk engine over the dataset's store,
folding each chunk's memoized state from ``cache/`` and decoding and
scanning only the chunks no entry covers — in-process, or in a pool with
``--workers N``.  A dataset-cache miss builds the store first (into
``--cache DIR``, or a scratch directory removed afterwards), and a build
writes each chunk's state entry as it commits the chunk, so the report that
follows it decodes nothing — except under ``--no-cache``, whose build
writes no entry and whose report scans each chunk once.  Rendering is the report's own
(:meth:`FullReport.to_dict` / ``format_text``); ``_report_to_dict`` stays
only because ``bench/`` imports that name.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import FullReport
from repro.analysis.statecache import ChunkStateCache
from repro.cli.dataset import StoredDataset, ensure_store


def _report_to_dict(report: FullReport) -> dict:
    return report.to_dict()


def _chunk_engine_report(
    args: argparse.Namespace, stored: StoredDataset, info
) -> FullReport:
    """Fold the store's chunks: memoized states where cached, a scan where not."""
    source = "cache" if stored.from_cache else "generated"
    print(
        f"Dataset {args.scale!r} seed {args.seed}: {stored.rows:,} rows "
        f"({source} in {stored.build_seconds:.2f}s; out-of-core store)",
        file=info,
    )
    workers = max(args.workers, 1)
    cache = None if args.no_cache else ChunkStateCache.for_store(stored.directory)
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
    pool_text = "in-process" if workers == 1 else f"{workers} workers"
    cache_text = (
        f"; state cache {cache.hits} hit(s) / {cache.misses} miss(es)"
        if cache is not None
        else ""
    )
    print(
        f"Report computed by the out-of-core chunk engine "
        f"({pool_text}) in {elapsed:.2f}s{cache_text}",
        file=info,
    )
    return report


def cmd_report(args: argparse.Namespace, out) -> int:
    # In JSON mode only the payload goes to ``out`` (pipe-friendly); the
    # progress lines move to stderr.
    info = sys.stderr if args.json else out
    # A miss is built into the store — without --cache, into a scratch
    # directory that goes with the report.
    scratch = None
    if not args.cache:
        import tempfile

        scratch = tempfile.mkdtemp(prefix="repro-dataset-")
    try:
        stored = ensure_store(
            args.scale,
            args.seed,
            args.cache or scratch,
            args.gen_workers,
            states=not args.no_cache,
        )
        report = _chunk_engine_report(args, stored, info)
    finally:
        if scratch is not None:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_text(), file=out)
    return 0
