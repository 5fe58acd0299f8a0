"""``report``: a scenario's dataset (generated or cached) → the paper's figures.

A dataset-cache hit selects the chunk engine: the store's chunks are folded
from their memoized states in ``cache/`` (decoded and scanned only where no
entry exists yet), in-process unless ``--out-of-core`` / ``--workers N`` ask
for a pool.  A miss generates and scans the resident frame generation
already holds, unless those flags build straight into the store.  Rendering
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
from repro.cli.dataset import Dataset, StoredDataset, cached_store
from repro.common.errors import ReproError


def _report_to_dict(report: FullReport) -> dict:
    return report.to_dict()


def _chunk_engine_report(
    args: argparse.Namespace, stored: StoredDataset, out_of_core: bool, info
) -> FullReport:
    """Fold the store's chunks: memoized states where cached, a scan where not."""
    source = "cache" if stored.from_cache else "generated"
    print(
        f"Dataset {args.scale!r} seed {args.seed}: {stored.rows:,} rows "
        f"({source} in {stored.build_seconds:.2f}s; out-of-core store)",
        file=info,
    )
    # A plain report over a cached store folds in-process (and never imports
    # multiprocessing); one worker per core is what --out-of-core asks for.
    if args.workers >= 1:
        workers = args.workers
    else:
        workers = default_workers() if args.out_of_core else 1
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
    pool_text = "in-process"
    if out_of_core:
        pool_text = f"{workers} worker{'' if workers == 1 else 's'}"
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


def _resident_report(args: argparse.Namespace, dataset: Dataset, info) -> FullReport:
    """Scan the frame a cold build still holds.

    Decoding the chunks it has just encoded would add their decode to every
    cold build, so this route touches neither the store nor its state cache.
    """
    print(
        f"Dataset {args.scale!r} seed {args.seed}: {len(dataset.frame):,} rows "
        f"(generated in {dataset.build_seconds:.2f}s)",
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
    return report


def cmd_report(args: argparse.Namespace, out) -> int:
    # In JSON mode only the payload goes to ``out`` (pipe-friendly); the
    # progress lines move to stderr.
    info = sys.stderr if args.json else out
    # More than one worker *means* --out-of-core: workers stream chunk
    # ranges of the cached store, so the same rule about --cache applies.
    out_of_core = args.out_of_core or args.workers > 1
    if out_of_core and not args.cache:
        raise ReproError(
            "--out-of-core / --workers N requires --cache DIR "
            "(the store lives there)"
        )
    # Hit or miss is decided here, once: a hit is folded by the chunk engine
    # whatever the flags, a miss is built the way the flags ask.
    stored = cached_store(args.scale, args.seed, args.cache)
    if stored is None:
        from repro.cli import build

        if out_of_core:
            stored = build.build_store(
                args.scale, args.seed, args.cache, args.gen_workers
            )
        else:
            dataset = build.build_dataset(
                args.scale, args.seed, args.cache, args.gen_workers
            )
    if stored is not None:
        report = _chunk_engine_report(args, stored, out_of_core, info)
    else:
        report = _resident_report(args, dataset, info)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(report.format_text(), file=out)
    return 0
