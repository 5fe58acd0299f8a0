"""``report``: a scenario's dataset (generated or cached) → the paper's figures.

Over the resident frame by default; with ``--out-of-core`` / ``--workers N``
by streaming the cached store's chunks through the chunk engine.  The JSON
and text renderers here are also what ``update`` prints with.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.analysis.parallel import default_workers, parallel_report_from_store
from repro.analysis.report import FullReport, full_report
from repro.analysis.statecache import ChunkStateCache
from repro.cli.dataset import ensure_store, load_or_generate
from repro.common.errors import ReproError


def _report_to_dict(report: FullReport) -> Dict[str, object]:
    payload: Dict[str, object] = {}
    for chain, figures in report.chains.items():
        entry: Dict[str, object] = figures.to_summary().to_dict()
        entry["type_distribution"] = [
            {
                "group": row.group,
                "type": row.type_name,
                "count": row.count,
                "share": round(row.share, 6),
            }
            for row in figures.type_rows
        ]
        entry["throughput_bins"] = figures.throughput.bin_count
        if figures.decomposition is not None:
            decomposition = figures.decomposition
            entry["decomposition"] = {
                "total": decomposition.total,
                "failed": decomposition.failed,
                "payments_with_value": decomposition.payments_with_value,
                "offers_exchanged": decomposition.offers_exchanged,
                "economic_value_share": round(
                    decomposition.economic_value_share, 6
                ),
            }
        if figures.wash_trading is not None and figures.wash_trading.trade_count:
            wash = figures.wash_trading
            entry["wash_trading"] = {
                "trade_count": wash.trade_count,
                "top_accounts_trade_share": round(wash.top_accounts_trade_share, 6),
                "self_trade_share_overall": round(wash.self_trade_share_overall, 6),
            }
        if figures.value_distribution is not None and figures.value_distribution.count:
            dist = figures.value_distribution
            entry["value_distribution"] = {
                "count": dist.count,
                "total_xrp": round(dist.total_xrp, 6),
                "mean": round(dist.mean, 6),
                "min": round(dist.minimum, 6),
                "max": round(dist.maximum, 6),
                "p50": round(dist.p50, 6),
                "p90": round(dist.p90, 6),
                "p99": round(dist.p99, 6),
                "approximate": dist.approximate,
            }
        payload[chain.value] = entry
    return payload


def _print_report(report: FullReport, out) -> None:
    for chain, figures in report.chains.items():
        print(
            f"\n[{chain.value.upper()}]  {figures.stats.action_count:,} rows, "
            f"{figures.tps:.3f} TPS, {figures.throughput.bin_count} throughput bins",
            file=out,
        )
        for row in figures.type_rows[:4]:
            print(
                f"    {row.group:18s} {row.type_name:22s} {row.share:6.1%}",
                file=out,
            )
        if figures.wash_trading is not None and figures.wash_trading.trade_count:
            wash = figures.wash_trading
            print(
                f"    wash trading: top-5 involved in "
                f"{wash.top_accounts_trade_share:.0%} of {wash.trade_count} trades",
                file=out,
            )
        if figures.decomposition is not None:
            print(
                f"    economic value share: "
                f"{figures.decomposition.economic_value_share:.2%} (paper: ~2.3%)",
                file=out,
            )
        if figures.value_distribution is not None and figures.value_distribution.count:
            dist = figures.value_distribution
            approx = "~" if dist.approximate else ""
            print(
                f"    payment values: {dist.count:,} payments, median "
                f"{approx}{dist.p50:,.2f} XRP, p99 {approx}{dist.p99:,.2f} XRP",
                file=out,
            )
    print("\n" + report.summary().format_text(), file=out)


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
        print(json.dumps(_report_to_dict(report), indent=2, sort_keys=True), file=out)
    else:
        _print_report(report, out)
    return 0
