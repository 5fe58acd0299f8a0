"""Command-line interface: ``python -m repro <command>``.

The CLI is the operational front door to the reproduction pipeline:

* ``list`` — the scenario registry (names + one-line descriptions);
* ``scenario NAME`` — one scenario's per-chain configuration and scale
  factors;
* ``report`` — generate (or load from cache) a scenario's dataset and print
  the paper's full figure report — over the resident frame, or with
  ``--out-of-core`` / ``--workers N`` by streaming the cached store's chunks;
* ``migrate-store`` — rewrite every legacy-format chunk of a frame store (or
  a pipeline's ``frames/`` store) to the current format in place, behind the
  store's atomic-manifest commit point;
* ``cache`` — inspect (``stat``) or drop (``clear``) a store's chunk-state
  aggregate cache, the memoized per-chunk accumulator states that make
  repeat ``report --out-of-core`` runs O(new data)
  (:mod:`repro.analysis.statecache`);
* ``ingest`` — append the next timed batches of a scenario's block stream
  to a durable pipeline directory (resumable; nothing is recomputed);
* ``update`` — refresh every figure incrementally: merge the checkpointed
  accumulator state and scan only the rows past the watermark (``--workers``
  fans a cold catch-up with no usable checkpoint out across processes);
* ``watch`` — the live loop: ingest a batch, update, print the moving
  headline figures, repeat — driven by the simulation clock.

Dataset caching: with ``--cache DIR`` a generated dataset is chunk-compressed
into a :class:`~repro.collection.store.FrameStore` directory together with a
``meta.json`` carrying the exchange-rate oracle and the frozen account
cluster map.  Repeat runs with the same scenario + seed rehydrate the frame
from the store and skip workload generation entirely.

Pipeline directories (``--data DIR``) are the incremental superset of that
cache: chunked rows plus a checkpoint of scanned accumulator state, so
figures refresh in time proportional to what arrived, not to history.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.parallel import default_workers, parallel_report_from_store
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.report import FullReport, full_report
from repro.analysis.value import ExchangeRateOracle
from repro.collection.store import CHUNK_FORMAT_V2, MANIFEST_NAME, FrameStore
from repro.common import faults, statsmode
from repro.common.clock import SECONDS_PER_HOUR, SimulationClock, iso_from_timestamp
from repro.common.columns import TxFrame
from repro.common.errors import ReproError
from repro.common.records import ChainId
from repro.eos.workload import EosWorkloadGenerator
from repro.pipeline import (
    LiveTailRunner,
    Pipeline,
    frozen_analysis_config,
    pending_batches,
    run_fsck,
    run_soak,
    scenario_generators,
)
from repro.scenarios import PaperScenario, get_scenario
from repro.scenarios.registry import _REGISTRY as _SCENARIO_REGISTRY
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator

#: Cache layout version; bump when the payload or meta schema changes.
CACHE_VERSION = 1


@dataclass
class Dataset:
    """A ready-to-analyse dataset: the frame plus its analysis companions."""

    scenario: PaperScenario
    frame: TxFrame
    oracle: ExchangeRateOracle
    clusterer: object
    from_cache: bool
    build_seconds: float


@dataclass
class StoredDataset:
    """An on-disk dataset: the store directory plus analysis companions.

    The out-of-core analysis path: no process ever holds the full frame,
    so the only materialised state here is the metadata.  ``store`` is the
    already-validated open handle — consumers reuse it instead of
    re-running ``FrameStore.open``'s manifest validation per report path.
    """

    scenario: PaperScenario
    directory: str
    rows: int
    oracle: ExchangeRateOracle
    clusterer: object
    from_cache: bool
    build_seconds: float
    store: Optional[FrameStore] = None


def generate_dataset(scenario: PaperScenario) -> Tuple[TxFrame, ExchangeRateOracle, AccountClusterer]:
    """Stream all three workloads into one frame; derive oracle + clusters."""
    generators = {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }
    frame = TxFrame()
    for generator in generators.values():
        frame.extend(generator.stream_records())
    xrp_ledger = generators["xrp"].ledger
    oracle = ExchangeRateOracle.from_orderbook(xrp_ledger.orderbook)
    clusterer = AccountClusterer(xrp_ledger.accounts)
    return frame, oracle, clusterer


def _xrp_addresses(frame: TxFrame) -> List[str]:
    """Every address appearing as sender or receiver on an XRP row."""
    view = frame.chain_view(ChainId.XRP)
    senders = frame.sender_code
    receivers = frame.receiver_code
    codes = set()
    for row in view.rows:
        codes.add(senders[row])
        codes.add(receivers[row])
    values = frame.accounts.values
    return [values[code] for code in sorted(codes)]


def _cache_directory(cache_root: str, scale: str, seed: int) -> str:
    return os.path.join(cache_root, f"{scale}-seed{seed}")


def _clear_stale_store(directory: str) -> None:
    """Clear chunks (and shard leftovers) before rewriting a cache directory.

    FrameStore.open globs every chunk file (any format), so leftovers from
    a previous layout would silently append rows to later rehydrations; a
    crashed sharded generation can also leave shard sub-directories behind.
    """
    import shutil

    if not os.path.isdir(directory):
        return
    for pattern in ("frame-chunk-*.json.gz", "frame-chunk-*.bin"):
        for stale in glob.glob(os.path.join(directory, pattern)):
            os.remove(stale)
    for stale in glob.glob(os.path.join(directory, "shard-*")):
        if os.path.isdir(stale):
            shutil.rmtree(stale)


def _write_cache_meta(
    meta_path: str, scale: str, seed: int, rows: int, oracle_rates, clusters
) -> None:
    meta = {
        "version": CACHE_VERSION,
        "scenario": scale,
        "seed": seed,
        "rows": rows,
        "oracle_rates": oracle_rates,
        "clusters": clusters,
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)


def _load_cache_meta(meta_path: str) -> Optional[Dict]:
    if not os.path.exists(meta_path):
        return None
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    return meta if meta.get("version") == CACHE_VERSION else None


def _meta_companions(meta: Dict) -> Tuple[ExchangeRateOracle, StaticAccountClusterer]:
    oracle = ExchangeRateOracle(
        {
            (currency, issuer): rate
            for currency, issuer, rate in meta["oracle_rates"]
        }
    )
    return oracle, StaticAccountClusterer(meta["clusters"])


def ensure_store(
    scale: str,
    seed: int,
    cache_root: str,
    gen_workers: Optional[int] = None,
) -> StoredDataset:
    """Materialise (or reuse) a scenario's dataset as an on-disk FrameStore.

    The out-of-core complement of :func:`load_or_generate`: the result is a
    store *directory*, never a resident frame.  Scenarios with
    ``generation_windows > 1`` generate shard-parallel across
    ``gen_workers`` processes (content is worker-count independent); cache
    hits validate against the manifest only, so reusing a tens-of-millions
    row dataset costs one small JSON read.
    """
    from repro.collection.generate import generate_sharded

    scenario = get_scenario(scale, seed=seed)
    directory = _cache_directory(cache_root, scale, seed)
    meta_path = os.path.join(directory, "meta.json")
    started = time.perf_counter()
    meta = _load_cache_meta(meta_path)
    if meta is not None:
        store = FrameStore.open(directory)
        if store.row_count == meta.get("rows"):
            oracle, clusterer = _meta_companions(meta)
            return StoredDataset(
                scenario=scenario,
                directory=directory,
                rows=store.row_count,
                oracle=oracle,
                clusterer=clusterer,
                from_cache=True,
                build_seconds=time.perf_counter() - started,
                store=store,
            )
    started = time.perf_counter()
    _clear_stale_store(directory)
    if scenario.generation_windows > 1:
        generated = generate_sharded(scenario, directory, workers=gen_workers)
        rows = generated.rows
        oracle_rates = generated.oracle_rates
        clusters = generated.clusters
        store = FrameStore.open(directory)
    else:
        frame, oracle, clusterer = generate_dataset(scenario)
        store = FrameStore(directory=directory)
        store.add_frame(frame)
        rows = len(frame)
        oracle_rates = [
            [currency, issuer, oracle.rate(currency, issuer)]
            for currency, issuer in oracle.known_assets()
        ]
        clusters = StaticAccountClusterer.from_clusterer(
            clusterer, _xrp_addresses(frame)
        ).to_mapping()
    _write_cache_meta(meta_path, scale, seed, rows, oracle_rates, clusters)
    oracle, clusterer = _meta_companions(
        {"oracle_rates": oracle_rates, "clusters": clusters}
    )
    return StoredDataset(
        scenario=scenario,
        directory=directory,
        rows=rows,
        oracle=oracle,
        clusterer=clusterer,
        from_cache=False,
        build_seconds=time.perf_counter() - started,
        store=store,
    )


def load_or_generate(
    scale: str,
    seed: int,
    cache_root: Optional[str] = None,
    gen_workers: Optional[int] = None,
) -> Dataset:
    """Build the dataset for a registered scenario, cache-aware.

    With ``cache_root`` set, the first build persists the frame (FrameStore
    chunks) and its analysis companions (``meta.json``); later calls with
    the same scale + seed rehydrate from disk and skip generation.
    Scenarios with ``generation_windows > 1`` generate shard-parallel (via
    :func:`ensure_store`) before rehydrating.
    """
    scenario = get_scenario(scale, seed=seed)
    directory = meta_path = None
    if cache_root:
        directory = _cache_directory(cache_root, scale, seed)
        meta_path = os.path.join(directory, "meta.json")
        started = time.perf_counter()
        meta = _load_cache_meta(meta_path)
        if meta is not None:
            frame = FrameStore.open(directory).to_frame()
            # Guard against a corrupted cache (e.g. stale chunk files):
            # a row-count mismatch falls through to regeneration.
            if len(frame) == meta.get("rows"):
                oracle, clusterer = _meta_companions(meta)
                return Dataset(
                    scenario=scenario,
                    frame=frame,
                    oracle=oracle,
                    clusterer=clusterer,
                    from_cache=True,
                    build_seconds=time.perf_counter() - started,
                )
    if scenario.generation_windows > 1:
        # Windowed scenarios are *defined* by their sharded generation;
        # build the store (cache dir or a scratch dir) and rehydrate.
        scratch = None
        if cache_root is None:
            scratch = tempfile.mkdtemp(prefix="repro-dataset-")
        try:
            stored = ensure_store(
                scale, seed, cache_root or scratch, gen_workers=gen_workers
            )
            started = time.perf_counter()
            frame = FrameStore.open(stored.directory).to_frame()
            return Dataset(
                scenario=scenario,
                frame=frame,
                oracle=stored.oracle,
                clusterer=stored.clusterer,
                from_cache=False,
                build_seconds=stored.build_seconds
                + (time.perf_counter() - started),
            )
        finally:
            if scratch is not None:
                import shutil

                shutil.rmtree(scratch, ignore_errors=True)
    started = time.perf_counter()
    frame, oracle, clusterer = generate_dataset(scenario)
    elapsed = time.perf_counter() - started
    if directory is not None:
        _clear_stale_store(directory)
        store = FrameStore(directory=directory)
        store.add_frame(frame)
        static = StaticAccountClusterer.from_clusterer(
            clusterer, _xrp_addresses(frame)
        )
        _write_cache_meta(
            meta_path,
            scale,
            seed,
            len(frame),
            [
                [currency, issuer, oracle.rate(currency, issuer)]
                for currency, issuer in oracle.known_assets()
            ],
            static.to_mapping(),
        )
    return Dataset(
        scenario=scenario,
        frame=frame,
        oracle=oracle,
        clusterer=clusterer,
        from_cache=False,
        build_seconds=elapsed,
    )


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


# -- commands --------------------------------------------------------------------------
def cmd_list(args: argparse.Namespace, out) -> int:
    print("Registered scenarios:", file=out)
    for name in sorted(_SCENARIO_REGISTRY):
        factory = _SCENARIO_REGISTRY[name]
        doc = (factory.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:14s} {summary}", file=out)
    return 0


def cmd_scenario(args: argparse.Namespace, out) -> int:
    scenario = get_scenario(args.name, seed=args.seed)
    print(f"Scenario {args.name!r} (instantiated as {scenario.name!r}):", file=out)
    for label, config in (
        ("eos", scenario.eos),
        ("tezos", scenario.tezos),
        ("xrp", scenario.xrp),
    ):
        print(f"  [{label}]", file=out)
        for field_name, value in sorted(vars(config).items()):
            print(f"    {field_name} = {value!r}", file=out)
    print("  scale factors (fraction of the paper's real daily volume):", file=out)
    for chain, factor in scenario.scale_factors.items():
        print(f"    {chain:6s} {factor:.6f}", file=out)
    return 0


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


def cmd_migrate_store(args: argparse.Namespace, out) -> int:
    """Rewrite a frame store's legacy-format chunks to the current format."""
    directory = args.directory
    if not os.path.isdir(directory):
        raise ReproError(f"{directory!r} is not a directory")
    # Accept either a bare FrameStore directory or a pipeline/--data
    # directory whose store lives under ``frames/``.
    if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
        nested = os.path.join(directory, "frames")
        if os.path.exists(os.path.join(nested, MANIFEST_NAME)):
            directory = nested
    store = FrameStore.open(directory)
    if store.committed_chunk_count == 0:
        print(f"Nothing to migrate: {directory} has no committed chunks", file=out)
        return 0
    before = store.compression_stats()
    migrated = store.migrate_format()
    after = store.compression_stats()
    if migrated == 0:
        print(
            f"Nothing to migrate: all {store.committed_chunk_count} chunk(s) "
            f"in {directory} are already {CHUNK_FORMAT_V2}",
            file=out,
        )
        return 0
    print(
        f"Migrated {migrated} of {store.committed_chunk_count} chunk(s) in "
        f"{directory} to {CHUNK_FORMAT_V2}; on-disk bytes "
        f"{before.compressed_bytes:,} -> {after.compressed_bytes:,}",
        file=out,
    )
    return 0


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


def _print_update(stats, out) -> None:
    mode = "incremental" if stats.incremental else "full rescan"
    rescans = (
        f" (rescanned: {', '.join(stats.chains_rescanned)})"
        if stats.chains_rescanned
        else ""
    )
    carried = (
        f" (carried: {', '.join(stats.chains_carried)})"
        if stats.chains_carried
        else ""
    )
    print(
        f"Update scanned {stats.rows_scanned:,} of {stats.rows_total:,} rows "
        f"({mode}){rescans}{carried} in {stats.elapsed_seconds:.2f}s; "
        f"checkpoint load {stats.checkpoint_load_seconds:.3f}s / "
        f"save {stats.checkpoint_save_seconds:.3f}s; "
        f"watermark {stats.watermark_before:,} -> {stats.watermark_after:,}",
        file=out,
    )


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


def cmd_update(args: argparse.Namespace, out) -> int:
    info = sys.stderr if args.json else out
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
        payload = _report_to_dict(report)
        payload["_update"] = {
            "rows_total": stats.rows_total,
            "rows_scanned": stats.rows_scanned,
            "incremental": stats.incremental,
            "chains_rescanned": stats.chains_rescanned,
            "chains_carried": stats.chains_carried,
            "checkpoint_load_seconds": round(stats.checkpoint_load_seconds, 6),
            "checkpoint_save_seconds": round(stats.checkpoint_save_seconds, 6),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        _print_report(report, out)
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
            quarantined = sum(1 for issue in report.issues if issue.repair)
            degraded = ", ".join(
                f"{chain}={rows}" for chain, rows in sorted(report.degraded_rows.items())
            )
            print(
                f"repaired: {quarantined} file(s) quarantined, degraded rows "
                f"{{{degraded or 'none'}}}",
                file=out,
            )
        else:
            print(
                f"DAMAGED: {len(report.issues)} issue(s) found "
                "(re-run with --repair to quarantine)",
                file=out,
            )
    if report.clean:
        return 0
    return 0 if args.repair else 1


def cmd_cache(args: argparse.Namespace, out) -> int:
    """Inspect or clear a store's chunk-state aggregate cache."""
    from repro.pipeline.fsck import resolve_store_dir

    if not os.path.isdir(args.directory):
        raise ReproError(f"{args.directory!r} is not a directory")
    store_dir = resolve_store_dir(args.directory)
    cache = ChunkStateCache.for_store(store_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(
            f"Cleared {removed} chunk-state cache file(s) from {cache.directory}",
            file=out,
        )
        return 0
    stat = cache.stat()
    if args.json:
        print(json.dumps(stat, indent=2, sort_keys=True), file=out)
    else:
        other = (
            f", {stat['other_files']} unrecognised file(s)"
            if stat["other_files"]
            else ""
        )
        print(
            f"Chunk-state cache at {stat['directory']}: {stat['entries']} "
            f"entry(ies), {stat['bytes']:,} bytes{other}",
            file=out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Revisiting Transactional Statistics of "
            "High-scalability Blockchains' (IMC 2020)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered scenarios")

    scenario = commands.add_parser(
        "scenario", help="show one scenario's configuration and scale factors"
    )
    scenario.add_argument("name", help="registered scenario name")
    scenario.add_argument("--seed", type=int, default=7)

    def dataset_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            default="small",
            help="registered scenario name (default: small)",
        )
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="dataset cache root; repeat runs skip workload generation",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "worker processes; more than 1 selects the out-of-core chunk "
                "engine over the cached store (requires --cache; default 0 = "
                "serial engine over the resident frame)"
            ),
        )
        sub.add_argument(
            "--gen-workers",
            type=int,
            default=None,
            help=(
                "worker processes for window-sharded dataset generation "
                "(default: one per core; content is worker-count independent)"
            ),
        )
        stats_flag(sub)

    def stats_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--stats",
            choices=(statsmode.EXACT, statsmode.SKETCH),
            default=None,
            help=(
                "statistics mode: 'exact' per-key state or bounded-memory "
                "'sketch' summaries (default: $REPRO_STATS or exact)"
            ),
        )

    report = commands.add_parser(
        "report", help="generate (or load) a dataset and print the paper report"
    )
    dataset_flags(report)
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    report.add_argument(
        "--out-of-core",
        action="store_true",
        help=(
            "compute the report by streaming the cached store's chunks "
            "(requires --cache; no process materialises the full frame)"
        ),
    )
    report.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the chunk-state aggregate cache for --out-of-core "
            "reports (by default memoized per-chunk states in cache/ beside "
            "the store's chunks are consulted and populated, making repeat "
            "reports O(new data))"
        ),
    )

    def pipeline_flags(sub: argparse.ArgumentParser, with_stream: bool) -> None:
        sub.add_argument(
            "--data",
            required=True,
            metavar="DIR",
            help="pipeline directory (created on first use)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "worker processes for a cold catch-up scan with no usable "
                "checkpoint (0/1 = serial; a delta is always scanned serially)"
            ),
        )
        stats_flag(sub)
        if with_stream:
            sub.add_argument(
                "--scale",
                default=None,
                help="scenario to stream (default: live_tail; pinned after first use)",
            )
            sub.add_argument("--seed", type=int, default=None)
            sub.add_argument(
                "--batch-hours",
                type=float,
                default=None,
                help="virtual hours per ingestion batch (default 6)",
            )
            sub.add_argument(
                "--batches",
                type=int,
                default=None,
                help="number of batches to process (default: all remaining)",
            )

    migrate = commands.add_parser(
        "migrate-store",
        help="rewrite a frame store's legacy-format chunks to the current format",
    )
    migrate.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )

    ingest = commands.add_parser(
        "ingest",
        help="append the next timed block batches to a pipeline directory",
    )
    pipeline_flags(ingest, with_stream=True)

    update = commands.add_parser(
        "update",
        help="refresh every figure incrementally from the checkpoint watermark",
    )
    pipeline_flags(update, with_stream=False)
    update.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    watch = commands.add_parser(
        "watch",
        help="live loop: ingest a batch, update the figures, repeat",
    )
    pipeline_flags(watch, with_stream=True)

    soak = commands.add_parser(
        "soak",
        help=(
            "drive ingest+update through simulated days under a deterministic "
            "fault plan, then gate identity, fsck and memory flatness"
        ),
    )
    soak.add_argument(
        "--data",
        required=True,
        metavar="DIR",
        help="pipeline directory for the soak (oracle run uses DIR.oracle)",
    )
    soak.add_argument("--days", type=int, default=50, help="simulated days (default 50)")
    soak.add_argument(
        "--scale",
        default="small",
        help="registered scenario name (default: small)",
    )
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault plan spec, e.g. "
            "'seed=1;crawler.fetch:mode=rate_limit:p=0.05;"
            "store.chunk_write:mode=torn:nth=3' (default: $REPRO_FAULTS)"
        ),
    )
    soak.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for update scans (0/1 = serial)",
    )
    soak.add_argument(
        "--chunk-rows",
        type=int,
        default=2_000,
        help="store chunk size; small keeps durability boundaries frequent",
    )
    soak.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the fault-free oracle run and its identity/row gates",
    )
    soak.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="write the byte-reproducible fault event log to FILE",
    )
    soak.add_argument(
        "--json", action="store_true", help="emit the soak result as JSON"
    )
    stats_flag(soak)

    cache = commands.add_parser(
        "cache",
        help="inspect or clear a store's chunk-state aggregate cache",
    )
    cache.add_argument(
        "action",
        choices=("stat", "clear"),
        help="stat: entry count and bytes; clear: remove every entry",
    )
    cache.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )
    cache.add_argument(
        "--json", action="store_true", help="emit the cache stats as JSON"
    )

    fsck = commands.add_parser(
        "fsck",
        help="verify a store/pipeline directory's chunks, manifest and checkpoint",
    )
    fsck.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged files into quarantine/ and rewrite the manifest",
    )
    fsck.add_argument(
        "--json", action="store_true", help="emit the fsck report as JSON"
    )

    return parser


_COMMANDS = {
    "list": cmd_list,
    "scenario": cmd_scenario,
    "report": cmd_report,
    "migrate-store": cmd_migrate_store,
    "ingest": cmd_ingest,
    "update": cmd_update,
    "watch": cmd_watch,
    "soak": cmd_soak,
    "fsck": cmd_fsck,
    "cache": cmd_cache,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # An explicit --stats pins the mode for the whole command (and is
        # inherited by accumulator factories shipped to worker processes);
        # without the flag the $REPRO_STATS environment selection applies.
        with statsmode.use_mode(statsmode.resolve(getattr(args, "stats", None))):
            return _COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
