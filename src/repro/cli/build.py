"""A dataset-cache miss: resolve the scenario, run the simulators, persist.

This is the only part of the ``report`` path that needs the scenario
registry, the three chain simulators and shard-parallel generation, so
:mod:`repro.cli.dataset` imports it only when there is something to build;
a report over a cached store never loads it.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.parallel import cache_commits
from repro.analysis.report import figure_factory
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.value import ExchangeRateOracle, decode_analysis_config
from repro.cli.dataset import (
    CACHE_VERSION,
    META_NAME,
    Dataset,
    StoredDataset,
    _cache_directory,
)
from repro.collection.generate import generate_sharded
from repro.collection.store import FrameStore, invalidate_state_cache
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import PaperScenario, get_scenario
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator


def generate_dataset(scenario: PaperScenario) -> Tuple[TxFrame, ExchangeRateOracle, AccountClusterer]:
    """Stream all three workloads into one frame; derive oracle + clusters."""
    generators = {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }
    frame = TxFrame()
    # The frame keeps one metadata dict per row (119k at ``live_tail``) and
    # none is in a cycle: the collector would re-walk them and free nothing.
    gc.disable()
    try:
        for generator in generators.values():
            frame.extend(generator.stream_records())
    finally:
        gc.enable()
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


def _clear_stale_store(directory: str) -> None:
    """Clear chunks, their memoized states and shard leftovers before a rewrite.

    FrameStore.open globs every chunk file (any format), so leftovers from
    a previous layout would silently append rows to later rehydrations; a
    crashed sharded generation can also leave shard sub-directories behind.
    State-cache entries are keyed to the chunk bytes being replaced: a
    rebuilt directory starts with an empty cache, as a fresh one does, and
    leaves ``fsck`` no stale entry to report.
    """
    if not os.path.isdir(directory):
        return
    invalidate_state_cache(directory)
    for pattern in ("frame-chunk-*.json.gz", "frame-chunk-*.bin"):
        for stale in glob.glob(os.path.join(directory, pattern)):
            os.remove(stale)
    for stale in glob.glob(os.path.join(directory, "shard-*")):
        if os.path.isdir(stale):
            shutil.rmtree(stale)


def _write_cache_meta(
    directory: str, scale: str, seed: int, rows: int, oracle_rates, clusters
) -> Dict:
    """Commit a cache directory: write its meta atomically and return it.

    Temp file + ``os.replace``, like the store manifest: a crash mid-write
    leaves the previous meta (or none), never a torn one.
    """
    meta = {
        "version": CACHE_VERSION,
        "scenario": scale,
        "seed": seed,
        "rows": rows,
        "oracle_rates": oracle_rates,
        "clusters": clusters,
    }
    meta_path = os.path.join(directory, META_NAME)
    temp_path = meta_path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    os.replace(temp_path, meta_path)
    return meta


def _persist(
    directory: str, scale: str, seed: int, frame: TxFrame, oracle, clusterer, states=True
) -> Tuple[FrameStore, Dict]:
    """Write a resident dataset into its cache directory: chunks, then meta.

    With ``states``, each chunk is scanned as it is committed and its state
    entry written beside it, keyed to the configuration a report reads back
    from the meta.
    """
    _clear_stale_store(directory)
    store = FrameStore(directory=directory)
    oracle_rates = [
        [currency, issuer, oracle.rate(currency, issuer)]
        for currency, issuer in oracle.known_assets()
    ]
    clusters = StaticAccountClusterer.from_clusterer(
        clusterer, _xrp_addresses(frame)
    ).to_mapping()
    if states:
        companions = decode_analysis_config({"oracle_rates": oracle_rates, "clusters": clusters})
        factories = {
            chain.value: figure_factory(chain, frame.chain_bounds(chain), *companions)
            for chain in frame.chains()
        }
        cache_commits(
            store, store.iter_frame_commits(frame), factories, ChunkStateCache.for_store(directory)
        )
    else:
        store.add_frame(frame)
    meta = _write_cache_meta(
        directory, scale, seed, len(frame), oracle_rates, clusters
    )
    return store, meta


def build_store(
    scale: str, seed: int, cache_root: str, gen_workers: Optional[int] = None, states=True
) -> StoredDataset:
    """Generate ``scale`` at ``seed`` into its cache directory (store + meta),
    with each chunk's state entry when ``states`` asks for them, unless the
    scenario is window-sharded."""
    scenario = get_scenario(scale, seed=seed)
    directory = _cache_directory(cache_root, scale, seed)
    started = time.perf_counter()
    if scenario.generation_windows > 1:
        _clear_stale_store(directory)
        generated = generate_sharded(scenario, directory, workers=gen_workers)
        store = FrameStore.open(directory)
        meta = _write_cache_meta(
            directory,
            scale,
            seed,
            generated.rows,
            generated.oracle_rates,
            generated.clusters,
        )
    else:
        frame, oracle, clusterer = generate_dataset(scenario)
        store, meta = _persist(directory, scale, seed, frame, oracle, clusterer, states)
        del frame  # the report that follows folds states: free the rows first
    oracle, clusterer = decode_analysis_config(meta)
    return StoredDataset(
        directory=directory,
        rows=meta["rows"],
        oracle=oracle,
        clusterer=clusterer,
        from_cache=False,
        build_seconds=time.perf_counter() - started,
        store=store,
    )


def build_dataset(
    scale: str,
    seed: int,
    cache_root: Optional[str] = None,
    gen_workers: Optional[int] = None,
) -> Dataset:
    """Generate ``scale`` at ``seed`` as a resident frame, caching it if asked."""
    scenario = get_scenario(scale, seed=seed)
    if scenario.generation_windows > 1:
        # Windowed scenarios are *defined* by their sharded generation;
        # build the store (cache dir or a scratch dir) and rehydrate.
        scratch = None if cache_root else tempfile.mkdtemp(prefix="repro-dataset-")
        try:
            stored = build_store(scale, seed, cache_root or scratch, gen_workers)
            started = time.perf_counter()
            frame = stored.store.to_frame()
            return Dataset(
                frame=frame,
                oracle=stored.oracle,
                clusterer=stored.clusterer,
                from_cache=False,
                build_seconds=stored.build_seconds
                + (time.perf_counter() - started),
            )
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
    started = time.perf_counter()
    frame, oracle, clusterer = generate_dataset(scenario)
    elapsed = time.perf_counter() - started
    if cache_root:
        directory = _cache_directory(cache_root, scale, seed)
        _persist(directory, scale, seed, frame, oracle, clusterer)
    return Dataset(
        frame=frame,
        oracle=oracle,
        clusterer=clusterer,
        from_cache=False,
        build_seconds=elapsed,
    )
