"""A dataset-cache miss: resolve the scenario, run the simulators, persist.

This is the only part of the ``report`` path that needs the scenario
registry, the three chain simulators and shard-parallel generation, so
:mod:`repro.cli.dataset` imports it only when there is something to build;
a report over a cached store never loads it.  Every build streams its rows
into the store chunk by chunk (:meth:`FrameStore.add_records`), so no
process holds the whole dataset, and writes no state entry: the report
that follows writes them as it scans each chunk.
"""

from __future__ import annotations

import gc
import glob
import json
import os
import shutil
import tempfile
import time
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.value import decode_analysis_config
from repro.cli.dataset import (
    CACHE_VERSION,
    META_NAME,
    Dataset,
    StoredDataset,
    _cache_directory,
)
from repro.collection.generate import generate_sharded, xrp_companions
from repro.collection.store import FrameStore, invalidate_state_cache
from repro.common.records import TransactionRecord
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import PaperScenario, get_scenario
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator


def _noting_parties(
    records: Iterable[TransactionRecord], parties: Set[str]
) -> Iterator[TransactionRecord]:
    """Pass ``records`` through, adding each one's sender and receiver to ``parties``."""
    for record in records:
        parties.add(record.sender)
        parties.add(record.receiver)
        yield record


def _generate_store(scenario: PaperScenario, directory: str) -> Tuple[FrameStore, List, Dict]:
    """Stream all three workloads into a store at ``directory``; return it
    with the meta's oracle rates and frozen cluster map."""
    generators = {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }
    store = FrameStore(directory=directory)
    xrp_parties: Set[str] = set()
    # The staging chunk keeps one metadata dict per row and none is in a
    # cycle: the collector would re-walk them and free nothing.
    gc.disable()
    try:
        store.add_records(generators["eos"].stream_records())
        store.add_records(generators["tezos"].stream_records())
        store.add_records(_noting_parties(generators["xrp"].stream_records(), xrp_parties))
        store.flush()
    finally:
        gc.enable()
    # The cluster map is frozen for every XRP sender and receiver, in the
    # store's code order.
    addresses = [value for value in store.pool_values()["accounts"] if value in xrp_parties]
    return (store, *xrp_companions(generators["xrp"].ledger, addresses))


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


def build_store(
    scale: str, seed: int, cache_root: str, gen_workers: Optional[int] = None
) -> StoredDataset:
    """Generate ``scale`` at ``seed`` into its cache directory: store, then meta."""
    scenario = get_scenario(scale, seed=seed)
    directory = _cache_directory(cache_root, scale, seed)
    started = time.perf_counter()
    _clear_stale_store(directory)
    if scenario.generation_windows > 1:
        generated = generate_sharded(scenario, directory, workers=gen_workers)
        store = FrameStore.open(directory)
        oracle_rates, clusters = generated.oracle_rates, generated.clusters
    else:
        store, oracle_rates, clusters = _generate_store(scenario, directory)
    meta = _write_cache_meta(directory, scale, seed, store.row_count, oracle_rates, clusters)
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
    """Generate ``scale`` at ``seed`` into a store — ``cache_root``'s, or a
    scratch one removed afterwards — and rehydrate it as a resident frame."""
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
            build_seconds=stored.build_seconds + (time.perf_counter() - started),
        )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
