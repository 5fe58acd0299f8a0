"""The dataset cache behind ``report``: look a scenario + seed up, open a hit.

With ``--cache DIR`` a generated dataset is streamed chunk by chunk into a
:class:`~repro.collection.store.FrameStore` directory together with a
``meta.json`` carrying the exchange-rate oracle and the frozen account
cluster map.  Repeat runs with the same scenario + seed skip workload
generation entirely: ``report`` takes the open store from
:func:`cached_store` and folds it through the chunk engine, never decoding
a chunk whose state is memoized in ``cache/`` beside it;
:func:`load_or_generate` (library callers, the benchmark's set-up) still
rehydrates the resident frame.

A hit is decided from the directory alone — the meta names the scenario, the
seed and the row count, and the row count must match the store's manifest —
so this module imports the store and the two analysis companions and
nothing else.  Everything a *miss* needs (the scenario registry, the three
chain simulators, sharded generation) lives in :mod:`repro.cli.build`, which
is imported only when a dataset actually has to be built.
"""

from __future__ import annotations

import os
import time
from typing import Dict, NamedTuple, Optional, Tuple

from repro.analysis.value import ExchangeRateOracle, decode_analysis_config
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.common.durable import read_json
from repro.common.errors import CollectionError

#: Cache layout version; bump when the payload or meta schema changes.
CACHE_VERSION = 1

META_NAME = "meta.json"


class Dataset(NamedTuple):
    """A ready-to-analyse dataset: the frame plus its analysis companions."""

    frame: TxFrame
    oracle: ExchangeRateOracle
    clusterer: object
    from_cache: bool
    build_seconds: float


class StoredDataset(NamedTuple):
    """An on-disk dataset: the store directory plus analysis companions.

    The out-of-core analysis path: no process ever holds the full frame,
    so the only materialised state here is the metadata.  ``store`` is the
    already-validated open handle — consumers reuse it instead of
    re-running ``FrameStore.open``'s manifest validation per report path.
    """

    directory: str
    rows: int
    oracle: ExchangeRateOracle
    clusterer: object
    from_cache: bool
    build_seconds: float
    store: FrameStore


def _cache_directory(cache_root: str, scale: str, seed: int) -> str:
    return os.path.join(cache_root, f"{scale}-seed{seed}")


def read_cache_meta(path: str) -> Tuple[Dict, Tuple[ExchangeRateOracle, object]]:
    """The dataset-cache meta at ``path`` and its decoded oracle and cluster
    map, or a ``meta_unreadable`` :class:`CollectionError`.

    Missing, torn (a crash mid-write under an older writer), not a JSON
    object, of another layout version or without analysis companions:
    :func:`cached_store` takes each as a miss.
    """
    meta = read_json(path, "dataset-cache meta", "meta_unreadable")
    try:
        if meta.get("version") != CACHE_VERSION:
            raise CollectionError(f"unsupported version {meta.get('version')!r}")
        companions = decode_analysis_config(meta)
        if companions is None:
            raise CollectionError("no oracle_rates or clusters")
    except CollectionError as error:
        raise CollectionError(
            f"dataset-cache meta {path!r} is unreadable: {error}", "meta_unreadable"
        ) from None
    return meta, companions


def cached_store(
    scale: str, seed: int, cache_root: Optional[str]
) -> Optional[StoredDataset]:
    """The dataset cached under ``cache_root``, or ``None`` when it must be built.

    The one hit-or-miss decision of a run: meta and manifest are read, no
    chunk is touched.  The meta must have been written for this scenario and
    seed (a directory copied or renamed from another run is not trusted) and
    agree with the store's manifest on the row count (stale or missing chunk
    files); a manifest the store refuses to open, or an oracle / cluster map
    that does not decode, is a miss like a torn meta — the dataset is
    regenerated over it.
    """
    if not cache_root:
        return None
    started = time.perf_counter()
    directory = _cache_directory(cache_root, scale, seed)
    try:
        meta, (oracle, clusterer) = read_cache_meta(os.path.join(directory, META_NAME))
        if meta.get("scenario") != scale or meta.get("seed") != seed:
            return None
        store = FrameStore.open(directory)
    except CollectionError:
        return None
    if store.row_count != meta.get("rows"):
        return None
    return StoredDataset(
        directory=directory,
        rows=store.row_count,
        oracle=oracle,
        clusterer=clusterer,
        from_cache=True,
        build_seconds=time.perf_counter() - started,
        store=store,
    )


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
    row dataset costs one small JSON read.  A build writes no state entry:
    the first report over the store writes them.
    """
    stored = cached_store(scale, seed, cache_root)
    if stored is None:
        from repro.cli import build

        stored = build.build_store(scale, seed, cache_root, gen_workers)
    return stored


def load_or_generate(
    scale: str,
    seed: int,
    cache_root: Optional[str] = None,
    gen_workers: Optional[int] = None,
) -> Dataset:
    """Build the dataset for a registered scenario, cache-aware.

    Every build generates into a store — under ``cache_root`` with its
    analysis companions (``meta.json``), or a scratch directory — and
    rehydrates the frame from it; later calls with the same scale + seed
    and ``cache_root`` rehydrate from disk and skip generation.
    """
    started = time.perf_counter()
    stored = cached_store(scale, seed, cache_root)
    if stored is not None:
        return Dataset(
            frame=stored.store.to_frame(),
            oracle=stored.oracle,
            clusterer=stored.clusterer,
            from_cache=True,
            build_seconds=time.perf_counter() - started,
        )
    from repro.cli import build

    return build.build_dataset(scale, seed, cache_root, gen_workers)
