"""Shard-parallel dataset generation: time-windowed workloads across processes.

Dataset generation is embarrassingly parallel *in time*: each chain's
observation window splits into whole-day sub-windows, and every
``(chain, window)`` pair becomes an independent generator run whose rows a
worker process streams straight into its own :class:`FrameStore` shard —
no generated row ever crosses a process boundary or sits in a parent-side
frame.  The parent then stitches the shard stores into one canonical store
with :meth:`FrameStore.assemble`, which moves chunk files and rewrites
pool deltas without decompressing anything.

Determinism is the load-bearing property.  Every window of a chain runs
the *same* workload seed, so the RNG-derived account universe (Tezos
implicit addresses, XRP activation addresses, EOS user names) is identical
across windows and the per-account aggregation figures keep their shapes.
What must *differ* per window is arranged explicitly:

* transaction/operation ids — each window starts its id counter at
  ``window_index * ID_STRIDE``, so concatenated shards never collide;
* block heights / levels / ledger indices — each window continues the
  previous one's range exactly (windows split on whole-day boundaries and
  blocks-per-day is an integer, so ``base + day_offset * blocks_per_day``
  is the precise continuation).  XRP additionally offsets by the window
  index because every window's bootstrap closes one rate-seeding ledger;
* absolute-dated events (the EIDOS launch, the XRP spam waves, the
  December Myrone trade) — configured as absolute dates, so they fire in
  whichever window covers them and in no other.

The windowed dataset is **canonical** for scenarios with
``generation_windows > 1``: worker count only affects wall-clock, never a
single generated row, because the window configs fully determine content.
"""

from __future__ import annotations

import datetime
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.collection.store import FrameStore
from repro.common.errors import CollectionError
from repro.scenarios.paper import PaperScenario

#: Id-counter stride between windows: each window's transaction/operation
#: ids start at ``window_index * ID_STRIDE``.  Ids render as ``%012d``, so
#: a billion ids per window keeps every shard's range disjoint and the
#: rendered width fixed.
ID_STRIDE = 1_000_000_000

#: Canonical chain order of the combined dataset — the same order a
#: one-window build streams the three generators in.
CHAIN_ORDER = ("eos", "tezos", "xrp")


@dataclass(frozen=True)
class ShardSpec:
    """One generator run: a chain's workload config for one time window."""

    index: int
    chain: str
    window: int
    config: object


@dataclass
class GeneratedDataset:
    """What sharded generation hands back to the caller."""

    rows: int
    #: ``[currency, issuer, rate]`` triples (meta.json's oracle format).
    oracle_rates: List[List[object]]
    #: Frozen account-cluster mapping (meta.json's clusters format).
    clusters: Dict[str, str]
    workers: int
    shard_count: int


def _shift_date(iso_date: str, days: int) -> str:
    shifted = datetime.date.fromisoformat(iso_date) + datetime.timedelta(days=days)
    return shifted.isoformat()


def window_day_offsets(total_days: int, windows: int) -> List[int]:
    """Whole-day window boundaries ``[0, ..., total_days]`` (len ``windows+1``).

    Windows must not outnumber days: every window needs at least one full
    day so height continuation stays exact.
    """
    if windows > total_days:
        raise CollectionError(
            f"cannot split {total_days} days into {windows} windows"
        )
    return [round(index * total_days / windows) for index in range(windows + 1)]


def chain_window_configs(scenario: PaperScenario) -> List[ShardSpec]:
    """Every ``(chain, window)`` workload config, in canonical shard order.

    Canonical order is all EOS windows, then all Tezos windows, then all
    XRP windows — the windowed generalisation of a one-window build's
    eos → tezos → xrp streaming order.  Each chain's window boundaries are
    computed independently because the chains' observation windows differ.
    """
    windows = scenario.generation_windows
    specs: List[ShardSpec] = []
    for chain in CHAIN_ORDER:
        config = getattr(scenario, chain)
        total_days = int(round(config.total_days))
        offsets = window_day_offsets(total_days, windows)
        for window in range(windows):
            start_day, stop_day = offsets[window], offsets[window + 1]
            fields = {
                "start_date": _shift_date(config.start_date, start_day),
                "end_date": _shift_date(config.start_date, stop_day),
            }
            if chain == "eos":
                fields["start_height"] = (
                    config.start_height + start_day * config.blocks_per_day
                )
                fields["transaction_id_offset"] = window * ID_STRIDE
            elif chain == "tezos":
                fields["start_level"] = (
                    config.start_level + start_day * config.blocks_per_day
                )
                fields["operation_id_offset"] = window * ID_STRIDE
            else:
                # Every XRP window's bootstrap closes one rate-seeding
                # ledger, so later windows shift by their index on top of
                # the day continuation to keep indices disjoint.
                fields["start_index"] = (
                    config.start_index + start_day * config.ledgers_per_day + window
                )
                fields["transaction_id_offset"] = window * ID_STRIDE
            specs.append(
                ShardSpec(
                    index=len(specs),
                    chain=chain,
                    window=window,
                    config=replace(config, **fields),
                )
            )
    return specs


def _build_generator(chain: str, config):
    if chain == "eos":
        from repro.eos.workload import EosWorkloadGenerator

        return EosWorkloadGenerator(config)
    if chain == "tezos":
        from repro.tezos.workload import TezosWorkloadGenerator

        return TezosWorkloadGenerator(config)
    from repro.xrp.workload import XrpWorkloadGenerator

    return XrpWorkloadGenerator(config)


def _generate_shard(task: Tuple[ShardSpec, str, int]) -> Tuple[int, Dict]:
    """Worker: run one shard's generator into its own FrameStore directory.

    Rows stream from the generator into chunk compression; the only
    retained state is the store's staging buffer (≤ ``chunk_rows`` rows)
    plus the simulated chain's ledger state and head block
    (``stream_records`` prunes the history).  XRP shards also report their
    window's oracle rates and account-cluster mapping, which the parent
    merges in window order.
    """
    spec, directory, chunk_rows = task
    generator = _build_generator(spec.chain, spec.config)
    store = FrameStore(chunk_rows=chunk_rows, directory=directory)
    store.add_records(generator.stream_records())
    store.flush()
    meta: Dict = {"rows": store.row_count}
    if spec.chain == "xrp":
        ledger = generator.ledger
        meta["oracle_rates"], meta["clusters"] = xrp_companions(
            ledger, ledger.accounts.addresses()
        )
    return spec.index, meta


def xrp_companions(ledger, addresses) -> Tuple[List[List[object]], Dict[str, str]]:
    """An XRP ledger's exchange-rate oracle as ``[currency, issuer, rate]``
    triples and its account-cluster map frozen for ``addresses`` (meta.json's
    formats)."""
    from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
    from repro.analysis.value import ExchangeRateOracle

    oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
    oracle_rates = [
        [currency, issuer, oracle.rate(currency, issuer)]
        for currency, issuer in oracle.known_assets()
    ]
    clusterer = AccountClusterer(ledger.accounts)
    clusters = StaticAccountClusterer.from_clusterer(clusterer, addresses).to_mapping()
    return oracle_rates, clusters


def generate_sharded(
    scenario: PaperScenario,
    directory: str,
    workers: Optional[int] = None,
    chunk_rows: int = 50_000,
) -> GeneratedDataset:
    """Generate ``scenario``'s dataset shard-parallel into ``directory``.

    Each ``(chain, window)`` shard is generated in its own process into a
    private store under ``directory``; the shards are then assembled into
    one canonical store (chunk files moved, pool deltas re-filtered, one
    manifest).  The result is byte-for-byte independent of ``workers``.
    """
    specs = chain_window_configs(scenario)
    if workers is None:
        workers = min(len(specs), os.cpu_count() or 1)
    shard_dirs = [
        os.path.join(directory, f"shard-{spec.index:03d}") for spec in specs
    ]
    tasks = [
        (spec, shard_dir, chunk_rows)
        for spec, shard_dir in zip(specs, shard_dirs)
    ]
    metas: Dict[int, Dict] = {}
    if workers <= 1 or len(tasks) == 1:
        for task in tasks:
            index, meta = _generate_shard(task)
            metas[index] = meta
    else:
        import multiprocessing  # only a pooled build pays for it

        context = multiprocessing.get_context()
        with context.Pool(processes=min(workers, len(tasks))) as pool:
            for index, meta in pool.imap_unordered(_generate_shard, tasks):
                metas[index] = meta
    store = FrameStore.assemble(directory, shard_dirs, chunk_rows=chunk_rows)
    oracle_rates: Dict[Tuple[str, str], List[object]] = {}
    clusters: Dict[str, str] = {}
    for spec in specs:
        meta = metas[spec.index]
        if spec.chain != "xrp":
            continue
        # Later windows win on rates (December's self-dealt trades move
        # Figure 11b's rate in the final window); cluster mappings merge in
        # window order — genesis addresses are identical across windows and
        # each window's mapping covers its own lazily-activated accounts.
        for currency, issuer, rate in meta["oracle_rates"]:
            oracle_rates[(currency, issuer)] = [currency, issuer, rate]
        for address, cluster in meta["clusters"].items():
            clusters.setdefault(address, cluster)
    return GeneratedDataset(
        rows=store.row_count,
        oracle_rates=list(oracle_rates.values()),
        clusters=clusters,
        workers=workers,
        shard_count=len(specs),
    )
