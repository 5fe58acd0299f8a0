"""Closed-loop soak harness: days of ingest→update→report under a fault plan.

The paper's pipeline earns its keep by surviving the conditions §3.1
describes — flaky public endpoints, rate limits, interrupted crawls — so
this module drives the whole stack through many *simulated days* of
operation while a :mod:`repro.common.faults` plan injects crashes, torn
writes, endpoint outages and worker deaths on a deterministic schedule.

One soak cycle is one simulated day:

1. consume one timed batch from :func:`~repro.pipeline.live.stream_block_batches`
   — consuming the stream bakes the day's blocks into the generator-held
   chain simulations, exactly as a real chain grows underneath a crawler;
2. :func:`~repro.pipeline.live.tail_crawl` each chain through an
   :class:`~repro.collection.endpoints.EndpointPool` of simulated RPC
   endpoints (their intrinsic ``failure_rate`` is zero — *every* failure
   comes from the fault plan, so the schedule is reproducible);
3. :meth:`~repro.pipeline.core.Pipeline.update` refreshes every figure.

An :class:`~repro.common.faults.InjectedCrash` anywhere in the cycle is
treated as process death: the in-memory pipeline is discarded and a fresh
:class:`~repro.pipeline.core.Pipeline` reopens the directory from disk,
exactly like a restarted operator session.  A dead scan worker
(:class:`~repro.common.errors.AnalysisError`) downgrades the rest of the run
to serial updates (every pool's workers fork with the plan's counters, so a
``kill`` rule would fire in each later pool too).  Recovery attempts per
cycle are bounded.

After the last cycle the harness gates the run:

* **fsck** — :func:`repro.pipeline.fsck.run_fsck` must find a clean store;
* **identity** — the final report must equal, figure for figure, an
  oracle run of the same scenario/seed/days with *no* faults installed;
* **no lost or duplicated rows** — durable row counts must match the
  oracle's exactly;
* **flat memory** — tracemalloc's per-cycle footprint must not trend up.

Everything the run did is captured in a byte-reproducible event log: the
same ``--faults`` spec and seed produce the same log, byte for byte.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.report import FullReport
from repro.collection.endpoints import EndpointPool, EndpointProfile
from repro.common import faults
from repro.common.clock import SECONDS_PER_DAY, SimulationClock
from repro.common.errors import AnalysisError, ReproError
from repro.common.records import ChainId
from repro.common.rng import DeterministicRng
from repro.eos.rpc import EosRpcEndpoint
from repro.pipeline.core import Pipeline
from repro.pipeline.fsck import run_fsck
from repro.pipeline.live import scenario_generators, stream_block_batches
from repro.pipeline.live import tail_crawl
from repro.scenarios.registry import get_scenario
from repro.tezos.rpc import TezosRpcEndpoint
from repro.xrp.rpc import XrpRpcEndpoint

#: Endpoints per chain pool.  Two is the minimum that exercises failover.
ENDPOINTS_PER_CHAIN = 2

#: Injected-crash / dead-worker recoveries tolerated within one cycle before
#: the soak itself is declared failed (the "bounded retries" gate).
MAX_RECOVERIES_PER_CYCLE = 8

#: Memory-flatness gate: the last cycle's tracemalloc footprint may exceed the
#: mid-run footprint by at most this factor (plus a small absolute slack so
#: tiny test soaks aren't judged on allocator noise).
MEMORY_FLATNESS_FACTOR = 1.5
MEMORY_FLATNESS_SLACK_BYTES = 4 << 20


class SoakError(ReproError):
    """The soak run violated one of its invariants."""


@dataclass
class SoakCycle:
    """Metrics for one simulated day."""

    day: int
    rows_ingested: int
    rows_total: int
    retries: int
    rate_limit_hits: int
    rescans: int
    crashes: int
    worker_deaths: int
    tracemalloc_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "day": self.day,
            "rows_ingested": self.rows_ingested,
            "rows_total": self.rows_total,
            "retries": self.retries,
            "rate_limit_hits": self.rate_limit_hits,
            "rescans": self.rescans,
            "crashes": self.crashes,
            "worker_deaths": self.worker_deaths,
        }


@dataclass
class SoakResult:
    """Everything a soak run measured, gated, and logged."""

    scale: str
    seed: int
    days_requested: int
    cycles: List[SoakCycle] = field(default_factory=list)
    rows_total: int = 0
    crashes: int = 0
    worker_deaths: int = 0
    retries: int = 0
    rate_limit_hits: int = 0
    rescans: int = 0
    injected_fires: int = 0
    elapsed_seconds: float = 0.0
    peak_rss_kb: int = 0
    memory_flat: bool = True
    fsck_clean: Optional[bool] = None
    identity_ok: Optional[bool] = None
    oracle_rows: Optional[int] = None
    failures: List[str] = field(default_factory=list)
    event_log: str = ""
    report: Optional[FullReport] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cycles_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.cycles) / self.elapsed_seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "days_requested": self.days_requested,
            "cycles": len(self.cycles),
            "rows_total": self.rows_total,
            "crashes": self.crashes,
            "worker_deaths": self.worker_deaths,
            "retries": self.retries,
            "rate_limit_hits": self.rate_limit_hits,
            "rescans": self.rescans,
            "injected_fires": self.injected_fires,
            "elapsed_seconds": self.elapsed_seconds,
            "cycles_per_second": self.cycles_per_second,
            "peak_rss_kb": self.peak_rss_kb,
            "memory_flat": self.memory_flat,
            "fsck_clean": self.fsck_clean,
            "identity_ok": self.identity_ok,
            "oracle_rows": self.oracle_rows,
            "failures": list(self.failures),
            "ok": self.ok,
        }


def _endpoint_profile(name: str) -> EndpointProfile:
    # Generous limits: intrinsic throttling would add nondeterministic noise
    # on top of the fault plan's deliberately injected rate limits.
    return EndpointProfile(
        name=name,
        requests_per_second=10_000.0,
        burst=10_000.0,
        base_latency=0.001,
        failure_rate=0.0,
    )


def _build_pools(generators: Dict[str, object]) -> List[Tuple[ChainId, EndpointPool, Callable[[], int]]]:
    """Per chain: an endpoint pool over the generator's chain sim, plus a
    head accessor used to bound the cold-start crawl depth.

    Real chain heights start in the tens of millions (EOS at ~82M), so the
    first ``tail_crawl`` of each chain must not reach below the scenario's
    starting head — the head accessor lets the cycle loop compute exactly
    how many blocks the simulation has produced so far.
    """
    eos_chain = generators["eos"].chain
    tezos_chain = generators["tezos"].chain
    xrp_ledger = generators["xrp"].ledger
    pools: List[Tuple[ChainId, EndpointPool, Callable[[], int]]] = []
    pools.append(
        (
            ChainId.EOS,
            EndpointPool(
                [
                    EosRpcEndpoint(
                        eos_chain,
                        profile=_endpoint_profile(f"eos-{index}"),
                        rng=DeterministicRng(100 + index),
                    )
                    for index in range(ENDPOINTS_PER_CHAIN)
                ]
            ),
            lambda: eos_chain.head_height,
        )
    )
    pools.append(
        (
            ChainId.TEZOS,
            EndpointPool(
                [
                    TezosRpcEndpoint(
                        tezos_chain,
                        profile=_endpoint_profile(f"tezos-{index}"),
                        rng=DeterministicRng(200 + index),
                    )
                    for index in range(ENDPOINTS_PER_CHAIN)
                ]
            ),
            lambda: tezos_chain.head_level,
        )
    )
    pools.append(
        (
            ChainId.XRP,
            EndpointPool(
                [
                    XrpRpcEndpoint(
                        xrp_ledger,
                        profile=_endpoint_profile(f"xrp-{index}"),
                        rng=DeterministicRng(300 + index),
                    )
                    for index in range(ENDPOINTS_PER_CHAIN)
                ]
            ),
            lambda: xrp_ledger.head_index,
        )
    )
    return pools


def _run_loop(
    root: str,
    days: int,
    scale: str,
    seed: int,
    workers: int,
    chunk_rows: int,
    batch_seconds: float,
    max_recoveries: int,
    result: Optional[SoakResult] = None,
    plan: Optional["faults.FaultPlan"] = None,
) -> Tuple[Pipeline, FullReport]:
    """Drive ``days`` ingest→update cycles into ``root``; return the pipeline.

    When ``result`` is provided, per-cycle metrics are appended to it and the
    cycle loop samples tracemalloc (the caller is expected to have started
    tracing).  With ``result=None`` this is the bare oracle loop.
    """
    scenario = get_scenario(scale, seed=seed)
    generators = scenario_generators(scenario)
    pools = _build_pools(generators)
    # Heads before any batch is consumed: the cold-start crawl floor.
    baselines = {chain: head_fn() for chain, _, head_fn in pools}
    batches = stream_block_batches(generators, batch_seconds)
    clock = SimulationClock(0.0)
    pipeline = Pipeline(root, chunk_rows=chunk_rows)
    report = FullReport()
    scan_workers = workers
    for day in range(days):
        batch = next(batches, None)
        if batch is None:
            break  # scenario window exhausted before the requested horizon
        rows_before = pipeline.store.row_count
        cycle_retries = 0
        cycle_rate_limits = 0
        cycle_rescans = 0
        cycle_crashes = 0
        cycle_worker_deaths = 0
        recoveries = 0
        while True:
            try:
                for chain, pool, head_fn in pools:
                    # Only consulted while the chain has no watermark yet:
                    # reach exactly down to the scenario's starting head.
                    backfill = max(head_fn() - baselines[chain], 1)
                    crawl = tail_crawl(
                        pipeline,
                        pool,
                        chain,
                        clock=clock,
                        backfill_blocks=backfill,
                    )
                    cycle_retries += crawl.retries
                    cycle_rate_limits += crawl.rate_limit_hits
                report, stats = pipeline.update(workers=scan_workers)
                if stats.chains_rescanned:
                    cycle_rescans += len(stats.chains_rescanned)
                elif day > 0 and rows_before > 0 and not stats.used_checkpoint:
                    # The durable checkpoint was unusable (corrupted blob,
                    # or discarded after a truncation): the update silently
                    # fell back to a full scan — count it as a rescan.
                    cycle_rescans += 1
                break
            except faults.InjectedCrash as exc:
                cycle_crashes += 1
                recoveries += 1
                if recoveries > max_recoveries:
                    raise SoakError(
                        f"day {day}: recovery budget exhausted after "
                        f"{recoveries} injected crashes"
                    )
                if plan is not None:
                    plan.note(f"recovered day={day} crash: {exc}")
                # Simulated process death: drop all in-memory state and
                # reopen from disk, exactly like a restarted session.
                pipeline = Pipeline(root, chunk_rows=chunk_rows)
            except AnalysisError as exc:
                cycle_worker_deaths += 1
                recoveries += 1
                if recoveries > max_recoveries:
                    raise SoakError(
                        f"day {day}: recovery budget exhausted after worker "
                        f"death: {exc}"
                    )
                if plan is not None:
                    plan.note(f"recovered day={day} worker death; serial retry")
                pipeline = Pipeline(root, chunk_rows=chunk_rows)
                scan_workers = 0
            except ReproError as exc:
                # Damage beyond the crash-recovery contract — e.g. a silently
                # bit-flipped chunk failing its checksum on read.  Reopening
                # cannot help; stop the soak and let the fsck gate name it.
                if result is None:
                    raise
                result.failures.append(
                    f"day {day}: store unusable mid-soak: {exc}"
                )
                if plan is not None:
                    plan.note(f"aborted day={day} store damage: {exc}")
                return pipeline, report
        if result is not None:
            cycle = SoakCycle(
                day=day,
                rows_ingested=pipeline.store.row_count - rows_before,
                rows_total=pipeline.store.row_count,
                retries=cycle_retries,
                rate_limit_hits=cycle_rate_limits,
                rescans=cycle_rescans,
                crashes=cycle_crashes,
                worker_deaths=cycle_worker_deaths,
                tracemalloc_bytes=tracemalloc.get_traced_memory()[0]
                if tracemalloc.is_tracing()
                else 0,
            )
            result.cycles.append(cycle)
            result.retries += cycle_retries
            result.rate_limit_hits += cycle_rate_limits
            result.rescans += cycle_rescans
            result.crashes += cycle_crashes
            result.worker_deaths += cycle_worker_deaths
    return pipeline, report


def _peak_rss_kb() -> int:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return 0
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _check_memory_flat(result: SoakResult) -> bool:
    """True when traced memory grows no faster than the stored rows.

    Some allocation legitimately grows with the data over a long soak (the
    store's manifest and string pools, the simulated chains' accounts); a
    *leak* is memory outgrowing the rows — recovery state, caches or fault
    bookkeeping surviving the reopens.
    """
    if len(result.cycles) < 4:
        return True
    mid = result.cycles[len(result.cycles) // 2]
    last = result.cycles[-1]
    row_scale = 1.0
    if mid.rows_total > 0:
        row_scale = max(1.0, last.rows_total / mid.rows_total)
    ceiling = (
        mid.tracemalloc_bytes * row_scale * MEMORY_FLATNESS_FACTOR
        + MEMORY_FLATNESS_SLACK_BYTES
    )
    return last.tracemalloc_bytes <= ceiling


def oracle_root_for(root: str) -> str:
    """Sibling directory holding the fault-free oracle pipeline."""
    return root.rstrip(os.sep) + ".oracle"


def run_soak(
    root: str,
    days: int = 50,
    scale: str = "small",
    seed: int = 7,
    plan: Optional["faults.FaultPlan"] = None,
    workers: int = 0,
    chunk_rows: int = 2_000,
    batch_seconds: float = float(SECONDS_PER_DAY),
    oracle: bool = True,
    max_recoveries: int = MAX_RECOVERIES_PER_CYCLE,
) -> SoakResult:
    """Soak the pipeline for ``days`` simulated days under ``plan``.

    Returns a :class:`SoakResult`; ``result.ok`` is False when any invariant
    failed (the specific gates are listed in ``result.failures``).  Raises
    :class:`SoakError` only for an unrecoverable run (recovery budget blown),
    never for a gate failure — callers decide how loudly to fail.
    """
    result = SoakResult(scale=scale, seed=seed, days_requested=days)
    if plan is not None:
        plan.reset()
    started = time.perf_counter()
    own_trace = not tracemalloc.is_tracing()
    if own_trace:
        tracemalloc.start()
    try:
        with faults.use_plan(plan):
            pipeline, report = _run_loop(
                root,
                days,
                scale,
                seed,
                workers,
                chunk_rows,
                batch_seconds,
                max_recoveries,
                result=result,
                plan=plan,
            )
            # Final convergence pass from a cold open: whatever state the
            # fault schedule left behind must produce the same figures as a
            # run that never crashed.  A store a silent corruption left
            # unreadable is a gate failure, not a harness crash — fsck
            # below will name the damage.
            pipeline = Pipeline(root, chunk_rows=chunk_rows)
            try:
                report, stats = pipeline.update(workers=0)
            except ReproError as exc:
                if isinstance(exc, (faults.InjectedCrash, SoakError)):
                    raise
                result.failures.append(f"store unusable after the soak: {exc}")
            else:
                if stats.chains_rescanned:
                    result.rescans += len(stats.chains_rescanned)
                elif pipeline.store.row_count > 0 and not stats.used_checkpoint:
                    # The schedule corrupted the checkpoint on its final
                    # save: the cold open fell back to a full scan.
                    result.rescans += 1
    finally:
        if own_trace:
            tracemalloc.stop()
    result.elapsed_seconds = time.perf_counter() - started
    result.rows_total = pipeline.store.row_count
    result.report = report
    result.peak_rss_kb = _peak_rss_kb()
    result.injected_fires = plan.total_fires if plan is not None else 0
    result.memory_flat = _check_memory_flat(result)
    if not result.memory_flat:
        result.failures.append("tracemalloc footprint trended upward across cycles")

    fsck_report = run_fsck(root)
    result.fsck_clean = fsck_report.clean
    if not fsck_report.clean:
        details = "; ".join(issue.detail for issue in fsck_report.issues[:3])
        result.failures.append(f"fsck found damage after the soak: {details}")

    if oracle:
        with faults.use_plan(None):
            oracle_pipeline, oracle_report = _run_loop(
                oracle_root_for(root),
                days,
                scale,
                seed,
                0,
                chunk_rows,
                batch_seconds,
                max_recoveries,
            )
            oracle_report, _ = oracle_pipeline.update(workers=0)
        result.oracle_rows = oracle_pipeline.store.row_count
        if result.rows_total != result.oracle_rows:
            result.failures.append(
                f"row count diverged: soak={result.rows_total} "
                f"oracle={result.oracle_rows} (lost or duplicated rows)"
            )
        result.identity_ok = report == oracle_report
        if not result.identity_ok:
            result.failures.append(
                "final report is not figure-for-figure identical to the "
                "fault-free oracle run"
            )

    if plan is not None:
        result.event_log = plan.event_log()
    return result
