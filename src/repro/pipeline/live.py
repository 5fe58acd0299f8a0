"""Live tailing: timed block batches, the watch loop, and tail crawls.

The paper's collection strategy (§3.1: reverse-chronological crawling with
resume) implies a system that keeps ingesting.  This module provides the
"keeps" part in two flavours:

* :func:`stream_block_batches` merges the three chains' simulated block
  streams in timestamp order and groups them into timed batches — the
  ``live_tail`` stress scenario's emission model;
* :class:`LiveTailRunner` drives a :class:`~repro.pipeline.core.Pipeline`
  through those batches on a :class:`~repro.common.clock.SimulationClock`:
  every tick ingests the blocks that "arrived" since the previous tick and
  refreshes every figure incrementally — live figure updates without ever
  recomputing history;
* :func:`tail_crawl` is the endpoint-pool variant of a tick: it crawls the
  blocks above the pipeline's height watermark through a
  :class:`~repro.collection.crawler.BlockCrawler` straight into a
  :class:`~repro.collection.store.FrameSink`, which is how the loop runs
  against (simulated) RPC endpoints instead of in-process generators.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import FullReport
from repro.analysis.value import ExchangeRateOracle
from repro.collection.crawler import BlockCrawler, CrawlReport
from repro.collection.endpoints import EndpointPool
from repro.common import faults
from repro.common.clock import SECONDS_PER_HOUR, SimulationClock
from repro.common.errors import CollectionError
from repro.common.records import BlockRecord, ChainId
from repro.eos.workload import EosWorkloadGenerator
from repro.pipeline.core import Pipeline, UpdateStats
from repro.scenarios.paper import PaperScenario
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator

#: Default virtual time per live batch: the paper's Figure 3 bin width.
DEFAULT_BATCH_SECONDS = 6 * SECONDS_PER_HOUR


def scenario_generators(scenario: PaperScenario) -> Dict[str, object]:
    """Fresh, deterministic workload generators for a scenario's three chains."""
    return {
        "eos": EosWorkloadGenerator(scenario.eos),
        "tezos": TezosWorkloadGenerator(scenario.tezos),
        "xrp": XrpWorkloadGenerator(scenario.xrp),
    }


def stream_block_batches(
    generators: Dict[str, object],
    batch_seconds: float = DEFAULT_BATCH_SECONDS,
) -> Iterator[Tuple[float, List[BlockRecord]]]:
    """Merge per-chain block streams by timestamp and emit timed batches.

    Yields ``(batch_end_timestamp, blocks)`` pairs: every block with
    ``timestamp < batch_end`` since the previous batch, across all chains,
    oldest first.  Batch boundaries are anchored at the first block's
    timestamp, so the same generators always produce the same batches —
    which is what makes batch-split identity testable.
    """
    if batch_seconds <= 0:
        raise CollectionError("batch_seconds must be positive")
    merged = heapq.merge(
        *(generator.generate_blocks() for generator in generators.values()),
        key=lambda block: block.timestamp,
    )
    batch: List[BlockRecord] = []
    batch_end: Optional[float] = None
    for block in merged:
        if batch_end is None:
            batch_end = block.timestamp + batch_seconds
        while block.timestamp >= batch_end:
            yield batch_end, batch
            batch = []
            batch_end += batch_seconds
        batch.append(block)
    if batch_end is not None:
        yield batch_end, batch


def pending_batches(
    pipeline: Pipeline,
    generators: Dict[str, object],
    batch_seconds: float = DEFAULT_BATCH_SECONDS,
) -> Iterator[Tuple[int, float, List[BlockRecord], int]]:
    """The not-yet-durable suffix of a pipeline's deterministic batch stream.

    Yields ``(batch_index, batch_end, blocks, skip_rows)`` for every batch
    with rows missing from the store.  Resume is row-driven: the store's
    **durable** row count decides which prefix of the replayed stream is
    skipped — wholly-committed batches are dropped, and a batch a crash cut
    in half comes back with ``skip_rows`` covering its committed prefix.  A
    crash at any instant (even between a chunk commit and a meta write, or
    mid-batch) can therefore neither double-ingest rows nor lose them.
    This single helper carries that invariant for both ``ingest`` and the
    watch loop.  A batch is handed on (or skipped) and never read back from
    its chain, so the chains are pruned to their heads batch by batch.
    """
    durable = pipeline.store.row_count
    covered = 0
    for index, (batch_end, blocks) in enumerate(
        stream_block_batches(generators, batch_seconds)
    ):
        for generator in generators.values():
            # The XRP generator calls its chain a ledger.
            chain = getattr(generator, "ledger", None) or generator.chain
            chain.prune()
        batch_rows = sum(len(block.transactions) for block in blocks)
        if covered + batch_rows <= durable:
            covered += batch_rows
            continue
        yield index, batch_end, blocks, max(0, durable - covered)
        covered += batch_rows


def frozen_analysis_config(
    generators: Dict[str, object],
) -> Tuple[ExchangeRateOracle, StaticAccountClusterer]:
    """Freeze the XRP analysis companions from a generator set's ledger.

    The oracle rates and cluster labels become part of the accumulator
    config signatures, so the pipeline freezes them once (at whatever ledger
    state exists when first asked) and persists them; later sessions and the
    batch-identity comparisons all reuse the same frozen tables.
    """
    ledger = generators["xrp"].ledger
    oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
    clusterer = AccountClusterer(ledger.accounts)
    static = StaticAccountClusterer.from_clusterer(
        clusterer, ledger.accounts.addresses()
    )
    return oracle, static


@dataclass
class LiveUpdate:
    """One watch tick: what arrived and what the figures now say."""

    batch_index: int
    virtual_time: float
    blocks_ingested: int
    rows_ingested: int
    report: FullReport
    stats: UpdateStats


class LiveTailRunner:
    """Drives a pipeline through timed block batches with live figure updates.

    Each tick advances the simulation clock to the batch boundary, ingests
    the batch's blocks (append-only, straight into the columnar store),
    runs an incremental update, and yields the refreshed report.  The
    pipeline's resident frame keeps ticks cheap: no rehydration, no
    re-scan of history — per tick the analysis cost is proportional to the
    batch, not the archive.
    """

    def __init__(
        self,
        pipeline: Pipeline,
        scenario: PaperScenario,
        batch_seconds: float = DEFAULT_BATCH_SECONDS,
        clock: Optional[SimulationClock] = None,
        workers: int = 0,
    ):
        self.pipeline = pipeline
        self.scenario = scenario
        self.batch_seconds = batch_seconds
        self.clock = clock or SimulationClock(0.0)
        self.workers = workers
        self.generators = scenario_generators(scenario)

    def run(self, max_batches: Optional[int] = None) -> Iterator[LiveUpdate]:
        """Yield one :class:`LiveUpdate` per batch (lazily).

        Resume comes from :func:`pending_batches` — row-driven off the
        durable store, so a reopened ``watch`` continues exactly where the
        last durable chunk ended regardless of where a previous session
        died.  The ``next_batch_index`` meta entry is a display cursor
        only.
        """
        if not self.pipeline.has_analysis_config():
            # Freeze the analysis companions before the first update so the
            # accumulator config signatures never drift between ticks.
            oracle, clusterer = frozen_analysis_config(self.generators)
            self.pipeline.set_analysis_config(oracle, clusterer)
        emitted = 0
        for index, batch_end, blocks, skip_rows in pending_batches(
            self.pipeline, self.generators, self.batch_seconds
        ):
            if max_batches is not None and emitted >= max_batches:
                return
            # A crash at a batch boundary: nothing of this batch is durable
            # yet, so the row-driven resume replays it in full.
            faults.maybe_crash("live.batch", now=batch_end)
            self.clock.advance_to(batch_end)
            rows = self.pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
            report, stats = self.pipeline.update(workers=self.workers)
            self.pipeline.set_meta(next_batch_index=index + 1)
            emitted += 1
            yield LiveUpdate(
                batch_index=index,
                virtual_time=self.clock.now,
                blocks_ingested=len(blocks),
                rows_ingested=rows,
                report=report,
                stats=stats,
            )


def tail_crawl(
    pipeline: Pipeline,
    pool: EndpointPool,
    chain: ChainId,
    clock: Optional[SimulationClock] = None,
    max_attempts_per_block: int = 5,
    backfill_blocks: Optional[int] = None,
) -> CrawlReport:
    """Crawl every block above the pipeline's height watermark into the store.

    This is one tick of the paper's resume strategy against live endpoints:
    discover the head, crawl down to (but not below) the last ingested
    height, and stream the new blocks' transactions straight into the
    columnar store through a :class:`~repro.collection.store.FrameSink`.
    The next :meth:`Pipeline.update` then scans exactly those rows.

    A pipeline with no committed rows for ``chain`` has no watermark, so the
    first crawl needs ``backfill_blocks`` to bound how deep below the head
    it reaches — real chain heights start in the tens of millions, and a
    blind crawl to height zero would hammer the endpoints for weeks.

    Failed fetches are never silently lost: the crawl's ``failed_blocks``
    persist in the pipeline meta as the chain's *missing heights*, the sink
    excludes them from its stored-range answer, and every later tick
    retries them before reporting — a transient endpoint failure therefore
    delays a block's rows by a tick instead of dropping them.
    """
    missing = set(pipeline.missing_heights(chain))
    sink = pipeline.sink(chain, missing_heights=missing)
    crawler = BlockCrawler(
        pool, store=sink, clock=clock, max_attempts_per_block=max_attempts_per_block
    )
    head = crawler.discover_head()
    bounds = pipeline.store.height_bounds(chain)
    # The resume frontier is the max of the row-derived height watermark and
    # the persisted crawled head: empty blocks contribute no rows (so no
    # watermark movement), and without the crawled-head cursor every empty
    # block above the last transactional one would be re-fetched each tick.
    crawled_head = pipeline.meta.get(f"crawled_head_{chain.value}")
    frontier = max(
        (height for height in ((bounds[1] if bounds else None), crawled_head)
         if height is not None),
        default=None,
    )
    if frontier is not None:
        lowest = frontier + 1
    elif backfill_blocks is not None:
        lowest = max(head - backfill_blocks + 1, 0)
    else:
        raise CollectionError(
            f"pipeline has no {chain.value} watermark; pass backfill_blocks "
            "to bound the initial crawl depth"
        )
    if head >= lowest:
        report = crawler.crawl_range(highest=head, lowest=lowest)
    else:
        report = CrawlReport(
            chain=chain.value,
            start_height=head,
            end_height=lowest,
            blocks_fetched=0,
            transactions_fetched=0,
            requests_issued=crawler.requests_issued,
            retries=0,
            rate_limit_hits=0,
        )
    # Retry the holes previous ticks left behind (heights already below the
    # watermark, so the tail range above never revisits them).
    still_missing = list(report.failed_blocks)
    for height in sorted(missing):
        if height in sink:
            continue
        try:
            sink.add(crawler.fetch_block(height))
        except CollectionError:
            still_missing.append(height)
    sink.flush()
    pipeline.set_missing_heights(chain, still_missing)
    if head >= lowest:
        pipeline.set_meta(**{f"crawled_head_{chain.value}": head})
    report.failed_blocks = sorted(still_missing)
    return report
