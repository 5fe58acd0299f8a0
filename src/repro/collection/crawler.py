"""Reverse-chronological block crawler.

The paper collects each chain's data "in reverse chronological order,
starting from the most recent block" (§3.1) and walking backwards until the
start of the observation window.  The crawler reproduces that strategy on
top of an :class:`~repro.collection.endpoints.EndpointPool`: it asks the
pool's endpoints for the head height, then fetches blocks downwards,
rotating endpoints, honouring rate limits with exponential backoff, retrying
transient failures, and checkpointing progress so an interrupted crawl can
resume where it stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common import faults
from repro.common.clock import SimulationClock
from repro.common.errors import (
    BlockNotFound,
    CollectionError,
    RateLimitExceeded,
    RpcError,
)
from repro.common.records import BlockRecord
from repro.common.retry import BackoffPolicy, RetryBudget
from repro.collection.endpoints import BlockEndpoint, EndpointPool
from repro.collection.store import FrameSink


@dataclass
class CrawlReport:
    """Summary of one crawl run."""

    chain: str
    start_height: int
    end_height: int
    blocks_fetched: int
    transactions_fetched: int
    requests_issued: int
    retries: int
    rate_limit_hits: int
    failed_blocks: List[int] = field(default_factory=list)
    elapsed_virtual_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """Whether every block in the requested range was fetched."""
        return not self.failed_blocks


@dataclass
class CrawlCheckpoint:
    """Resumable crawl state: position, endpoint-pool rotation, retry budget.

    ``next_height`` counts down towards ``lowest_target``.  Beyond the
    position, the checkpoint carries the endpoint pool's health counters and
    rotation cursor plus the retry budget already spent on the in-flight
    block, all continuously synced by the crawler.  A crawl resumed from a
    persisted checkpoint therefore keeps throttling endpoints demoted and
    does not grant the interrupted block a fresh retry budget — the endpoint
    that caused the interruption is not hammered again.

    Durability contract: ``next_height`` tracks the *fetched* frontier, and
    stores buffer fetched blocks until their next flush — so persist a
    checkpoint to disk only together with (or after) ``store.flush()``,
    or the buffered blocks are skipped on resume.  The incremental
    pipeline's tail crawls sidestep this entirely by resuming from the
    frame store's own committed height watermark instead of a persisted
    position (see :func:`repro.pipeline.live.tail_crawl`).
    """

    next_height: int
    lowest_target: int
    #: Per-endpoint ``[successes, failures, throttles]`` at checkpoint time.
    pool_health: Optional[Dict[str, List[int]]] = None
    #: The pool's round-robin cursor at checkpoint time.
    pool_cursor: int = 0
    #: Retry attempts already consumed on ``next_height`` when interrupted.
    inflight_attempts: int = 0

    @property
    def finished(self) -> bool:
        return self.next_height < self.lowest_target

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible form for durable persistence."""
        return {
            "next_height": self.next_height,
            "lowest_target": self.lowest_target,
            "pool_health": self.pool_health,
            "pool_cursor": self.pool_cursor,
            "inflight_attempts": self.inflight_attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CrawlCheckpoint":
        return cls(
            next_height=int(payload["next_height"]),
            lowest_target=int(payload["lowest_target"]),
            pool_health=payload.get("pool_health"),
            pool_cursor=int(payload.get("pool_cursor", 0)),
            inflight_attempts=int(payload.get("inflight_attempts", 0)),
        )


class BlockCrawler:
    """Crawls a block range in reverse chronological order into a store."""

    def __init__(
        self,
        pool: EndpointPool,
        store: FrameSink,
        backoff: Optional[BackoffPolicy] = None,
        max_attempts_per_block: int = 5,
        clock: Optional[SimulationClock] = None,
    ) -> None:
        self.pool = pool
        self.store = store
        self.backoff = backoff or BackoffPolicy(base_delay=0.2, multiplier=2.0, max_delay=10.0)
        self.max_attempts_per_block = max_attempts_per_block
        self.clock = clock or SimulationClock(0.0)
        self.requests_issued = 0
        self.retries = 0
        self.rate_limit_hits = 0

    # -- head discovery ---------------------------------------------------------------
    def discover_head(self) -> int:
        """Ask the pool for the current head height (first healthy answer wins)."""
        last_error: Optional[Exception] = None
        for _ in range(len(self.pool)):
            endpoint = self.pool.next_endpoint(now=self.clock.now)
            try:
                self.requests_issued += 1
                faults.raise_endpoint_fault("crawler.head", now=self.clock.now)
                height = endpoint.head_height(self.clock.now)
                self.pool.record_success(endpoint)
                return height
            except RpcError as exc:
                last_error = exc
                if isinstance(exc, RateLimitExceeded):
                    self.pool.record_throttle(
                        endpoint, retry_after=exc.retry_after, now=self.clock.now
                    )
                else:
                    self.pool.record_failure(endpoint)
                self.clock.advance(endpoint.latency())
        raise CollectionError(f"could not discover head height: {last_error}")

    # -- single block fetch --------------------------------------------------------------
    def _sync_checkpoint(
        self, checkpoint: Optional[CrawlCheckpoint], inflight_attempts: int
    ) -> None:
        """Mirror the pool's rotation state into the checkpoint."""
        if checkpoint is None:
            return
        snapshot = self.pool.snapshot()
        checkpoint.pool_health = snapshot["health"]
        checkpoint.pool_cursor = snapshot["cursor"]
        checkpoint.inflight_attempts = inflight_attempts

    def fetch_block(
        self,
        height: int,
        attempts_used: int = 0,
        checkpoint: Optional[CrawlCheckpoint] = None,
    ) -> BlockRecord:
        """Fetch one block, rotating endpoints and backing off on throttling.

        ``attempts_used`` pre-spends part of the retry budget — a resumed
        crawl passes the interrupted block's consumed attempts so the block
        is not granted a fresh budget against the endpoints that already
        failed it.  With a ``checkpoint`` given, the pool state and the
        spent budget are synced into it after every failed attempt, keeping
        the checkpoint resumable at any interruption point.
        """
        budget = RetryBudget(
            max_attempts=self.max_attempts_per_block,
            attempts_used=min(attempts_used, self.max_attempts_per_block),
        )
        last_error: Optional[Exception] = None
        while not budget.exhausted:
            attempt = budget.consume()
            endpoint = self.pool.next_endpoint(now=self.clock.now)
            try:
                self.requests_issued += 1
                faults.raise_endpoint_fault("crawler.fetch", now=self.clock.now)
                block = endpoint.fetch_block(height, self.clock.now)
                self.pool.record_success(endpoint)
                self.clock.advance(endpoint.latency())
                return block
            except RateLimitExceeded as exc:
                self.rate_limit_hits += 1
                self.retries += 1
                self.pool.record_throttle(
                    endpoint, retry_after=exc.retry_after, now=self.clock.now
                )
                self._sync_checkpoint(checkpoint, budget.attempts_used)
                delay = max(self.backoff.delay(attempt), exc.retry_after)
                self.clock.advance(delay)
                last_error = exc
            except BlockNotFound as exc:
                # The block genuinely is not served by this node; try another
                # endpoint without burning backoff time.
                self.pool.record_failure(endpoint)
                self._sync_checkpoint(checkpoint, budget.attempts_used)
                last_error = exc
            except RpcError as exc:
                self.retries += 1
                self.pool.record_failure(endpoint)
                self._sync_checkpoint(checkpoint, budget.attempts_used)
                self.clock.advance(self.backoff.delay(attempt))
                last_error = exc
        raise CollectionError(f"giving up on block {height}: {last_error}")

    # -- full crawl -------------------------------------------------------------------------
    def crawl_range(
        self,
        highest: int,
        lowest: int,
        checkpoint: Optional[CrawlCheckpoint] = None,
    ) -> CrawlReport:
        """Fetch blocks from ``highest`` down to ``lowest`` (both inclusive)."""
        if lowest > highest:
            raise CollectionError("lowest height must not exceed highest height")
        chain = self.pool.endpoints[0].chain_name if self.pool.endpoints else "unknown"
        position = checkpoint or CrawlCheckpoint(next_height=highest, lowest_target=lowest)
        if position.pool_health is not None:
            # Resume with the interrupted crawl's endpoint weighting, so the
            # endpoint that caused the interruption stays demoted.
            self.pool.restore(position.pool_health, position.pool_cursor)
        resume_attempts = position.inflight_attempts
        started_at = self.clock.now
        failed: List[int] = []
        while not position.finished:
            height = position.next_height
            if height in self.store:
                position.next_height -= 1
                resume_attempts = 0
                continue
            try:
                block = self.fetch_block(
                    height, attempts_used=resume_attempts, checkpoint=position
                )
                self.store.add(block)
            except CollectionError:
                failed.append(height)
            resume_attempts = 0
            position.next_height -= 1
            self._sync_checkpoint(position, 0)
        self.store.flush()
        return CrawlReport(
            chain=chain,
            start_height=highest,
            end_height=lowest,
            blocks_fetched=self.store.block_count,
            transactions_fetched=self.store.transaction_count,
            requests_issued=self.requests_issued,
            retries=self.retries,
            rate_limit_hits=self.rate_limit_hits,
            failed_blocks=failed,
            elapsed_virtual_seconds=self.clock.now - started_at,
        )

    def crawl_window(self, window_start_timestamp: float) -> CrawlReport:
        """Crawl from the head down to the first block before ``window_start``.

        This is the paper's actual strategy: the crawl stops once blocks
        older than the observation window start are reached.
        """
        head = self.discover_head()
        chain = self.pool.endpoints[0].chain_name if self.pool.endpoints else "unknown"
        started_at = self.clock.now
        failed: List[int] = []
        height = head
        while height >= 0:
            if height in self.store:
                height -= 1
                continue
            try:
                block = self.fetch_block(height)
            except CollectionError:
                failed.append(height)
                height -= 1
                continue
            if block.timestamp < window_start_timestamp:
                break
            self.store.add(block)
            height -= 1
        self.store.flush()
        return CrawlReport(
            chain=chain,
            start_height=head,
            end_height=height + 1,
            blocks_fetched=self.store.block_count,
            transactions_fetched=self.store.transaction_count,
            requests_issued=self.requests_issued,
            retries=self.retries,
            rate_limit_hits=self.rate_limit_hits,
            failed_blocks=failed,
            elapsed_virtual_seconds=self.clock.now - started_at,
        )
