"""Reverse-chronological block crawler.

The paper collects each chain's data "in reverse chronological order,
starting from the most recent block" (§3.1) and walking backwards until the
start of the observation window.  The crawler reproduces that strategy on
top of an :class:`~repro.collection.endpoints.EndpointPool`: it asks the
pool's endpoints for the head height, then fetches blocks downwards,
rotating endpoints, honouring rate limits with exponential backoff and
retrying transient failures.  A crawl resumes from what its store already
holds: heights in the store are skipped, and the incremental pipeline's
tail crawls start above the store's committed height watermark (see
:func:`repro.pipeline.live.tail_crawl`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.common import faults
from repro.common.clock import SimulationClock
from repro.common.errors import (
    BlockNotFound,
    CollectionError,
    RateLimitExceeded,
    RpcError,
)
from repro.common.records import BlockRecord
from repro.common.retry import BackoffPolicy
from repro.collection.endpoints import EndpointPool
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
    def fetch_block(self, height: int) -> BlockRecord:
        """Fetch one block, rotating endpoints and backing off on throttling.

        A throttle or a transient failure is a retry, paid for with a
        backoff delay; an endpoint that does not serve the height is left
        for the next one at no cost.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts_per_block):
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
                self.clock.advance(max(self.backoff.delay(attempt), exc.retry_after))
                last_error = exc
            except BlockNotFound as exc:
                # The block genuinely is not served by this node; try another
                # endpoint without burning backoff time.
                self.pool.record_failure(endpoint)
                last_error = exc
            except RpcError as exc:
                self.retries += 1
                self.pool.record_failure(endpoint)
                self.clock.advance(self.backoff.delay(attempt))
                last_error = exc
        raise CollectionError(f"giving up on block {height}: {last_error}")

    # -- full crawl -------------------------------------------------------------------------
    def crawl_range(self, highest: int, lowest: int) -> CrawlReport:
        """Fetch blocks from ``highest`` down to ``lowest`` (both inclusive)."""
        if lowest > highest:
            raise CollectionError("lowest height must not exceed highest height")
        started_at = self.clock.now
        failed: List[int] = []
        for height in range(highest, lowest - 1, -1):
            if height in self.store:
                continue
            try:
                self.store.add(self.fetch_block(height))
            except CollectionError:
                failed.append(height)
        self.store.flush()
        return self._report(highest, lowest, failed, started_at)

    def _report(
        self, start_height: int, end_height: int, failed: List[int], started_at: float
    ) -> CrawlReport:
        return CrawlReport(
            chain=self.pool.endpoints[0].chain_name,
            start_height=start_height,
            end_height=end_height,
            blocks_fetched=self.store.block_count,
            transactions_fetched=self.store.transaction_count,
            requests_issued=self.requests_issued,
            retries=self.retries,
            rate_limit_hits=self.rate_limit_hits,
            failed_blocks=failed,
            elapsed_virtual_seconds=self.clock.now - started_at,
        )
