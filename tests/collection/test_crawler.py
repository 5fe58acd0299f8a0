"""Tests for the reverse-chronological block crawler."""

import pytest

from repro.common.clock import SimulationClock
from repro.common.errors import CollectionError
from repro.common.rng import DeterministicRng
from repro.collection.crawler import BlockCrawler, CrawlCheckpoint
from repro.collection.endpoints import EndpointPool
from repro.collection.store import FrameSink, FrameStore
from repro.eos.actions import make_transfer
from repro.eos.chain import EosChain, EosChainConfig, EosTransaction
from repro.eos.contracts import TokenContract
from repro.eos.rpc import EndpointProfile, EosRpcEndpoint


def build_chain(block_count=10, start_height=100):
    chain = EosChain(EosChainConfig(chain_start=1_000.0, start_height=start_height))
    chain.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
    chain.accounts.create("alice", initial_balance=1_000.0)
    chain.accounts.create("bob")
    chain.resources.stake_cpu("alice", 100.0)
    for index in range(block_count):
        chain.produce_block(
            [
                EosTransaction(
                    transaction_id=f"tx{index}",
                    actions=(make_transfer("eosio.token", "alice", "bob", 0.1, "EOS"),),
                )
            ]
        )
    return chain


def new_crawler(pool, **options):
    """A crawler into a fresh in-memory frame store's sink."""
    return BlockCrawler(pool, FrameSink(FrameStore()), **options)


def stored_heights(sink):
    """The block heights whose rows the sink's store holds, ascending."""
    return sorted({record.block_height for record in sink.store.iter_records()})


def build_pool(chain, profiles=None):
    profiles = profiles or [EndpointProfile(name="e1"), EndpointProfile(name="e2")]
    endpoints = [
        EosRpcEndpoint(chain, profile=profile, rng=DeterministicRng(index))
        for index, profile in enumerate(profiles)
    ]
    return EndpointPool(endpoints)


class TestCrawlRange:
    def test_fetches_every_block_in_range(self):
        chain = build_chain(10)
        crawler = new_crawler(build_pool(chain))
        report = crawler.crawl_range(highest=109, lowest=100)
        assert report.complete
        assert report.blocks_fetched == 10
        assert stored_heights(crawler.store) == list(range(100, 110))
        assert report.transactions_fetched == 10

    def test_partial_range(self):
        chain = build_chain(10)
        crawler = new_crawler(build_pool(chain))
        report = crawler.crawl_range(highest=105, lowest=103)
        assert stored_heights(crawler.store) == [103, 104, 105]
        assert report.complete

    def test_invalid_range(self):
        chain = build_chain(3)
        crawler = new_crawler(build_pool(chain))
        with pytest.raises(CollectionError):
            crawler.crawl_range(highest=100, lowest=200)

    def test_resume_from_checkpoint_skips_fetched_blocks(self):
        chain = build_chain(10)
        store = FrameSink(FrameStore())
        crawler = BlockCrawler(build_pool(chain), store)
        crawler.crawl_range(highest=109, lowest=105)
        requests_before = crawler.requests_issued
        checkpoint = CrawlCheckpoint(next_height=109, lowest_target=100)
        crawler.crawl_range(highest=109, lowest=100, checkpoint=checkpoint)
        assert stored_heights(store) == list(range(100, 110))
        # Already-stored blocks are skipped without extra requests.
        assert crawler.requests_issued - requests_before == 5

    def test_missing_blocks_reported_not_fatal(self):
        chain = build_chain(5, start_height=100)
        crawler = new_crawler(build_pool(chain), max_attempts_per_block=2)
        report = crawler.crawl_range(highest=106, lowest=100)
        assert not report.complete
        assert set(report.failed_blocks) == {105, 106}
        assert stored_heights(crawler.store) == list(range(100, 105))


class TestRateLimitsAndFailures:
    def test_rate_limited_endpoints_trigger_backoff(self):
        chain = build_chain(8)
        pool = build_pool(
            chain,
            profiles=[
                EndpointProfile(name="tight1", requests_per_second=2.0, burst=2.0),
                EndpointProfile(name="tight2", requests_per_second=2.0, burst=2.0),
            ],
        )
        crawler = new_crawler(pool, clock=SimulationClock(0.0))
        report = crawler.crawl_range(highest=107, lowest=100)
        assert report.complete
        assert report.rate_limit_hits > 0
        assert report.elapsed_virtual_seconds > 0.0

    def test_flaky_endpoint_retried_on_other_endpoint(self):
        chain = build_chain(6)
        pool = build_pool(
            chain,
            profiles=[
                EndpointProfile(name="flaky", failure_rate=0.8),
                EndpointProfile(name="stable"),
            ],
        )
        crawler = new_crawler(pool)
        report = crawler.crawl_range(highest=105, lowest=100)
        assert report.complete
        assert crawler.store.block_count == 6

    def test_discover_head(self):
        chain = build_chain(4)
        crawler = new_crawler(build_pool(chain))
        assert crawler.discover_head() == chain.head_height


class TestCrawlWindow:
    def test_stops_at_window_start(self):
        chain = build_chain(10)
        window_start = chain.block_at(105).timestamp
        crawler = new_crawler(build_pool(chain))
        report = crawler.crawl_window(window_start)
        assert stored_heights(crawler.store) == list(range(105, 110))
        assert report.blocks_fetched == 5


class TestCheckpointPoolState:
    """A resumed crawl keeps endpoint weighting and the spent retry budget."""

    def test_checkpoint_carries_pool_health_and_cursor(self):
        chain = build_chain(6)
        crawler = new_crawler(build_pool(chain))
        checkpoint = CrawlCheckpoint(next_height=105, lowest_target=100)
        crawler.crawl_range(highest=105, lowest=100, checkpoint=checkpoint)
        assert checkpoint.finished
        assert checkpoint.pool_health is not None
        total_successes = sum(
            counts[0] for counts in checkpoint.pool_health.values()
        )
        assert total_successes == 6
        assert checkpoint.inflight_attempts == 0

    def test_checkpoint_round_trips_through_json(self):
        checkpoint = CrawlCheckpoint(
            next_height=42,
            lowest_target=10,
            pool_health={"e1": [3, 1, 2]},
            pool_cursor=5,
            inflight_attempts=2,
        )
        import json

        restored = CrawlCheckpoint.from_dict(json.loads(json.dumps(checkpoint.to_dict())))
        assert restored == checkpoint

    def test_resumed_crawl_restores_endpoint_demotion(self):
        """The endpoint that caused the interruption stays demoted on resume."""
        chain = build_chain(6)
        pool = build_pool(
            chain,
            profiles=[
                EndpointProfile(name="bad", failure_rate=0.99),
                EndpointProfile(name="good"),
            ],
        )
        crawler = new_crawler(pool)
        checkpoint = CrawlCheckpoint(next_height=105, lowest_target=103)
        crawler.crawl_range(highest=105, lowest=103, checkpoint=checkpoint)
        assert checkpoint.pool_health["bad"][1] > 0  # failures recorded
        # "New process": a fresh pool + crawler resume from the persisted dict.
        fresh_pool = build_pool(
            chain,
            profiles=[
                EndpointProfile(name="bad", failure_rate=0.99),
                EndpointProfile(name="good"),
            ],
        )
        restored = CrawlCheckpoint.from_dict(checkpoint.to_dict())
        resumed = new_crawler(fresh_pool)
        resumed.crawl_range(highest=105, lowest=100, checkpoint=restored)
        # The restored health must weight "bad" below "good" immediately:
        # with the recorded failures its weight drops under the rotation
        # threshold, so the resumed crawl prefers the good endpoint.
        assert (
            fresh_pool.health("bad").weight < fresh_pool.health("good").weight
        )

    def test_inflight_retry_budget_not_refreshed_on_resume(self):
        """A block that exhausted its budget is not hammered again."""
        chain = build_chain(3, start_height=100)
        crawler = new_crawler(build_pool(chain), max_attempts_per_block=4)
        # Height 200 does not exist: fetching burns the whole budget and the
        # checkpoint records the spent attempts along the way.
        checkpoint = CrawlCheckpoint(next_height=200, lowest_target=200)
        with pytest.raises(CollectionError):
            crawler.fetch_block(200, checkpoint=checkpoint)
        assert checkpoint.inflight_attempts == 4
        # Resume in a "new process": the interrupted block's budget arrives
        # already spent, so it is abandoned without issuing new requests.
        fresh = new_crawler(build_pool(chain), max_attempts_per_block=4)
        restored = CrawlCheckpoint.from_dict(checkpoint.to_dict())
        report = fresh.crawl_range(highest=200, lowest=200, checkpoint=restored)
        assert report.failed_blocks == [200]
        assert fresh.requests_issued == 0

    def test_partially_spent_budget_resumes_with_remainder(self):
        chain = build_chain(3, start_height=100)
        fresh = new_crawler(build_pool(chain), max_attempts_per_block=5)
        checkpoint = CrawlCheckpoint(
            next_height=102, lowest_target=100, inflight_attempts=3
        )
        report = fresh.crawl_range(highest=102, lowest=100, checkpoint=checkpoint)
        # Height 102 exists, so the first (remaining) attempt succeeds and
        # the rest of the range crawls normally with full budgets.
        assert report.complete
        assert stored_heights(fresh.store) == [100, 101, 102]
