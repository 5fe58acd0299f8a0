"""Tests for the reverse-chronological block crawler."""

import pytest

from repro.common import faults
from repro.common.clock import SimulationClock
from repro.common.errors import ChainError, CollectionError
from repro.common.rng import DeterministicRng
from repro.collection.crawler import BlockCrawler
from repro.collection.endpoints import EndpointPool, EndpointProfile
from repro.collection.store import FrameSink, FrameStore
from repro.eos.actions import make_transfer
from repro.eos.chain import EosChain, EosChainConfig, EosTransaction
from repro.eos.contracts import TokenContract
from repro.eos.rpc import EosRpcEndpoint


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

    def test_resume_skips_fetched_blocks(self):
        chain = build_chain(10)
        store = FrameSink(FrameStore())
        crawler = BlockCrawler(build_pool(chain), store)
        crawler.crawl_range(highest=109, lowest=105)
        requests_before = crawler.requests_issued
        crawler.crawl_range(highest=109, lowest=100)
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


def above_head(chain):
    """A height the chain has not produced yet."""
    return chain.head_height + 1


def refused_by_the_chain(chain):
    """The head height, which the chain's lookup now refuses."""

    def block_at(height):
        raise ChainError(f"block {height} pruned")

    chain.block_at = block_at
    return chain.head_height


class TestUnservedBlock:
    """A height an endpoint does not serve is rotated past, never retried."""

    @pytest.mark.parametrize("unserved", [above_head, refused_by_the_chain])
    def test_gives_up_without_retries_or_backoff(self, unserved):
        chain = build_chain(3)
        height = unserved(chain)
        clock = SimulationClock(0.0)
        crawler = new_crawler(
            build_pool(chain, profiles=[EndpointProfile(name="only")]),
            max_attempts_per_block=3,
            clock=clock,
        )
        with pytest.raises(CollectionError):
            crawler.fetch_block(height)
        assert crawler.requests_issued == 3
        assert crawler.retries == 0
        assert clock.now == 0.0

    def test_block_arrives_from_the_endpoint_that_serves_it(self):
        short, full = build_chain(3), build_chain(10)
        pool = EndpointPool(
            [
                EosRpcEndpoint(short, profile=EndpointProfile(name="short")),
                EosRpcEndpoint(full, profile=EndpointProfile(name="full")),
            ]
        )
        crawler = new_crawler(pool, max_attempts_per_block=3)
        block = crawler.fetch_block(108)
        assert block.height == 108
        assert crawler.retries == 0
        assert pool.health("short").failures > 0


def one_endpoint_crawler(chain, clock):
    """A crawler over one fault-free endpoint (rng seed 0) with the default backoff."""
    return new_crawler(
        build_pool(chain, profiles=[EndpointProfile(name="only")]),
        max_attempts_per_block=3,
        clock=clock,
    )


def first_latency():
    """The latency the seed-0 endpoint draws for its first request."""
    base_latency = EndpointProfile(name="only").base_latency
    return base_latency * (1.0 + 0.2 * DeterministicRng(0).random())


def fetch_under(spec, height=105):
    """Fetch ``height`` under the fault plan ``spec``; return the crawler."""
    chain = build_chain(10)
    crawler = one_endpoint_crawler(chain, SimulationClock(0.0))
    with faults.use_plan(faults.FaultPlan.parse(spec)):
        block = crawler.fetch_block(height)
    assert block.height == height
    return crawler


class TestRetrySchedule:
    """A throttle waits ``max(backoff, Retry-After)``; a failure waits the backoff."""

    def test_honours_retry_after_hint(self):
        crawler = fetch_under("crawler.fetch:mode=rate_limit:nth=1:retry_after=4")
        assert (crawler.retries, crawler.rate_limit_hits) == (1, 1)
        assert crawler.clock.now == pytest.approx(4.0 + first_latency())

    def test_hint_ignored_when_smaller(self):
        crawler = fetch_under("crawler.fetch:mode=rate_limit:nth=1:retry_after=0.05")
        assert crawler.clock.now == pytest.approx(crawler.backoff.delay(0) + first_latency())

    def test_no_hint(self):
        crawler = fetch_under("crawler.fetch:mode=rate_limit:nth=1:retry_after=0")
        assert crawler.clock.now == pytest.approx(crawler.backoff.delay(0) + first_latency())

    def test_transient_failure_costs_a_retry_and_backoff(self):
        crawler = fetch_under("crawler.fetch:mode=unavailable:nth=1")
        assert (crawler.retries, crawler.rate_limit_hits) == (1, 0)
        assert crawler.clock.now == pytest.approx(crawler.backoff.delay(0) + first_latency())

    def test_exhausted_attempts_back_off_exponentially(self):
        chain = build_chain(10)
        clock = SimulationClock(0.0)
        crawler = one_endpoint_crawler(chain, clock)
        plan = faults.FaultPlan.parse("crawler.fetch:mode=unavailable:every=1")
        with faults.use_plan(plan), pytest.raises(CollectionError):
            crawler.fetch_block(105)
        assert (crawler.requests_issued, crawler.retries) == (3, 3)
        # 0.2 + 0.4 + 0.8 under the default policy, and no latency: nothing arrived.
        assert clock.now == pytest.approx(sum(crawler.backoff.delay(n) for n in range(3)))
        assert clock.now == pytest.approx(1.4)
