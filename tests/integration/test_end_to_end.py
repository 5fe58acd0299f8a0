"""End-to-end integration: workload → RPC → crawler → store → analysis.

These tests run the entire pipeline exactly the way the paper's measurement
did — generate chain activity, serve it over the (simulated) RPC endpoints,
crawl it in reverse chronological order through a frame sink into the
columnar store, and run the analyses over the rows read back from it — and
check that the headline findings survive the full round trip.
"""

import pytest

from repro.common.records import ChainId, iter_transactions
from repro.common.rng import DeterministicRng
from repro.collection.crawler import BlockCrawler
from repro.collection.dataset import characterize_dataset
from repro.collection.endpoints import EndpointPool, shortlist_endpoints
from repro.collection.store import FrameSink, FrameStore
from repro.analysis.classify import category_distribution, tezos_category_distribution
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle, XrpValueAnalyzer
from repro.eos.rpc import EndpointProfile, EosRpcEndpoint
from repro.eos.workload import EosWorkloadConfig, EosWorkloadGenerator
from repro.scenarios import small_scenario
from repro.tezos.rpc import TezosRpcEndpoint
from repro.tezos.workload import TezosWorkloadConfig, TezosWorkloadGenerator
from repro.xrp.rpc import XrpRpcEndpoint
from repro.xrp.workload import XrpWorkloadConfig, XrpWorkloadGenerator


@pytest.fixture(scope="module")
def pipeline_scenario():
    return small_scenario(seed=17)


class TestEosPipeline:
    def test_crawl_and_classify(self, pipeline_scenario):
        generator = EosWorkloadGenerator(pipeline_scenario.eos)
        generator.generate()
        chain = generator.chain
        # The paper shortlists 6 of 32 advertised endpoints; model a smaller
        # advertised set with a few rate-limited stragglers.
        advertised = [
            EosRpcEndpoint(chain, profile=EndpointProfile(name=f"bp{i}", requests_per_second=200.0, burst=400.0), rng=DeterministicRng(i))
            for i in range(4)
        ] + [
            EosRpcEndpoint(chain, profile=EndpointProfile(name=f"slow{i}", requests_per_second=0.5, burst=1.0), rng=DeterministicRng(10 + i))
            for i in range(4)
        ]
        shortlisted = shortlist_endpoints(advertised, now=0.0, max_selected=4)
        assert all(endpoint.name.startswith("bp") for endpoint in shortlisted)
        store = FrameStore(chunk_rows=4_096)
        sink = FrameSink(store)
        crawler = BlockCrawler(EndpointPool(shortlisted), sink)
        head = crawler.discover_head()
        report = crawler.crawl_range(highest=head, lowest=chain.config.start_height)
        assert report.complete
        assert sink.block_count == len(chain.blocks)
        records = list(store.iter_records())
        categories = category_distribution(records)
        assert categories["Tokens"] == max(categories.values())
        characterization = characterize_dataset(store, chain=ChainId.EOS)
        assert characterization.transaction_count == sink.transaction_count
        assert characterization.compressed_gigabytes > 0.0


class TestTezosPipeline:
    def test_crawl_and_classify(self, pipeline_scenario):
        generator = TezosWorkloadGenerator(pipeline_scenario.tezos)
        generator.generate()
        chain = generator.chain
        endpoint = TezosRpcEndpoint(chain)
        store = FrameStore(chunk_rows=4_096)
        crawler = BlockCrawler(EndpointPool([endpoint]), FrameSink(store))
        head = crawler.discover_head()
        report = crawler.crawl_range(highest=head, lowest=chain.config.start_level)
        assert report.complete
        records = list(store.iter_records())
        categories = tezos_category_distribution(records)
        assert categories["consensus"] > 0.7


class TestXrpPipeline:
    def test_crawl_and_value_analysis(self, pipeline_scenario):
        generator = XrpWorkloadGenerator(pipeline_scenario.xrp)
        generator.generate()
        ledger = generator.ledger
        endpoint = XrpRpcEndpoint(ledger)
        store = FrameStore(chunk_rows=4_096)
        sink = FrameSink(store)
        crawler = BlockCrawler(EndpointPool([endpoint]), sink)
        head = crawler.discover_head()
        report = crawler.crawl_range(highest=head, lowest=ledger.config.start_index)
        assert report.complete
        records = list(store.iter_records())
        # The exchange-rate oracle is fed from the endpoint's data API, like
        # the paper's use of the Ripple Data API.
        rates = {}
        for currency, issuer in generator.valued_assets():
            rates[(currency, issuer)] = endpoint.exchange_rate(currency, issuer, now=0.0)
        oracle = ExchangeRateOracle(rates)
        decomposition = XrpValueAnalyzer(oracle).decompose(records)
        assert decomposition.total == sink.action_count
        assert decomposition.failed_share < 0.2
        assert decomposition.economic_value_share < 0.1


class TestCrossChainSummary:
    def test_summary_report_over_crawled_data(self, pipeline_scenario):
        eos = EosWorkloadGenerator(pipeline_scenario.eos)
        tezos = TezosWorkloadGenerator(pipeline_scenario.tezos)
        xrp = XrpWorkloadGenerator(pipeline_scenario.xrp)
        eos_blocks, tezos_blocks, xrp_blocks = eos.generate(), tezos.generate(), xrp.generate()
        oracle = ExchangeRateOracle.from_orderbook(xrp.ledger.orderbook)
        report = full_report(
            iter_transactions(eos_blocks + tezos_blocks + xrp_blocks), oracle=oracle
        ).summary()
        assert len(report.chains) == 3
        text = report.format_text()
        assert "EOS" in text and "TEZOS" in text and "XRP" in text
        # The three headline findings of the paper, at reduced scale.
        assert report.chains[ChainId.EOS].dominant_label == "category:Tokens"
        assert report.chains[ChainId.TEZOS].dominant_share > 0.7
        assert report.chains[ChainId.XRP].value_share < 0.1
