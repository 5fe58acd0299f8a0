"""Shared fixtures: scaled-down workloads generated once per test session.

Generating the two-week "small" scenario takes a couple of seconds per
chain, so the generated blocks (and the generators, which retain the chain
state the case-study analyses need) are session-scoped and shared by every
analysis and integration test.
"""

from __future__ import annotations

import pytest

from repro.analysis.clustering import AccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.common.columns import TxFrame
from repro.common.records import ChainId, iter_transactions
from repro.eos.workload import EosWorkloadGenerator
from repro.scenarios import small_scenario
from repro.tezos.workload import TezosWorkloadGenerator
from repro.xrp.workload import XrpWorkloadGenerator

from tests.fixtures import copy_v1_store, copy_v2_store
from tests.support import ColdChild, run_main


@pytest.fixture(scope="session")
def scenario():
    """The two-week scenario straddling the EIDOS launch and a spam wave."""
    return small_scenario(seed=7)


@pytest.fixture(scope="session")
def eos_generator(scenario):
    generator = EosWorkloadGenerator(scenario.eos)
    generator.blocks = generator.generate()
    return generator


@pytest.fixture(scope="session")
def eos_blocks(eos_generator):
    return eos_generator.blocks


@pytest.fixture(scope="session")
def eos_records(eos_blocks):
    return list(iter_transactions(eos_blocks))


@pytest.fixture(scope="session")
def tezos_generator(scenario):
    generator = TezosWorkloadGenerator(scenario.tezos)
    generator.blocks = generator.generate()
    return generator


@pytest.fixture(scope="session")
def tezos_blocks(tezos_generator):
    return tezos_generator.blocks


@pytest.fixture(scope="session")
def tezos_records(tezos_blocks):
    return list(iter_transactions(tezos_blocks))


@pytest.fixture(scope="session")
def xrp_generator(scenario):
    generator = XrpWorkloadGenerator(scenario.xrp)
    generator.blocks = generator.generate()
    return generator


@pytest.fixture(scope="session")
def xrp_blocks(xrp_generator):
    return xrp_generator.blocks


@pytest.fixture(scope="session")
def xrp_records(xrp_blocks):
    return list(iter_transactions(xrp_blocks))


@pytest.fixture(scope="session")
def eos_frame(eos_records):
    """The EOS stream as a columnar frame: what every accumulator runs on."""
    return TxFrame.from_records(eos_records)


@pytest.fixture(scope="session")
def tezos_frame(tezos_records):
    return TxFrame.from_records(tezos_records)


@pytest.fixture(scope="session")
def xrp_frame(xrp_records):
    return TxFrame.from_records(xrp_records)


@pytest.fixture(scope="session")
def eos_figures(eos_frame):
    """The report's EOS figures, read by name (``eos_figures["top_senders"]``)."""
    return full_report(eos_frame).chains[ChainId.EOS]


@pytest.fixture(scope="session")
def tezos_figures(tezos_frame):
    return full_report(tezos_frame).chains[ChainId.TEZOS]


@pytest.fixture(scope="session")
def xrp_figures(xrp_frame, xrp_generator):
    """The report's XRP figures, with the ledger's oracle and cluster map."""
    ledger = xrp_generator.ledger
    oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
    report = full_report(xrp_frame, oracle, AccountClusterer(ledger.accounts))
    return report.chains[ChainId.XRP]


@pytest.fixture
def v1_store_dir(tmp_path):
    """A writable copy of the checked-in v1 (gzip-JSON) fixture store."""
    return copy_v1_store(tmp_path / "store_v1")


@pytest.fixture
def v2_store_dir(tmp_path):
    """A writable copy of the checked-in v2 (binary, whole-metadata) fixture store."""
    return copy_v2_store(tmp_path / "store_v2")


@pytest.fixture(scope="session")
def live_tail_build(tmp_path_factory):
    """A ``--cache`` root holding ``live_tail`` seed 7, built by a cold CLI child.

    The child's ``sys.modules`` rides along, so the import-graph checks of
    a cold build cost no second build.
    """
    root = str(tmp_path_factory.mktemp("live-tail-cache"))
    modules, stderr = run_main(["report", "--scale", "live_tail", "--cache", root, "--json"])
    assert "(generated in" in stderr
    return ColdChild(root, modules)


@pytest.fixture(scope="session")
def live_tail_cache(live_tail_build):
    """The ``--cache`` root of :func:`live_tail_build`.

    The warm-path tests (import graph, per-command smoke) run children over
    it; they may add chunk-state cache entries but must not rewrite the store.
    """
    return live_tail_build.path
