"""Every figure accumulator's ``config_signature()`` tuple, pinned literally.

A signature names the state it guards twice over: digested into the file
name of every state-cache entry (``factories_digest``) and stored beside
every chain's states in ``checkpoint.snap``.  Changing one — even to a tuple
that means the same — turns every existing cache entry into a miss and every
checkpoint into a full rescan, so the tuples are pinned here; a deliberate
change re-pins them in the same commit that says why.
"""

from __future__ import annotations

import pytest

from repro.analysis.accounts import SenderCountsAccumulator, SenderReceiverPairsAccumulator
from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.report import FIGURES, FigureConfig, figure_factory
from repro.analysis.statecache import factories_digest
from repro.analysis.value import ExchangeRateOracle
from repro.common.records import ChainId

ORACLE = ExchangeRateOracle({("USD", "rIssuer"): 0.25, ("BTC", "rIssuer"): 40_000.0})
CLUSTERER = StaticAccountClusterer({"rA": "exchange", "rB": "exchange"})
BOUNDS = (1.5e9, 1.5e9 + 86_400.0)

#: Digests of the three fixed tables above.
CATEGORIES = "b117a4204b041f91"
RATES = "d983abe449f5ce4c"
CLUSTERS = "b97637227ae84b5b"

SERIES = ("ThroughputSeriesAccumulator", "throughput_series", 21600, 1.5e9)

PINNED = {
    ("eos", "type_distribution"): ("TypeDistributionAccumulator", "type_distribution"),
    ("tezos", "type_distribution"): ("TypeDistributionAccumulator", "type_distribution"),
    ("xrp", "type_distribution"): ("TypeDistributionAccumulator", "type_distribution"),
    ("eos", "tx_stats"): ("TxStatsAccumulator", "tx_stats"),
    ("tezos", "tx_stats"): ("TxStatsAccumulator", "tx_stats"),
    ("xrp", "tx_stats"): ("TxStatsAccumulator", "tx_stats"),
    ("eos", "throughput_series"): SERIES + ("repro.analysis.report.eos_figure3_key_columns",),
    ("tezos", "throughput_series"): SERIES
    + ("repro.analysis.report.tezos_figure3_key_columns",),
    ("xrp", "throughput_series"): SERIES + ("repro.analysis.report.xrp_figure3_key_columns",),
    ("eos", "top_senders"): ("AccountActivityAccumulator", "top_senders", "sender", 10),
    ("tezos", "top_senders"): ("AccountActivityAccumulator", "top_senders", "sender", 10),
    ("xrp", "top_senders"): ("AccountActivityAccumulator", "top_senders", "sender", 10),
    ("eos", "category_distribution"): (
        "CategoryDistributionAccumulator",
        "category_distribution",
        CATEGORIES,
    ),
    ("eos", "top_receivers"): ("AccountActivityAccumulator", "top_receivers", "receiver", 10),
    ("eos", "wash_trading"): ("WashTradeAccumulator", "wash_trading", "whaleextrust", 5),
    ("tezos", "tezos_category_distribution"): (
        "TezosCategoryAccumulator",
        "tezos_category_distribution",
    ),
    ("xrp", "xrp_decomposition"): ("XrpDecompositionAccumulator", "xrp_decomposition", RATES),
    ("xrp", "value_distribution"): (
        "ValueDistributionAccumulator",
        "value_distribution",
        RATES,
    ),
    ("xrp", "value_flows"): ("ValueFlowAccumulator", "value_flows", False, RATES, CLUSTERS),
}


def _config() -> FigureConfig:
    return FigureConfig(BOUNDS, ORACLE, CLUSTERER)


def test_every_figure_of_every_chain_is_pinned():
    built = {(chain.value, spec.name) for spec in FIGURES for chain in spec.chains}
    assert built == set(PINNED)


@pytest.mark.parametrize(
    "chain, figure", list(PINNED), ids=[f"{chain}-{figure}" for chain, figure in PINNED]
)
def test_a_figure_signature_is_byte_for_byte_pinned(chain, figure):
    (spec,) = [spec for spec in FIGURES if spec.name == figure]
    signature = spec.factory(ChainId(chain), _config()).config_signature()
    assert signature == PINNED[chain, figure]
    assert repr(signature) == repr(PINNED[chain, figure])


@pytest.mark.parametrize(
    "accumulator, pinned",
    [
        (SenderReceiverPairsAccumulator, ("SenderReceiverPairsAccumulator", "top_sender_receiver_pairs", 5, 5)),
        (SenderCountsAccumulator, ("SenderCountsAccumulator", "sender_counts")),
    ],
    ids=["sender-receiver-pairs", "sender-counts"],
)  # fmt: skip
def test_an_account_table_signature_is_pinned(accumulator, pinned):
    assert accumulator().config_signature() == pinned


def test_the_report_factories_digest_is_pinned():
    """The digest every state-cache entry name of these three chains carries."""
    factories = {
        chain.value: figure_factory(chain, BOUNDS, ORACLE, CLUSTERER) for chain in ChainId
    }
    assert factories_digest(factories) == "0d9ca133d10c79fd"
