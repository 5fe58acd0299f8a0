"""The record types of the report path: tuples, or plain classes by hand.

An all-hit ``repro report`` costs interpreter start-up plus the bodies of the
modules it loads, and creating a ``@dataclass`` class costs about a
millisecond.  So every record type defined in a module that report loads is
a ``typing.NamedTuple`` — or, where it is assigned to after construction,
overrides tuple behaviour or defaults a field to a fresh container, a plain
class with a hand-written ``__init__``.
Each case here checks what the dataclasses they replaced guaranteed: a
pickle round trip gives an equal object (pool workers are shipped
``FigureConfig`` and ``CacheContext``), the ``repr`` is the dataclass one
(pinned from the last commit that had them; an empty default mapping prints
as ``{}``, not as an object address), two instances built from the
defaults share no mutable container, and an immutable record rejects
attribute assignment.  The sweep fails if one of those modules defines a
record type no case covers, or a dataclass.
"""

from __future__ import annotations

import importlib
import pickle
from typing import Any, Callable, List, NamedTuple

import pytest

from repro.analysis.accounts import AccountActivity, SenderProfile
from repro.analysis.airdrop import AirdropReport, BoomerangClaim, CongestionReport
from repro.analysis.classify import TypeDistributionRow
from repro.analysis.clustering import AccountCluster
from repro.analysis.engine import FigureSpec, TxStats
from repro.analysis.flows import ValueFlow, ValueFlowReport
from repro.analysis.governance import GovernanceReport, PeriodSummary
from repro.analysis.report import (
    ChainFigures,
    ChainSummary,
    FigureConfig,
    FullReport,
    SummaryReport,
)
from repro.analysis.statecache import CacheContext, EntryKey
from repro.analysis.throughput import ThroughputSeries
from repro.analysis.value import (
    IouRateRow,
    ThroughputDecomposition,
    ValueDistribution,
)
from repro.analysis.washtrading import TradeObservation, WashTradingReport
from repro.cli.dataset import Dataset, StoredDataset
from repro.collection.store import StoredFrameChunk
from repro.common.compression import CompressionStats
from repro.common.faults import FaultAction, FaultRule
from repro.common.records import BlockRecord, ChainId, TransactionRecord
from repro.tezos.governance import VotingPeriodKind

#: Every analysis module, and the other modules an all-hit report loads
#: that define record types.
RECORD_MODULES = (
    "repro.analysis.accounts",
    "repro.analysis.airdrop",
    "repro.analysis.classify",
    "repro.analysis.clustering",
    "repro.analysis.containers",
    "repro.analysis.engine",
    "repro.analysis.flows",
    "repro.analysis.governance",
    "repro.analysis.parallel",
    "repro.analysis.report",
    "repro.analysis.statecache",
    "repro.analysis.throughput",
    "repro.analysis.value",
    "repro.analysis.vectorized",
    "repro.analysis.washtrading",
    "repro.cli.dataset",
    "repro.collection.store",
    "repro.common.compression",
    "repro.common.faults",
    "repro.common.records",
)

#: The records that are assigned to after construction, override tuple
#: behaviour or default a field to a fresh container: plain classes.
PLAIN_CLASSES = (
    ChainFigures,
    FaultRule,
    FullReport,
    StoredFrameChunk,
    SummaryReport,
    ThroughputSeries,
)


def no_accumulator(chain, config):
    """A picklable :attr:`FigureSpec.factory` for the spec case."""
    return None


def _record(tx_id: str = "t1") -> TransactionRecord:
    return TransactionRecord(ChainId.XRP, tx_id, 1, 0.5, "Payment", "ra", "rb")


def _period() -> PeriodSummary:
    return PeriodSummary(VotingPeriodKind.EXPLORATION, 3, 0, 1, 0.5)


class Case(NamedTuple):
    make: Callable[[], Any]
    expected_repr: str


CASES = {
    "AccountActivity": Case(
        lambda: AccountActivity("a", 3, 0.5, (("transfer", 3, 1.0),)),
        "AccountActivity(account='a', total=3, share_of_chain=0.5, "
        "type_breakdown=(('transfer', 3, 1.0),))",
    ),
    "SenderProfile": Case(
        lambda: SenderProfile("s", 3, 2, 1.5, 0.5, (("r", 2, 0.6),)),
        "SenderProfile(sender='s', sent_count=3, unique_receivers=2, "
        "mean_per_receiver=1.5, stdev_per_receiver=0.5, top_receivers=(('r', 2, 0.6),))",
    ),
    "BoomerangClaim": Case(
        lambda: BoomerangClaim("t", "c", 0.0, 1.0, 2.0),
        "BoomerangClaim(transaction_id='t', claimer='c', timestamp=0.0, "
        "eos_amount=1.0, eidos_granted=2.0)",
    ),
    "AirdropReport": Case(
        lambda: AirdropReport(0.0, 1, 2, 3, 0.9, 4.0, 1),
        "AirdropReport(launch_timestamp=0.0, claim_count=1, total_actions=2, "
        "post_launch_actions=3, boomerang_action_share_post_launch=0.9, "
        "traffic_multiplier=4.0, unique_claimers=1)",
    ),
    "CongestionReport": Case(
        lambda: CongestionReport(1, 1, 1.0, 2.0, 1.0),
        "CongestionReport(samples=1, congested_samples=1, congested_share=1.0, "
        "peak_cpu_price=2.0, baseline_cpu_price=1.0)",
    ),
    "TypeDistributionRow": Case(
        lambda: TypeDistributionRow(ChainId.XRP, "Payments", "Payment", 3, 0.5),
        "TypeDistributionRow(chain=<ChainId.XRP: 'xrp'>, group='Payments', "
        "type_name='Payment', count=3, share=0.5)",
    ),
    "AccountCluster": Case(
        lambda: AccountCluster("c", ("a", "b")),
        "AccountCluster(name='c', addresses=('a', 'b'))",
    ),
    "FigureSpec": Case(
        lambda: FigureSpec("toy", (ChainId.EOS,), no_accumulator),
        "FigureSpec(name='toy', chains=(<ChainId.EOS: 'eos'>,), factory=<function "
        "no_accumulator at ADDRESS>, json_key=None, to_json=None, render=None)",
    ),
    "TxStats": Case(
        lambda: TxStats(10, 8, 0.0, 5.0),
        "TxStats(action_count=10, transaction_count=8, first_timestamp=0.0, "
        "last_timestamp=5.0)",
    ),
    "ValueFlow": Case(
        lambda: ValueFlow("a", "b", "XRP", 1.5, 2),
        "ValueFlow(sender_cluster='a', receiver_cluster='b', currency='XRP', "
        "xrp_value=1.5, payment_count=2)",
    ),
    "ValueFlowReport": Case(
        lambda: ValueFlowReport(
            [ValueFlow("a", "b", "XRP", 1.5, 2)], 1.5, {"a": 1.5}, {"b": 1.5}, {}, {}
        ),
        "ValueFlowReport(flows=[ValueFlow(sender_cluster='a', receiver_cluster='b', "
        "currency='XRP', xrp_value=1.5, payment_count=2)], total_xrp_value=1.5, "
        "by_sender={'a': 1.5}, by_receiver={'b': 1.5}, by_currency={}, "
        "currency_face_value={})",
    ),
    "PeriodSummary": Case(
        _period,
        "PeriodSummary(period=<VotingPeriodKind.EXPLORATION: 'exploration'>, yay=3, "
        "nay=0, passes=1, participation=0.5)",
    ),
    "GovernanceReport": Case(
        lambda: GovernanceReport({"p": 3}, "p", 0.5, _period(), _period(), 2),
        "GovernanceReport(proposal_votes={'p': 3}, winning_proposal='p', "
        "proposal_participation=0.5, exploration=PeriodSummary(period="
        "<VotingPeriodKind.EXPLORATION: 'exploration'>, yay=3, nay=0, passes=1, "
        "participation=0.5), promotion=PeriodSummary(period=<VotingPeriodKind."
        "EXPLORATION: 'exploration'>, yay=3, nay=0, passes=1, participation=0.5), "
        "governance_operation_count=2)",
    ),
    "ChainSummary": Case(
        lambda: ChainSummary(ChainId.EOS, 1, 2, 3.0, 0.5, "category:Tokens", 0.9),
        "ChainSummary(chain=<ChainId.EOS: 'eos'>, transaction_count=1, action_count=2, "
        "duration_seconds=3.0, tps=0.5, dominant_label='category:Tokens', "
        "dominant_share=0.9, value_share=None)",
    ),
    "SummaryReport": Case(SummaryReport, "SummaryReport(chains={})"),
    "FigureConfig": Case(
        FigureConfig,
        "FigureConfig(bounds=None, oracle=None, clusterer=None, bin_seconds=21600, "
        "top_limit=10)",
    ),
    "ChainFigures": Case(
        lambda: ChainFigures(ChainId.TEZOS, {"tx_stats": TxStats(1, 1, 0.0, 1.0)}),
        "ChainFigures(chain=<ChainId.TEZOS: 'tezos'>, result={'tx_stats': "
        "TxStats(action_count=1, transaction_count=1, first_timestamp=0.0, "
        "last_timestamp=1.0)})",
    ),
    "FullReport": Case(FullReport, "FullReport(chains={})"),
    "EntryKey": Case(
        lambda: EntryKey("0000abcd", "cfg", "exact", "v2"),
        "EntryKey(prefix='0000abcd', config='cfg', mode='exact', "
        "chunk_format='v2')",
    ),
    "CacheContext": Case(
        lambda: CacheContext("cache", "cfg"),
        "CacheContext(directory='cache', config='cfg')",
    ),
    "ThroughputSeries": Case(
        lambda: ThroughputSeries(21600, 0.0, ("consensus",)),
        "ThroughputSeries(bin_seconds=21600, start=0.0, categories=('consensus',), bins=[])",
    ),
    "ThroughputDecomposition": Case(
        lambda: ThroughputDecomposition(10, 1, 9, 5, 1, 4, 3, 1, 2, 1),
        "ThroughputDecomposition(total=10, failed=1, successful=9, payments=5, "
        "payments_with_value=1, payments_without_value=4, offers=3, offers_exchanged=1, "
        "offers_not_exchanged=2, others=1)",
    ),
    "ValueDistribution": Case(
        lambda: ValueDistribution(2, 3.0, 1.0, 2.0, 1.5, 2.0, 2.0),
        "ValueDistribution(count=2, total_xrp=3.0, minimum=1.0, maximum=2.0, p50=1.5, "
        "p90=2.0, p99=2.0)",
    ),
    "IouRateRow": Case(
        lambda: IouRateRow("BTC", "rI", "Bitstamp", 36050.0),
        "IouRateRow(currency='BTC', issuer='rI', issuer_name='Bitstamp', "
        "average_rate=36050.0)",
    ),
    "TradeObservation": Case(
        lambda: TradeObservation("a", "b", "EOS", 1.0, 0.0),
        "TradeObservation(buyer='a', seller='b', symbol='EOS', amount=1.0, timestamp=0.0)",
    ),
    "WashTradingReport": Case(
        lambda: WashTradingReport("whaleex", 3, ("a",), 0.9, 0.8, {"a": 0.8}, {"a": {}}),
        "WashTradingReport(contract='whaleex', trade_count=3, top_accounts=('a',), "
        "top_accounts_trade_share=0.9, self_trade_share_overall=0.8, "
        "self_trade_share_by_account={'a': 0.8}, net_balance_change_by_account={'a': {}})",
    ),
    "Dataset": Case(
        lambda: Dataset(None, None, None, True, 0.5),
        "Dataset(frame=None, oracle=None, clusterer=None, from_cache=True, "
        "build_seconds=0.5)",
    ),
    "StoredDataset": Case(
        lambda: StoredDataset("d", 7, None, None, True, 0.5, None),
        "StoredDataset(directory='d', rows=7, oracle=None, clusterer=None, "
        "from_cache=True, build_seconds=0.5, store=None)",
    ),
    "StoredFrameChunk": Case(
        lambda: StoredFrameChunk(0, 10, CompressionStats(5, 3, 1), {}, {}, {}, {}),
        "StoredFrameChunk(chunk_id=0, row_count=10, stats=CompressionStats(raw_bytes=5, "
        "compressed_bytes=3, chunk_count=1), blob=None, path=None, heights={}, "
        "times={}, chain_rows={}, pool_deltas={})",
    ),
    "CompressionStats": Case(
        CompressionStats,
        "CompressionStats(raw_bytes=0, compressed_bytes=0, chunk_count=0)",
    ),
    "FaultRule": Case(
        lambda: FaultRule("store.chunk_write", "torn"),
        "FaultRule(point='store.chunk_write', mode='torn', nth=None, every=None, "
        "probability=None, window=None, times=None, params={}, hits=0, fires=0, "
        "_rng=None)",
    ),
    "FaultAction": Case(
        lambda: FaultAction("store.chunk_write", "torn", {}, FaultRule("p", "m")),
        "FaultAction(point='store.chunk_write', mode='torn', params={}, "
        "rule=FaultRule(point='p', mode='m', nth=None, every=None, probability=None, "
        "window=None, times=None, params={}, hits=0, fires=0, _rng=None))",
    ),
    "TransactionRecord": Case(
        _record,
        "TransactionRecord(chain=<ChainId.XRP: 'xrp'>, transaction_id='t1', "
        "block_height=1, timestamp=0.5, type='Payment', sender='ra', receiver='rb', "
        "contract='', amount=0.0, currency='', issuer='', fee=0.0, success=True, "
        "error_code='', metadata={})",
    ),
    "BlockRecord": Case(
        lambda: BlockRecord(ChainId.XRP, 1, 0.5, "consensus", (_record(),)),
        "BlockRecord(chain=<ChainId.XRP: 'xrp'>, height=1, timestamp=0.5, "
        "producer='consensus', transactions=(TransactionRecord(chain=<ChainId.XRP: "
        "'xrp'>, transaction_id='t1', block_height=1, timestamp=0.5, type='Payment', "
        "sender='ra', receiver='rb', contract='', amount=0.0, currency='', issuer='', "
        "fee=0.0, success=True, error_code='', metadata={}),), block_id='', "
        "previous_id='', metadata={})",
    ),
}


def record_types() -> List[type]:
    """Every public NamedTuple or plain record class the modules define."""
    found = []
    for name in RECORD_MODULES:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if not isinstance(value, type) or value.__module__ != name:
                continue
            if value.__name__.startswith("_"):
                continue
            if (issubclass(value, tuple) and hasattr(value, "_fields")) or value in PLAIN_CLASSES:
                found.append(value)
    return found


def _stable(text: str) -> str:
    """A ``repr`` with function addresses masked."""
    head, marker, tail = text.partition(" at 0x")
    if not marker:
        return text
    return head + " at ADDRESS>" + tail.partition(">")[2]


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_round_trip_gives_an_equal_record(name):
    record = CASES[name].make()
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_repr(name):
    case = CASES[name]
    assert _stable(repr(case.make())) == case.expected_repr


@pytest.mark.parametrize("name", sorted(CASES))
def test_default_built_records_share_no_mutable_container(name):
    first, second = CASES[name].make(), CASES[name].make()
    for attribute, value in vars_of(first).items():
        if isinstance(value, (list, dict, set, bytearray)):
            assert value is not vars_of(second)[attribute], attribute


@pytest.mark.parametrize("name", sorted(CASES))
def test_immutable_records_reject_attribute_assignment(name):
    record = CASES[name].make()
    if type(record) in PLAIN_CLASSES:
        assert not isinstance(record, tuple)
        return
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


def vars_of(record: Any) -> dict:
    """A record's fields by name, tuple or plain class."""
    if isinstance(record, tuple):
        return record._asdict()
    slots = getattr(type(record), "__slots__", None)
    if slots is not None:
        return {name: getattr(record, name) for name in slots}
    return vars(record)


def test_every_record_type_has_a_case_and_none_is_a_dataclass():
    types = record_types()
    assert sorted(cls.__name__ for cls in types) == sorted(CASES)
    for name in RECORD_MODULES:
        module = importlib.import_module(name)
        assert not [
            value.__name__
            for value in vars(module).values()
            if isinstance(value, type)
            and value.__module__ == name
            and hasattr(value, "__dataclass_fields__")
        ]
