"""The record types of the generation path: tuples, or plain classes by hand.

Generation builds these once per row, per transaction or per amount, and a
``@dataclass`` pays for that: a frozen one one ``object.__setattr__`` per
field, and a ``__post_init__`` call where it validates.  So each is a
``typing.NamedTuple`` — or, where something assigns to it after
construction or it overrides tuple behaviour (``IouAmount``'s ``+``), a
plain ``__slots__`` class with a hand-written ``__init__``, ``__eq__`` and
``__repr__``.  Each case checks what the dataclass it replaced guaranteed:
the ``repr`` (pinned from the last commit that had the dataclasses), a
pickle round trip to an equal object, equal objects hashing equal (or, for
a mutable class, not hashing at all), two default-built instances sharing
no mutable container, and the ``ChainError`` a validating type raised.
``tests/test_report_records.py`` holds the same rule for the report path.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, NamedTuple

import pytest

from repro.common.errors import ChainError
from repro.eos.actions import make_transfer
from repro.eos.chain import EosTransaction
from repro.eos.contracts import ContractResult, DexTrade
from repro.eos.resources import CongestionSample, ResourceUsage
from repro.tezos.baking import BakingRight
from repro.tezos.operations import OperationKind, TezosOperation
from repro.xrp.amounts import IouAmount
from repro.xrp.orderbook import ExchangeExecution, Offer
from repro.xrp.transactions import (
    AppliedTransaction,
    ResultCode,
    TransactionType,
    XrpTransaction,
)

#: The types that are assigned to after construction or override tuple
#: behaviour: plain ``__slots__`` classes.
PLAIN_CLASSES = (ContractResult, IouAmount, Offer, ResourceUsage)


def _usd(value: float = 2.0) -> IouAmount:
    return IouAmount("USD", value, "rGateway")


class Case(NamedTuple):
    #: Builds an instance with every field that has a default left at it.
    make_default: Callable[[], Any]
    #: Builds an instance with every field set.
    make_full: Callable[[], Any]
    expected_repr: str


CASES = {
    EosTransaction: Case(
        lambda: EosTransaction("t1", (make_transfer("eosio.token", "a", "b", 1.0, "EOS"),)),
        lambda: EosTransaction("t1", (make_transfer("eosio.token", "a", "b", 1.0, "EOS"),), 300.0, 50.0),
        "EosTransaction(transaction_id='t1', actions=(EosAction(contract='eosio.token', "
        "name='transfer', actor='a', receiver='eosio.token', data={'from': 'a', 'to': 'b', "
        "'quantity': 1.0, 'symbol': 'EOS', 'memo': ''}),), cpu_us=300.0, net_bytes=50.0)",
    ),
    ContractResult: Case(
        ContractResult,
        lambda: ContractResult(
            False, [make_transfer("eosio.token", "a", "b", 1.0, "EOS")], {"error": "no"}
        ),
        "ContractResult(applied=False, inline_actions=[EosAction(contract='eosio.token', "
        "name='transfer', actor='a', receiver='eosio.token', data={'from': 'a', 'to': 'b', "
        "'quantity': 1.0, 'symbol': 'EOS', 'memo': ''})], notes={'error': 'no'})",
    ),
    ResourceUsage: Case(
        ResourceUsage,
        lambda: ResourceUsage(200.0, 100.0),
        "ResourceUsage(cpu_us=200.0, net_bytes=100.0)",
    ),
    DexTrade: Case(
        lambda: DexTrade("a", "b", "EOS", 1.0, 2.0, 3.0),
        lambda: DexTrade("a", "b", "EOS", 1.0, 2.0, 3.0),
        "DexTrade(buyer='a', seller='b', symbol='EOS', amount=1.0, price=2.0, timestamp=3.0)",
    ),
    CongestionSample: Case(
        lambda: CongestionSample(1.0, 0.5, False, 0.0001),
        lambda: CongestionSample(1.0, 0.5, False, 0.0001),
        "CongestionSample(timestamp=1.0, utilization=0.5, congested=False, cpu_price=0.0001)",
    ),
    IouAmount: Case(
        lambda: IouAmount("XRP", 1.5),
        _usd,
        "IouAmount(currency='USD', value=2.0, issuer='rGateway')",
    ),
    AppliedTransaction: Case(
        lambda: AppliedTransaction(
            XrpTransaction(TransactionType.ACCOUNT_SET, "rA"), ResultCode.SUCCESS, 1e-05
        ),
        lambda: AppliedTransaction(
            XrpTransaction(TransactionType.PAYMENT, "rA", "rB", _usd()),
            ResultCode.PATH_DRY,
            1e-05,
            [ExchangeExecution(0.0, "rB", "rA", _usd(), IouAmount.native(4.0))],
            3,
            _usd(),
        ),
        "AppliedTransaction(transaction=XrpTransaction(type=<TransactionType.PAYMENT: "
        "'Payment'>, account='rA', destination='rB', amount=IouAmount(currency='USD', "
        "value=2.0, issuer='rGateway'), taker_gets=None, taker_pays=None, offer_sequence=0, "
        "limit=None, destination_tag=None, fee_drops=10, finish_after=0.0, escrow_id=0, "
        "data={}), result=<ResultCode.PATH_DRY: 'tecPATH_DRY'>, fee_xrp=1e-05, "
        "executions=[ExchangeExecution(timestamp=0.0, buyer='rB', seller='rA', "
        "sold=IouAmount(currency='USD', value=2.0, issuer='rGateway'), "
        "bought=IouAmount(currency='XRP', value=4.0, issuer=''))], offer_id=3, "
        "delivered=IouAmount(currency='USD', value=2.0, issuer='rGateway'))",
    ),
    Offer: Case(
        lambda: Offer(1, "rA", _usd(), IouAmount.native(4.0)),
        lambda: Offer(1, "rA", _usd(), IouAmount.native(4.0), 5.0, 1.0, 2.0, True),
        "Offer(offer_id=1, owner='rA', taker_gets=IouAmount(currency='USD', value=2.0, "
        "issuer='rGateway'), taker_pays=IouAmount(currency='XRP', value=4.0, issuer=''), "
        "created_at=5.0, filled_gets=1.0, filled_pays=2.0, cancelled=True)",
    ),
    ExchangeExecution: Case(
        lambda: ExchangeExecution(0.0, "rB", "rA", _usd(), IouAmount.native(4.0)),
        lambda: ExchangeExecution(0.0, "rB", "rA", _usd(), IouAmount.native(4.0)),
        "ExchangeExecution(timestamp=0.0, buyer='rB', seller='rA', sold=IouAmount("
        "currency='USD', value=2.0, issuer='rGateway'), bought=IouAmount(currency='XRP', "
        "value=4.0, issuer=''))",
    ),
    TezosOperation: Case(
        lambda: TezosOperation(OperationKind.REVEAL, "tz1a"),
        lambda: TezosOperation(OperationKind.TRANSACTION, "tz1a", "tz1b", 2.0, 0.001, {"k": 1}),
        "TezosOperation(kind=<OperationKind.TRANSACTION: 'Transaction'>, source='tz1a', "
        "destination='tz1b', amount_xtz=2.0, fee_xtz=0.001, data={'k': 1})",
    ),
    BakingRight: Case(
        lambda: BakingRight(7, "tz1baker"),
        lambda: BakingRight(7, "tz1baker", 2),
        "BakingRight(level=7, baker='tz1baker', priority=2)",
    ),
}

TYPES = sorted(CASES, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in TYPES]


def fields_of(record: Any) -> dict:
    """A record's fields by name, tuple or plain class."""
    if isinstance(record, tuple):
        return record._asdict()
    return {name: getattr(record, name) for name in type(record).__slots__}


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_is_a_tuple_or_a_slotted_class_and_not_a_dataclass(cls):
    assert not hasattr(cls, "__dataclass_fields__")
    record = CASES[cls].make_full()
    if cls in PLAIN_CLASSES:
        assert not isinstance(record, tuple)
        assert "__slots__" in vars(cls) and not hasattr(record, "__dict__")
    else:
        assert isinstance(record, tuple) and hasattr(cls, "_fields")
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls):
    assert repr(CASES[cls].make_full()) == CASES[cls].expected_repr


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
@pytest.mark.parametrize("build", ["make_default", "make_full"])
def test_pickle_round_trip_gives_an_equal_record(cls, build):
    record = getattr(CASES[cls], build)()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record and not copy != record


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls):
    first, second = CASES[cls].make_full(), CASES[cls].make_full()
    assert first == second and first is not second
    if cls in PLAIN_CLASSES and cls is not IouAmount:
        # Mutable, as the non-frozen dataclasses were: never hashable.
        with pytest.raises(TypeError):
            hash(first)
    elif all(_hashable(value) for value in fields_of(first).values()):
        assert hash(first) == hash(second)
    if cls in PLAIN_CLASSES:
        changed = CASES[cls].make_full()
        name = type(changed).__slots__[1]
        object.__setattr__(changed, name, "different")
        assert changed != first


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_default_built_records_share_no_mutable_container(cls):
    first, second = CASES[cls].make_default(), CASES[cls].make_default()
    for name, value in fields_of(first).items():
        if isinstance(value, (list, dict, set, bytearray)):
            assert value is not fields_of(second)[name], name


def test_an_eos_transaction_still_needs_an_action():
    with pytest.raises(ChainError, match="at least one action"):
        EosTransaction("empty", ())
    with pytest.raises(ChainError, match="at least one action"):
        EosTransaction(transaction_id="empty", actions=())


@pytest.mark.parametrize(
    "arguments, message",
    [
        (("", 1.0), "must not be empty"),
        (("XRP", 1.0, "rIssuer"), "cannot have an issuer"),
        (("USD", 1.0), "requires an issuer"),
    ],
)
def test_an_iou_amount_still_validates_its_asset(arguments, message):
    with pytest.raises(ChainError, match=message):
        IouAmount(*arguments)


def test_iou_amount_arithmetic_stays_per_asset():
    assert _usd(2.0) + _usd(3.0) == _usd(5.0)
    assert _usd(5.0) - _usd(3.0) == _usd(2.0)
    with pytest.raises(ChainError, match="different assets"):
        _usd() + IouAmount.native(1.0)
    assert _usd() != ("USD", 2.0, "rGateway")
    assert {_usd(): 1}[_usd()] == 1
