"""The simulator branches the generation golden digest never reaches.

``tests/collection/test_generation_golden.py`` pins the bytes of a whole
``live_tail`` store, but no registered scenario produces a failed EOS
contract action, an action to an undeployed contract or a CPU rejection, and
``live_tail`` emits no Tezos ballot or proposal (only the 92-day scenarios
do), so the digest cannot see how those records are built.  Each case here
drives one such branch through the public block-production call and compares
every field of every record it yields — metadata keys in order included,
since the store writes them in that order — with the values the simulators
produced before their record types stopped being dataclasses (the Tezos
governance rows: before the amendment state machine was deleted).
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.eos.actions import EosAction, make_transfer
from repro.eos.chain import EosChain, EosTransaction
from repro.eos.contracts import EidosContract, TokenContract
from repro.tezos.baking import ROLL_SIZE_XTZ
from repro.tezos.chain import TezosChain
from repro.tezos.operations import (
    make_ballot,
    make_proposal,
    make_reveal,
    make_transaction,
)
from repro.xrp.amounts import IouAmount
from repro.xrp.ledger import XrpLedger
from repro.xrp.transactions import TransactionType, XrpTransaction


def fields(record: TransactionRecord) -> Tuple:
    """Every field of ``record``, its metadata as an ordered item list."""
    return tuple(record[:-1]) + (list(record.metadata.items()),)


def expect(*values, metadata) -> Tuple:
    return tuple(values) + (list(metadata),)


def eos_row(tx_id, type_, sender, receiver, amount, currency, success, metadata):
    return expect(
        ChainId.EOS, tx_id, 1, 0.0, type_, sender, receiver, receiver,
        amount, currency, "", 0.0, success, "", metadata=metadata,
    )


def xrp_row(tx_id, type_, sender, receiver, amount, currency, issuer, error_code, metadata):
    return expect(
        ChainId.XRP, tx_id, 1, 0.0, type_, sender, receiver, "",
        amount, currency, issuer, 1e-05, not error_code, error_code, metadata=metadata,
    )


def tezos_row(number, type_, sender, receiver, amount, success, metadata):
    return expect(
        ChainId.TEZOS, f"xtzop{number:012d}", 1, 0.0, type_, sender, receiver, "",
        amount, "XTZ" if amount else "", "", 0.001 if type_ == "Transaction" else 0.0,
        success, "", metadata=metadata,
    )


@pytest.fixture
def eos_block():
    chain = EosChain()
    chain.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
    chain.deploy_contract(EidosContract("eidosonecoin"))
    chain.accounts.create("alice", initial_balance=100.0)
    chain.accounts.create("bob", initial_balance=10.0)
    chain.accounts.create("pauper", initial_balance=1.0)
    chain.accounts.get("eidosonecoin").credit(100.0)
    chain.resources.stake_cpu("alice", 100.0)
    chain.resources.stake_cpu("bob", 100.0)
    block = chain.produce_block(
        [
            # The contract raises ChainError: bob holds 10 EOS, not 999.
            EosTransaction(
                "t-error", (make_transfer("eosio.token", "bob", "alice", 999.0, "EOS"),)
            ),
            # No contract is deployed at ``mysterydapp``.
            EosTransaction(
                "t-unhandled",
                (
                    EosAction(
                        "mysterydapp", "doit", "alice", "mysterydapp",
                        {"quantity": 2.5, "symbol": "ZZZ"},
                    ),
                ),
            ),
            # ``pauper`` stakes no CPU, so the whole transaction is dropped.
            EosTransaction(
                "t-rejected", (make_transfer("eosio.token", "pauper", "bob", 0.5, "EOS"),)
            ),
            # The EIDOS claim queues two inline actions.
            EosTransaction(
                "t-claim",
                (make_transfer("eidosonecoin", "alice", "eidosonecoin", 0.5, "EOS"),),
            ),
        ]
    )
    return chain, block


def test_eos_contract_error_unhandled_contract_and_cpu_rejection(eos_block):
    chain, block = eos_block
    assert chain.rejected_transactions == 1
    assert [fields(record) for record in block.transactions] == [
        eos_row(
            "t-error", "transfer", "bob", "eosio.token", 999.0, "EOS", False,
            [("error", "insufficient EOS balance on bob: 10.0 < 999.0"), ("transfer_to", "alice")],
        ),
        eos_row(
            "t-unhandled", "doit", "alice", "mysterydapp", 2.5, "ZZZ", True,
            [("unhandled", True)],
        ),
        eos_row(
            "t-claim", "transfer", "alice", "eidosonecoin", 0.5, "EOS", True,
            [("payout", 100000.0), ("boomerang", True), ("transfer_to", "eidosonecoin")],
        ),
        eos_row(
            "t-claim", "transfer", "eidosonecoin", "eosio.token", 0.5, "EOS", True,
            [("amount", 0.5), ("symbol", "EOS"), ("inline", True), ("transfer_to", "alice")],
        ),
        eos_row(
            "t-claim", "transfer", "eidosonecoin", "eidosonecoin", 100000.0, "EIDOS", True,
            [("grant", 100000.0), ("inline", True), ("transfer_to", "alice")],
        ),
    ]


def test_eos_records_own_their_metadata(eos_block):
    _, block = eos_block
    metadata = [record.metadata for record in block.transactions]
    assert len({id(mapping) for mapping in metadata}) == len(metadata)


def _xrp_ledger() -> XrpLedger:
    ledger = XrpLedger(rng=DeterministicRng(6))
    ledger.accounts.create_genesis(address="rAlice", balance=1_000.0)
    ledger.accounts.create_genesis(address="rBob", balance=500.0)
    ledger.accounts.create_genesis(address="rGateway", balance=500.0)
    return ledger


def test_xrp_failed_payments_and_unfunded_offer():
    block = _xrp_ledger().close_ledger(
        [
            XrpTransaction(TransactionType.PAYMENT, "rAlice", "rBob", IouAmount.native(5000.0)),
            XrpTransaction(
                TransactionType.PAYMENT, "rAlice", "rBob",
                IouAmount.iou("USD", 1.0, "rGateway"), destination_tag=7,
            ),
            XrpTransaction(TransactionType.PAYMENT, "rAlice", "rNobody", IouAmount.native(1.0)),
            XrpTransaction(
                TransactionType.OFFER_CREATE, "rBob",
                taker_gets=IouAmount.iou("USD", 5.0, "rGateway"),
                taker_pays=IouAmount.native(10.0),
            ),
        ]
    )
    usd = [("currency", "USD"), ("value", 5.0), ("issuer", "rGateway")]
    xrp = [("currency", "XRP"), ("value", 10.0), ("issuer", "")]
    assert [fields(record) for record in block.transactions] == [
        xrp_row(
            "xrptx000000000001", "Payment", "rAlice", "rBob", 5000.0, "XRP", "",
            "tecUNFUNDED_PAYMENT", [],
        ),
        xrp_row(
            "xrptx000000000002", "Payment", "rAlice", "rBob", 1.0, "USD", "rGateway",
            "tecPATH_DRY", [("destination_tag", 7)],
        ),
        xrp_row(
            "xrptx000000000003", "Payment", "rAlice", "rNobody", 1.0, "XRP", "",
            "tecNO_DST", [],
        ),
        xrp_row(
            "xrptx000000000004", "OfferCreate", "rBob", "", 5.0, "USD", "rGateway",
            "tecUNFUNDED_OFFER", [("taker_gets", dict(usd)), ("taker_pays", dict(xrp))],
        ),
    ]
    offer = block.transactions[3].metadata
    assert list(offer["taker_gets"].items()) == usd
    assert list(offer["taker_pays"].items()) == xrp


def test_xrp_crossing_offer_records_its_execution():
    ledger = _xrp_ledger()
    ledger.trustlines.credit("rAlice", IouAmount.iou("USD", 100.0, "rGateway"))
    block = ledger.close_ledger(
        [
            XrpTransaction(
                TransactionType.OFFER_CREATE, "rAlice",
                taker_gets=IouAmount.iou("USD", 10.0, "rGateway"),
                taker_pays=IouAmount.native(50.0),
            ),
            XrpTransaction(
                TransactionType.OFFER_CREATE, "rBob",
                taker_gets=IouAmount.native(50.0),
                taker_pays=IouAmount.iou("USD", 10.0, "rGateway"),
            ),
        ]
    )
    usd = {"currency": "USD", "value": 10.0, "issuer": "rGateway"}
    xrp = {"currency": "XRP", "value": 50.0, "issuer": ""}
    assert [fields(record) for record in block.transactions] == [
        xrp_row(
            "xrptx000000000001", "OfferCreate", "rAlice", "", 10.0, "USD", "rGateway", "",
            [("taker_gets", usd), ("taker_pays", xrp), ("offer_id", 1)],
        ),
        xrp_row(
            "xrptx000000000002", "OfferCreate", "rBob", "", 50.0, "XRP", "", "",
            [
                ("taker_gets", xrp), ("taker_pays", usd), ("offer_id", 2),
                ("executed", True), ("execution_count", 1),
            ],
        ),
    ]


def _tezos_chain() -> TezosChain:
    """A chain with three bakers to fill a block's 32 endorsement slots."""
    chain = TezosChain(rng=DeterministicRng(5))
    for _ in range(3):
        chain.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
    return chain


def test_tezos_failed_operation_and_endorsement():
    chain = _tezos_chain()
    chain.accounts.create_implicit(balance=500.0, address="tz1alicealicealice")
    chain.accounts.create_implicit(balance=100.0, address="tz1bobbobbobbobbob")
    block = chain.bake_block(
        [
            make_transaction("tz1alicealicealice", "tz1nobodynobodynob", 1.0),
            make_transaction("tz1alicealicealice", "tz1bobbobbobbobbob", 2.0),
            make_reveal("tz1bobbobbobbobbob"),
        ]
    )
    records: List[TransactionRecord] = list(block.transactions)
    assert len(records) == 35
    # Baker addresses are drawn per process, so the endorser is checked by role.
    endorser = records[0].sender
    assert endorser in chain.bakers.eligible_bakers()
    assert fields(records[0]) == tezos_row(
        1, "Endorsement", endorser, "", 0.0, True,
        [("level", 0), ("slots", 1), ("category", "consensus")],
    )
    assert [fields(record) for record in records[-3:]] == [
        tezos_row(
            33, "Transaction", "tz1alicealicealice", "tz1nobodynobodynob", 1.0, False,
            [("error", "transaction references an unknown account"), ("category", "manager")],
        ),
        tezos_row(
            34, "Transaction", "tz1alicealicealice", "tz1bobbobbobbobbob", 2.0, True,
            [("category", "manager")],
        ),
        tezos_row(35, "Reveal", "tz1bobbobbobbobbob", "", 0.0, True, [("category", "manager")]),
    ]


def test_tezos_ballot_and_proposal():
    chain = _tezos_chain()
    chain.accounts.create_implicit(balance=500.0, address="tz1bakerbakerbaker1")
    block = chain.bake_block(
        [
            make_ballot("tz1bakerbakerbaker1", "PsBabyM1", "nay"),
            make_proposal("tz1bakerbakerbaker1", ("PsBabyM1",)),
        ]
    )
    assert len(block.transactions) == 34
    assert [fields(record) for record in block.transactions[-2:]] == [
        tezos_row(
            33, "Ballot", "tz1bakerbakerbaker1", "", 0.0, True,
            [("proposal", "PsBabyM1"), ("ballot", "nay"), ("category", "governance")],
        ),
        tezos_row(
            34, "Proposals", "tz1bakerbakerbaker1", "", 0.0, True,
            [("proposals", ["PsBabyM1"]), ("category", "governance")],
        ),
    ]
