"""One record of each kind the simulators emit, pinned field by field.

The generation golden digest says *that* a store's bytes moved, not which
row did.  Each case here submits one EOS action, Tezos operation or XRP
transaction to a small hand-built chain and compares every field of the
record it yields — metadata keys in order included, since the store writes
them in that order — with the values recorded before the simulators'
unreached code (producer voting, escrow finish/cancel, the amendment state
machine, the extra RPC handlers) was deleted.  A case per contract action,
operation kind and transaction type, success and recorded failure alike,
names the row kind a simulator change moves.
"""

from __future__ import annotations

import pytest

from repro.common.records import ChainId, TransactionRecord
from repro.common.rng import DeterministicRng
from repro.eos.actions import EosAction, make_transfer
from repro.eos.chain import EosChain, EosTransaction
from repro.eos.contracts import (
    BettingContract,
    ContentPaymentContract,
    DexContract,
    GameContract,
    TokenContract,
)
from repro.tezos.baking import ROLL_SIZE_XTZ
from repro.tezos.chain import TezosChain
from repro.tezos.operations import (
    TezosOperation,
    make_activation,
    make_delegation,
    make_origination,
)
from repro.xrp.amounts import IouAmount
from repro.xrp.ledger import XrpLedger
from repro.xrp.transactions import TransactionType, XrpTransaction
from tests.test_generation_branches import fields


def eos_record(action: EosAction) -> TransactionRecord:
    """The one record of ``action``, submitted by itself to a fresh chain."""
    chain = EosChain()
    chain.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
    chain.deploy_contract(BettingContract("betdicegroup"))
    chain.deploy_contract(DexContract("whaleextrust"))
    chain.deploy_contract(ContentPaymentContract("pornhashbaby"))
    chain.deploy_contract(GameContract("eossanguoone"))
    for name, balance in (("alice", 100.0), ("bob", 10.0)):
        chain.accounts.create(name, initial_balance=balance)
        chain.resources.stake_cpu(name, 100.0)
    chain.accounts.get("bob").credit(5.0, "WHL")
    (record,) = chain.produce_block([EosTransaction("t", (action,))]).transactions
    return record


def alice_calls(contract: str, name: str, data: dict) -> EosAction:
    return EosAction(contract, name, "alice", contract, data)


def eos_row(type_, contract, amount, currency, success, metadata, sender="alice"):
    return (
        ChainId.EOS, "t", 1, 0.0, type_, sender, contract, contract,
        amount, currency, "", 0.0, success, "", metadata,
    )


def trade(seller: str) -> dict:
    return {"buyer": "alice", "seller": seller, "symbol": "WHL", "amount": 4.0, "price": 0.5}


def trade_notes(seller: str) -> list:
    return [
        ("buyer", "alice"), ("seller", seller), ("symbol", "WHL"),
        ("self_trade", seller == "alice"), ("amount", 4.0), ("price", 0.5),
    ]


EOS_CASES = [
    pytest.param(
        make_transfer("eosio.token", "alice", "bob", 2.5, "EOS", memo="hi"),
        eos_row(
            "transfer", "eosio.token", 2.5, "EOS", True,
            [("amount", 2.5), ("symbol", "EOS"), ("transfer_to", "bob")],
        ),
        id="token-transfer",
    ),
    pytest.param(
        make_transfer("eosio.token", "alice", "bob", -1.0, "EOS"),
        eos_row(
            "transfer", "eosio.token", -1.0, "EOS", False,
            [("error", "transfer amount must be non-negative"), ("transfer_to", "bob")],
        ),
        id="token-negative-transfer",
    ),
    pytest.param(
        alice_calls("eosio.token", "open", {"owner": "alice"}),
        eos_row("open", "eosio.token", 0.0, "", True, []),
        id="token-bookkeeping",
    ),
    pytest.param(
        alice_calls("betdicegroup", "betrecord", {"wager": 3.0}),
        eos_row("betrecord", "betdicegroup", 0.0, "", True, [("wager", 3.0)]),
        id="betrecord",
    ),
    pytest.param(
        alice_calls("betdicegroup", "betpayrecord", {"payout": 6.0}),
        eos_row("betpayrecord", "betdicegroup", 0.0, "", True, [("payout", 6.0)]),
        id="betpayrecord",
    ),
    pytest.param(
        alice_calls("betdicegroup", "removetask", {}),
        eos_row("removetask", "betdicegroup", 0.0, "", True, [("bookkeeping", True)]),
        id="betting-bookkeeping",
    ),
    pytest.param(
        alice_calls("whaleextrust", "verifytrade2", trade("alice")),
        eos_row("verifytrade2", "whaleextrust", 4.0, "WHL", True, trade_notes("alice")),
        id="dex-self-trade",
    ),
    pytest.param(
        alice_calls("whaleextrust", "verifytrade2", trade("bob")),
        eos_row("verifytrade2", "whaleextrust", 4.0, "WHL", True, trade_notes("bob")),
        id="dex-genuine-trade",
    ),
    pytest.param(
        alice_calls("whaleextrust", "clearing", {}),
        eos_row("clearing", "whaleextrust", 0.0, "", True, [("bookkeeping", True)]),
        id="dex-bookkeeping",
    ),
    pytest.param(
        alice_calls("pornhashbaby", "record", {"quantity": 0.1, "symbol": "EOS"}),
        eos_row("record", "pornhashbaby", 0.1, "EOS", True, []),
        id="content-record",
    ),
    pytest.param(
        alice_calls("eossanguoone", "combat", {}),
        eos_row("combat", "eossanguoone", 0.0, "", True, []),
        id="game-event",
    ),
]


@pytest.mark.parametrize("action, row", EOS_CASES)
def test_eos_action_record(action, row):
    assert fields(eos_record(action)) == row


def tezos_chain() -> TezosChain:
    """Three bakers fill the 32 endorsement slots; alice and a baker act."""
    chain = TezosChain(rng=DeterministicRng(5))
    for _ in range(3):
        chain.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
    chain.accounts.create_implicit(balance=500.0, address="tz1alicealicealice")
    chain.accounts.create_implicit(balance=20_000.0, address="tz1bakerbakerbaker1")
    return chain


def tezos_record(chain: TezosChain, operation: TezosOperation) -> TransactionRecord:
    """The record of ``operation``, baked after the block's endorsements."""
    return chain.bake_block([operation]).transactions[-1]


def tezos_row(type_, sender, receiver, amount, fee, success, metadata):
    return (
        ChainId.TEZOS, "xtzop000000000033", 1, 0.0, type_, sender, receiver, "",
        amount, "XTZ" if amount else "", "", fee, success, "", metadata,
    )


TEZOS_CASES = [
    pytest.param(
        make_delegation("tz1alicealicealice", "tz1bakerbakerbaker1"),
        tezos_row(
            "Delegation", "tz1alicealicealice", "tz1bakerbakerbaker1", 0.0, 0.001, True,
            [("category", "manager")],
        ),
        id="delegation",
    ),
    pytest.param(
        make_delegation("tz1alicealicealice", "KT1nobodynobodynob"),
        tezos_row(
            "Delegation", "tz1alicealicealice", "KT1nobodynobodynob", 0.0, 0.001, False,
            [("error", "unknown Tezos account: 'KT1nobodynobodynob'"), ("category", "manager")],
        ),
        id="delegation-to-unknown",
    ),
    pytest.param(
        make_activation("tz1fundraiserfundr", 1234.5),
        tezos_row(
            "Activate", "tz1fundraiserfundr", "", 1234.5, 0.0, True, [("category", "manager")]
        ),
        id="activation",
    ),
]


@pytest.mark.parametrize("operation, row", TEZOS_CASES)
def test_tezos_operation_record(operation, row):
    assert fields(tezos_record(tezos_chain(), operation)) == row


def test_tezos_origination_record():
    chain = tezos_chain()
    record = tezos_record(chain, make_origination("tz1alicealicealice", 50.0))
    # Originated addresses are drawn per process, so that one is checked by role.
    originated = record.metadata["originated"]
    account = chain.accounts.get(originated)
    assert originated.startswith("KT1")
    assert (account.manager, account.balance_xtz) == ("tz1alicealicealice", 50.0)
    assert fields(record) == tezos_row(
        "Origination", "tz1alicealicealice", "", 50.0, 0.001, True,
        [("originated", originated), ("category", "manager")],
    )


def xrp_record(transaction: XrpTransaction) -> TransactionRecord:
    """The record of ``transaction``, closed in the ledger after alice's offer 1."""
    ledger = XrpLedger(rng=DeterministicRng(6))
    ledger.accounts.create_genesis(address="rAlice", balance=1_000.0)
    ledger.accounts.create_genesis(address="rBob", balance=500.0)
    ledger.accounts.create_genesis(address="rGateway", balance=500.0)
    ledger.trustlines.set_trust("rBob", "USD", "rGateway", 1_000.0)
    ledger.trustlines.credit("rAlice", IouAmount.iou("USD", 100.0, "rGateway"))
    ledger.close_ledger(
        [
            XrpTransaction(
                TransactionType.OFFER_CREATE, "rAlice",
                taker_gets=IouAmount.iou("USD", 10.0, "rGateway"),
                taker_pays=IouAmount.native(500.0),
            )
        ]
    )
    (record,) = ledger.close_ledger([transaction]).transactions
    return record


def xrp_row(type_, sender, receiver="", amount=0.0, currency="", issuer="", error="", metadata=()):
    return (
        ChainId.XRP, "xrptx000000000002", 2, 4.0, type_, sender, receiver, "",
        amount, currency, issuer, 1e-05, not error, error, list(metadata),
    )


XRP = IouAmount.native
USD = IouAmount.iou("USD", 7.5, "rGateway")
BLACKHOLE = "rrrrrrrrrrrrrrrrrrrrrhoLvTp"

XRP_CASES = [
    pytest.param(
        XrpTransaction(
            TransactionType.PAYMENT, "rAlice", "rBob", XRP(25.0), destination_tag=9
        ),
        xrp_row("Payment", "rAlice", "rBob", 25.0, "XRP", metadata=[("destination_tag", 9)]),
        id="payment",
    ),
    pytest.param(
        XrpTransaction(TransactionType.PAYMENT, "rAlice", "rBob", USD),
        xrp_row("Payment", "rAlice", "rBob", 7.5, "USD", "rGateway"),
        id="iou-payment",
    ),
    pytest.param(
        XrpTransaction(TransactionType.PAYMENT, "rAlice", BLACKHOLE, XRP(3.0)),
        xrp_row("Payment", "rAlice", BLACKHOLE, 3.0, "XRP"),
        id="payment-to-blackhole",
    ),
    pytest.param(
        XrpTransaction(TransactionType.PAYMENT, "rAlice", "rBob", XRP(0.0)),
        xrp_row("Payment", "rAlice", "rBob", 0.0, "XRP", error="temBAD_AMOUNT"),
        id="zero-payment",
    ),
    pytest.param(
        XrpTransaction(TransactionType.OFFER_CANCEL, "rAlice", offer_sequence=1),
        xrp_row("OfferCancel", "rAlice"),
        id="offer-cancel",
    ),
    pytest.param(
        XrpTransaction(TransactionType.OFFER_CANCEL, "rBob", offer_sequence=1),
        xrp_row("OfferCancel", "rBob", error="tecNO_ENTRY"),
        id="offer-cancel-by-non-owner",
    ),
    pytest.param(
        XrpTransaction(
            TransactionType.TRUST_SET, "rAlice", limit=IouAmount.iou("EUR", 50.0, "rGateway")
        ),
        xrp_row("TrustSet", "rAlice"),
        id="trust-set",
    ),
    pytest.param(
        XrpTransaction(TransactionType.TRUST_SET, "rAlice", limit=XRP(50.0)),
        xrp_row("TrustSet", "rAlice", error="temBAD_AMOUNT"),
        id="trust-set-native-limit",
    ),
    pytest.param(
        XrpTransaction(TransactionType.ESCROW_CREATE, "rAlice", "rBob", XRP(40.0)),
        xrp_row("EscrowCreate", "rAlice", "rBob", 40.0, "XRP", metadata=[("offer_id", 1)]),
        id="escrow-create",
    ),
    pytest.param(
        XrpTransaction(
            TransactionType.ESCROW_CREATE, "rAlice", "rBob", IouAmount.iou("USD", 1.0, "rGateway")
        ),
        xrp_row("EscrowCreate", "rAlice", "rBob", 1.0, "USD", "rGateway", error="temBAD_AMOUNT"),
        id="escrow-create-iou",
    ),
    pytest.param(
        XrpTransaction(TransactionType.PAYMENT_CHANNEL_CREATE, "rAlice", "rBob", XRP(5.0)),
        xrp_row("PaymentChannelCreate", "rAlice", "rBob", 5.0, "XRP"),
        id="payment-channel-create",
    ),
] + [
    # Account settings and the rest succeed without moving value.
    pytest.param(
        XrpTransaction(type_, "rAlice"), xrp_row(type_.value, "rAlice"), id=type_.value
    )
    for type_ in (
        TransactionType.ACCOUNT_SET,
        TransactionType.SIGNER_LIST_SET,
        TransactionType.SET_REGULAR_KEY,
        TransactionType.PAYMENT_CHANNEL_CLAIM,
        TransactionType.ENABLE_AMENDMENT,
    )
]


@pytest.mark.parametrize("transaction, row", XRP_CASES)
def test_xrp_transaction_record(transaction, row):
    assert fields(xrp_record(transaction)) == row
