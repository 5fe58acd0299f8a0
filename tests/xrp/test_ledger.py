"""Tests for the XRP ledger close loop and the UNL overlap model."""

import pytest

from repro.common.errors import ChainError
from repro.common.records import ChainId
from repro.common.rng import DeterministicRng
from repro.xrp.amounts import IouAmount
from repro.xrp.ledger import (
    Validator,
    XrpLedger,
    XrpLedgerConfig,
    check_unl_convergence,
)
from repro.xrp.transactions import TransactionType, XrpTransaction
from tests.support.pruning import check_prune_contract


def make_ledger(config=None):
    instance = XrpLedger(config, rng=DeterministicRng(6))
    instance.accounts.create_genesis(address="rAlice", balance=1_000.0)
    instance.accounts.create_genesis(address="rBob", balance=500.0)
    return instance


@pytest.fixture
def ledger():
    return make_ledger()


def payment(sender="rAlice", receiver="rBob", amount=10.0, tag=None):
    return XrpTransaction(
        type=TransactionType.PAYMENT,
        account=sender,
        destination=receiver,
        amount=IouAmount.native(amount),
        destination_tag=tag,
    )


class TestUnlConvergence:
    def test_identical_unls_converge(self):
        unl = frozenset({"v1", "v2", "v3"})
        validators = [Validator(name=name, unl=unl) for name in unl]
        assert check_unl_convergence(validators)

    def test_disjoint_unls_do_not_converge(self):
        validators = [
            Validator(name="v1", unl=frozenset({"v1", "v2"})),
            Validator(name="v2", unl=frozenset({"v3", "v4"})),
        ]
        assert not check_unl_convergence(validators)

    def test_overlap_metric(self):
        first = Validator(name="v1", unl=frozenset({"a", "b", "c", "d", "e"}))
        second = Validator(name="v2", unl=frozenset({"a", "b", "c", "d", "x"}))
        assert first.overlap_with(second) == pytest.approx(0.8)


class TestLedgerClose:
    def test_close_advances_index_and_clock(self, ledger):
        start = ledger.clock.now
        block = ledger.close_ledger([payment()])
        assert block.height == ledger.config.start_index
        assert block.chain is ChainId.XRP
        assert ledger.clock.now == pytest.approx(start + ledger.config.close_interval)

    def test_successful_and_failed_transactions_both_recorded(self, ledger):
        block = ledger.close_ledger(
            [payment(amount=10.0), payment(sender="rBob", amount=1_000_000.0)]
        )
        assert block.action_count == 2
        outcomes = {record.success for record in block.transactions}
        assert outcomes == {True, False}
        failed = [record for record in block.transactions if not record.success][0]
        assert failed.error_code == "tecUNFUNDED_PAYMENT"

    def test_transactions_from_unknown_accounts_never_reach_the_ledger(self, ledger):
        block = ledger.close_ledger([payment(sender="rGhost")])
        assert block.action_count == 0

    def test_destination_tag_preserved_in_metadata(self, ledger):
        block = ledger.close_ledger([payment(tag=104_398)])
        assert block.transactions[0].metadata["destination_tag"] == 104_398

    def test_offer_metadata_includes_assets(self, ledger):
        ledger.trustlines.credit("rAlice", IouAmount.iou("USD", 100.0, "rGateway"))
        offer = XrpTransaction(
            type=TransactionType.OFFER_CREATE,
            account="rAlice",
            taker_gets=IouAmount.iou("USD", 10.0, "rGateway"),
            taker_pays=IouAmount.native(50.0),
        )
        block = ledger.close_ledger([offer])
        record = block.transactions[0]
        assert record.metadata["taker_gets"]["currency"] == "USD"
        assert record.metadata["offer_id"] > 0

    def test_block_lookup_and_head(self, ledger):
        assert ledger.head() is None
        block = ledger.close_ledger([payment()])
        assert ledger.head() == block
        assert ledger.block_at(block.height) == block
        with pytest.raises(ChainError):
            ledger.block_at(block.height + 10)

    def test_prune_keeps_the_head_and_the_indices(self):
        check_prune_contract(
            lambda: make_ledger(XrpLedgerConfig(start_index=50_400_001)),
            lambda ledger, number: ledger.close_ledger([payment(amount=1.0 + number)]),
        )

    def test_non_converging_validators_block_consensus(self):
        ledger = XrpLedger(XrpLedgerConfig(validator_count=2))
        ledger.accounts.create_genesis(address="rAlice", balance=100.0)
        ledger.validators = [
            Validator(name="v1", unl=frozenset({"v1"})),
            Validator(name="v2", unl=frozenset({"v2"})),
        ]
        with pytest.raises(ChainError):
            ledger.close_ledger([payment(amount=1.0)])
