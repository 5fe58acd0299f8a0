"""Tests for the Tezos chain simulator."""

import pytest

from repro.common.errors import ChainError
from repro.common.records import ChainId
from repro.common.rng import DeterministicRng
from repro.tezos.baking import ENDORSEMENTS_PER_BLOCK, ROLL_SIZE_XTZ
from repro.tezos.chain import TezosChain, TezosChainConfig
from repro.tezos.operations import (
    make_delegation,
    make_origination,
    make_reveal,
    make_transaction,
)
from tests.support.pruning import check_prune_contract


def make_chain(config=None):
    instance = TezosChain(config, rng=DeterministicRng(5))
    for _ in range(3):
        instance.accounts.create_implicit(balance=5 * ROLL_SIZE_XTZ)
    instance.accounts.create_implicit(balance=500.0, address="tz1alicealicealice")
    instance.accounts.create_implicit(balance=100.0, address="tz1bobbobbobbobbob")
    return instance


@pytest.fixture
def chain():
    return make_chain()


class TestBaking:
    def test_block_carries_32_endorsements(self, chain):
        block = chain.bake_block([])
        endorsements = [record for record in block.transactions if record.type == "Endorsement"]
        assert len(endorsements) == ENDORSEMENTS_PER_BLOCK
        assert block.metadata["endorsement_count"] == ENDORSEMENTS_PER_BLOCK
        assert block.chain is ChainId.TEZOS

    def test_insufficient_endorsements_rejected(self, chain):
        with pytest.raises(ChainError):
            chain.bake_block([], endorsers=["tz1somebaker"] * 10)

    def test_producer_is_an_eligible_baker(self, chain):
        eligible = set(chain.bakers.eligible_bakers())
        block = chain.bake_block([])
        assert block.producer in eligible

    def test_level_and_clock_advance(self, chain):
        start_level = chain.config.start_level
        first = chain.bake_block([])
        second = chain.bake_block([])
        assert first.height == start_level
        assert second.height == start_level + 1
        assert second.timestamp == pytest.approx(first.timestamp + chain.config.block_interval)
        assert second.previous_id == first.block_id


class TestOperations:
    def test_transaction_moves_balance_and_charges_fee(self, chain):
        operation = make_transaction("tz1alicealicealice", "tz1bobbobbobbobbob", 50.0, fee=0.5)
        block = chain.bake_block([operation])
        record = [item for item in block.transactions if item.type == "Transaction"][0]
        assert record.success
        assert chain.accounts.get("tz1alicealicealice").balance_xtz == pytest.approx(449.5)
        assert chain.accounts.get("tz1bobbobbobbobbob").balance_xtz == pytest.approx(150.0)

    def test_overspending_transaction_recorded_as_failed(self, chain):
        operation = make_transaction("tz1bobbobbobbobbob", "tz1alicealicealice", 1_000.0)
        block = chain.bake_block([operation])
        record = [item for item in block.transactions if item.type == "Transaction"][0]
        assert not record.success
        assert "error" in record.metadata

    def test_origination_creates_contract_account(self, chain):
        before = len(chain.accounts.originated_accounts())
        block = chain.bake_block([make_origination("tz1alicealicealice", balance=0.0)])
        record = [item for item in block.transactions if item.type == "Origination"][0]
        assert record.success
        assert len(chain.accounts.originated_accounts()) == before + 1
        assert record.metadata["originated"].startswith("KT1")

    def test_delegation_and_reveal(self, chain):
        baker = chain.bakers.eligible_bakers()[0]
        block = chain.bake_block(
            [
                make_delegation("tz1alicealicealice", baker),
                make_reveal("tz1bobbobbobbobbob"),
            ]
        )
        assert chain.accounts.get("tz1alicealicealice").delegate == baker
        assert chain.accounts.get("tz1bobbobbobbobbob").revealed
        assert all(record.success for record in block.transactions)

    def test_operation_category_recorded_in_metadata(self, chain):
        block = chain.bake_block([make_transaction("tz1alicealicealice", "tz1bobbobbobbobbob", 1.0)])
        endorsement = [record for record in block.transactions if record.type == "Endorsement"][0]
        transaction = [record for record in block.transactions if record.type == "Transaction"][0]
        assert endorsement.metadata["category"] == "consensus"
        assert transaction.metadata["category"] == "manager"

    def test_block_lookup(self, chain):
        block = chain.bake_block([])
        assert chain.block_at(block.height) == block
        with pytest.raises(ChainError):
            chain.block_at(block.height + 5)

    def test_head_of_empty_chain(self):
        chain = TezosChain()
        assert chain.head() is None
        assert chain.head_level == chain.config.start_level - 1

    def test_prune_keeps_the_head_and_the_levels(self):
        check_prune_contract(
            lambda: make_chain(TezosChainConfig(start_level=628_951)),
            lambda chain, number: chain.bake_block(
                [make_transaction("tz1alicealicealice", "tz1bobbobbobbobbob", 1.0 + number)]
            ),
        )
