"""Tests for the EOS DPoS chain simulator."""

import pytest

from repro.common.errors import ChainError
from repro.common.records import ChainId
from repro.eos.actions import EosAction, make_transfer
from repro.eos.chain import (
    ACTIVE_PRODUCER_COUNT,
    BLOCKS_PER_PRODUCER_TURN,
    BLOCKS_PER_ROUND,
    EosChain,
    EosChainConfig,
    EosTransaction,
)
from repro.eos.contracts import EidosContract, TokenContract
from tests.support.pruning import check_prune_contract


def make_chain(config=None):
    instance = EosChain(config)
    instance.deploy_contract(TokenContract("eosio.token", symbol="EOS"))
    instance.accounts.create("alice", initial_balance=100.0)
    instance.accounts.create("bob", initial_balance=10.0)
    instance.resources.stake_cpu("alice", 100.0)
    instance.resources.stake_cpu("bob", 100.0)
    return instance


@pytest.fixture
def chain():
    return make_chain()


def transfer_tx(tx_id, sender="alice", receiver="bob", amount=1.0):
    return EosTransaction(
        transaction_id=tx_id,
        actions=(make_transfer("eosio.token", sender, receiver, amount, "EOS"),),
    )


class TestSchedule:
    def test_round_structure(self):
        assert BLOCKS_PER_ROUND == 126
        assert ACTIVE_PRODUCER_COUNT == 21
        assert BLOCKS_PER_PRODUCER_TURN == 6

    def test_producer_rotation_in_turns_of_six(self, chain):
        start = chain.config.start_height
        first_turn = {chain.producer_for_height(start + offset) for offset in range(6)}
        assert len(first_turn) == 1
        seventh = chain.producer_for_height(start + 6)
        assert seventh not in first_turn

    def test_schedule_covers_21_producers_per_round(self, chain):
        start = chain.config.start_height
        producers = {
            chain.producer_for_height(start + offset) for offset in range(BLOCKS_PER_ROUND)
        }
        assert len(producers) == ACTIVE_PRODUCER_COUNT

    def test_too_few_producers_rejected(self):
        with pytest.raises(ChainError):
            EosChainConfig(producers=("producer01a",))


class TestBlockProduction:
    def test_produce_block_advances_height_and_clock(self, chain):
        start_time = chain.clock.now
        block = chain.produce_block([transfer_tx("tx1")])
        assert block.height == chain.config.start_height
        assert chain.head_height == block.height
        assert chain.clock.now == start_time + chain.config.block_interval
        assert block.chain is ChainId.EOS

    def test_transfer_updates_balances(self, chain):
        chain.produce_block([transfer_tx("tx1", amount=30.0)])
        assert chain.accounts.get("alice").balance() == 70.0
        assert chain.accounts.get("bob").balance() == 40.0

    def test_records_use_contract_as_receiver(self, chain):
        block = chain.produce_block([transfer_tx("tx1")])
        record = block.transactions[0]
        assert record.receiver == "eosio.token"
        assert record.metadata["transfer_to"] == "bob"
        assert record.sender == "alice"

    def test_failed_action_recorded_as_unsuccessful(self, chain):
        block = chain.produce_block([transfer_tx("tx1", sender="bob", amount=999.0)])
        record = block.transactions[0]
        assert record.success is False
        assert "error" in record.metadata

    def test_inline_actions_are_included_in_block(self, chain):
        chain.deploy_contract(EidosContract("eidosonecoin"))
        chain.accounts.get("eidosonecoin").credit(100.0)
        claim = EosTransaction(
            transaction_id="claim1",
            actions=(
                make_transfer("eosio.token", "alice", "eidosonecoin", 0.5, "EOS"),
                EosAction(
                    contract="eidosonecoin",
                    name="transfer",
                    actor="alice",
                    receiver="eidosonecoin",
                    data={"from": "alice", "to": "eidosonecoin", "quantity": 0.5, "symbol": "EOS"},
                ),
            ),
        )
        block = chain.produce_block([claim])
        # deposit + notification + inline refund + inline grant = 4 actions.
        assert block.action_count == 4
        assert block.transaction_count == 1
        inline = [record for record in block.transactions if record.metadata.get("inline")]
        assert len(inline) == 2
        # The boomerang returns the EOS to the claimer.
        assert chain.accounts.get("alice").balance() == pytest.approx(100.0)
        assert chain.accounts.get("alice").balance("EIDOS") > 0.0

    def test_transaction_without_cpu_is_rejected(self, chain):
        chain.accounts.create("pauper", initial_balance=1.0)
        block = chain.produce_block(
            [transfer_tx("tx1", sender="pauper", receiver="bob", amount=0.5)]
        )
        assert block.action_count == 0
        assert chain.rejected_transactions == 1

    def test_block_lookup(self, chain):
        produced = chain.produce_block([transfer_tx("tx1")])
        assert chain.block_at(produced.height) == produced
        with pytest.raises(ChainError):
            chain.block_at(produced.height + 100)

    def test_head_of_empty_chain(self):
        assert EosChain().head() is None

    def test_prune_keeps_the_head_and_the_heights(self):
        check_prune_contract(
            lambda: make_chain(EosChainConfig(start_height=82_152_667)),
            lambda chain, number: chain.produce_block([transfer_tx(f"tx{number}")]),
        )

    def test_block_links_previous_id(self, chain):
        first = chain.produce_block([transfer_tx("tx1")])
        second = chain.produce_block([transfer_tx("tx2")])
        assert second.previous_id == first.block_id

    def test_empty_transaction_rejected(self):
        with pytest.raises(ChainError):
            EosTransaction(transaction_id="empty", actions=())

    def test_unknown_contract_action_still_recorded(self, chain):
        action = EosAction(
            contract="mysterydapp", name="doit", actor="alice", receiver="mysterydapp"
        )
        block = chain.produce_block(
            [EosTransaction(transaction_id="tx1", actions=(action,))]
        )
        assert block.action_count == 1
        assert block.transactions[0].metadata.get("unhandled") is True
