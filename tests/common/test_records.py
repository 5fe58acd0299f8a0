"""Tests for the canonical block / transaction records."""

import copy
import json
import pickle

import pytest

from repro.common.records import (
    BlockRecord,
    ChainId,
    TransactionRecord,
    iter_transactions,
)


def make_record(tx_id="tx1", height=10, type_="transfer", **overrides):
    base = dict(
        chain=ChainId.EOS,
        transaction_id=tx_id,
        block_height=height,
        timestamp=1000.0,
        type=type_,
        sender="alice",
        receiver="bob",
    )
    base.update(overrides)
    return TransactionRecord(**base)


def make_block(height=10, records=None, chain=ChainId.EOS):
    records = records if records is not None else [make_record(height=height)]
    return BlockRecord(
        chain=chain,
        height=height,
        timestamp=1000.0 + height,
        producer="producer01a",
        transactions=tuple(records),
    )


class TestTransactionRecord:
    def test_round_trip_serialisation(self):
        record = make_record(amount=5.5, currency="EOS", metadata={"k": 1})
        rebuilt = TransactionRecord.from_dict(record.to_dict())
        assert rebuilt == record

    def test_defaults(self):
        record = make_record()
        assert record.success is True
        assert record.error_code == ""
        assert record.fee == 0.0

    def test_default_metadata_is_not_a_dict_shared_between_records(self):
        # A NamedTuple default is one object for every instance: it must be
        # read-only, or a write through one record would show up on all.
        first, second = make_record("tx1"), make_record("tx2")
        assert first.metadata == {} and not first.metadata
        with pytest.raises(TypeError):
            first.metadata["leak"] = 1
        assert second.metadata == {}
        assert first == make_record("tx1", metadata={})

    def test_default_metadata_round_trips_and_copies(self):
        record = make_record()
        payload = record.to_dict()
        assert payload["metadata"] == {} and type(payload["metadata"]) is dict
        payload["metadata"]["mine"] = True  # the caller's copy, not the default
        assert make_record().to_dict()["metadata"] == {}
        assert json.loads(json.dumps(record.to_dict())) == record.to_dict()
        assert TransactionRecord.from_dict(record.to_dict()) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_frame_stores_no_metadata_for_a_default_record(self):
        from repro.common.columns import TxFrame

        appended, extended = TxFrame(), TxFrame()
        appended.append(make_record())
        extended.extend([make_record()])
        assert appended.metadata == extended.metadata == [None]
        assert appended.record(0) == make_record()

    def test_is_immutable_and_keeps_field_order(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.amount = 2.0
        assert list(record.to_dict()) == list(TransactionRecord._fields)


class TestBlockRecord:
    def test_transaction_vs_action_count(self):
        # Two actions sharing one transaction id count as one transaction.
        records = [make_record("tx1"), make_record("tx1"), make_record("tx2")]
        block = make_block(records=records)
        assert block.action_count == 3
        assert block.transaction_count == 2

    def test_round_trip_serialisation(self):
        block = make_block(records=[make_record("tx1"), make_record("tx2")])
        rebuilt = BlockRecord.from_dict(block.to_dict())
        assert rebuilt.height == block.height
        assert rebuilt.transactions == block.transactions

    def test_list_transactions_normalised_to_tuple(self):
        block = BlockRecord(
            chain=ChainId.XRP,
            height=1,
            timestamp=0.0,
            producer="consensus",
            transactions=[make_record(chain=ChainId.XRP)],
        )
        assert isinstance(block.transactions, tuple)


class TestHelpers:
    def test_iter_transactions_flattens(self):
        blocks = [make_block(1), make_block(2, records=[make_record("a"), make_record("b")])]
        assert len(list(iter_transactions(blocks))) == 3

    def test_counts(self):
        blocks = [
            make_block(1, records=[make_record("tx1"), make_record("tx1")]),
            make_block(2, records=[make_record("tx2")]),
        ]
        assert sum(block.action_count for block in blocks) == 3

    def test_chain_id_values(self):
        assert ChainId("eos") is ChainId.EOS
        assert ChainId("tezos") is ChainId.TEZOS
        assert ChainId("xrp") is ChainId.XRP
        with pytest.raises(ValueError):
            ChainId("bitcoin")
