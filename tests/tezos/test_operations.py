"""Tests for Tezos operation kinds and builders."""

import pytest

from repro.tezos.operations import (
    OPERATION_CATEGORIES,
    OperationCategory,
    OperationKind,
    make_activation,
    make_ballot,
    make_delegation,
    make_endorsement,
    make_origination,
    make_proposal,
    make_reveal,
    make_transaction,
)


class TestCategories:
    def test_consensus_operations(self):
        assert OPERATION_CATEGORIES[OperationKind.ENDORSEMENT] is OperationCategory.CONSENSUS
        assert OPERATION_CATEGORIES[OperationKind.REVEAL_NONCE] is OperationCategory.CONSENSUS
        assert OPERATION_CATEGORIES[OperationKind.DOUBLE_BAKING_EVIDENCE] is OperationCategory.CONSENSUS

    def test_governance_operations(self):
        assert OPERATION_CATEGORIES[OperationKind.BALLOT] is OperationCategory.GOVERNANCE
        assert OPERATION_CATEGORIES[OperationKind.PROPOSALS] is OperationCategory.GOVERNANCE

    def test_manager_operations(self):
        for kind in (
            OperationKind.TRANSACTION,
            OperationKind.ORIGINATION,
            OperationKind.REVEAL,
            OperationKind.ACTIVATE,
            OperationKind.DELEGATION,
        ):
            assert OPERATION_CATEGORIES[kind] is OperationCategory.MANAGER

    def test_every_kind_has_a_category(self):
        for kind in OperationKind:
            assert OPERATION_CATEGORIES[kind] in OperationCategory


class TestBuilders:
    def test_endorsement_records_level(self):
        operation = make_endorsement("tz1baker", endorsed_level=42, slots=3)
        assert operation.kind is OperationKind.ENDORSEMENT
        assert operation.data["level"] == 42
        assert operation.data["slots"] == 3
        assert OPERATION_CATEGORIES[operation.kind] is OperationCategory.CONSENSUS

    def test_transaction_carries_amount_and_fee(self):
        operation = make_transaction("tz1alice", "tz1bob", 12.5, fee=0.01)
        assert operation.amount_xtz == 12.5
        assert operation.fee_xtz == 0.01
        assert operation.destination == "tz1bob"

    def test_delegation(self):
        operation = make_delegation("tz1alice", "tz1baker")
        assert operation.kind is OperationKind.DELEGATION
        assert operation.destination == "tz1baker"

    def test_origination(self):
        operation = make_origination("tz1alice", balance=5.0)
        assert operation.kind is OperationKind.ORIGINATION
        assert operation.amount_xtz == 5.0

    def test_reveal_and_activation(self):
        assert make_reveal("tz1alice").kind is OperationKind.REVEAL
        activation = make_activation("tz1alice", 100.0)
        assert activation.amount_xtz == 100.0

    def test_ballot_validation(self):
        operation = make_ballot("tz1baker", "PsBabyM1", "yay")
        assert operation.data == {"proposal": "PsBabyM1", "ballot": "yay"}
        with pytest.raises(ValueError):
            make_ballot("tz1baker", "PsBabyM1", "maybe")

    def test_proposal(self):
        operation = make_proposal("tz1baker", ("Babylon", "Babylon 2.0"))
        assert operation.data["proposals"] == ["Babylon", "Babylon 2.0"]
