"""Tezos operation kinds.

Tezos calls its transactions "operations".  The paper classifies them into
consensus-related, governance-related and manager operations (§2.3.2); the
operation kinds observed in the dataset are those of Figure 1's Tezos column.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Mapping, NamedTuple

from repro.common.records import EMPTY_MAPPING


class OperationKind(str, enum.Enum):
    """Operation kinds appearing in the paper's Tezos dataset (Figure 1)."""

    ENDORSEMENT = "Endorsement"
    TRANSACTION = "Transaction"
    ORIGINATION = "Origination"
    REVEAL = "Reveal"
    ACTIVATE = "Activate"
    DELEGATION = "Delegation"
    REVEAL_NONCE = "Reveal nonce"
    BALLOT = "Ballot"
    PROPOSALS = "Proposals"
    DOUBLE_BAKING_EVIDENCE = "Double baking evidence"


class OperationCategory(str, enum.Enum):
    """The paper's three-way classification (§2.3.2)."""

    CONSENSUS = "consensus"
    GOVERNANCE = "governance"
    MANAGER = "manager"


#: Mapping from operation kind to the paper's category.
OPERATION_CATEGORIES: Dict[OperationKind, OperationCategory] = {
    OperationKind.ENDORSEMENT: OperationCategory.CONSENSUS,
    OperationKind.REVEAL_NONCE: OperationCategory.CONSENSUS,
    OperationKind.DOUBLE_BAKING_EVIDENCE: OperationCategory.CONSENSUS,
    OperationKind.BALLOT: OperationCategory.GOVERNANCE,
    OperationKind.PROPOSALS: OperationCategory.GOVERNANCE,
    OperationKind.TRANSACTION: OperationCategory.MANAGER,
    OperationKind.ORIGINATION: OperationCategory.MANAGER,
    OperationKind.REVEAL: OperationCategory.MANAGER,
    OperationKind.ACTIVATE: OperationCategory.MANAGER,
    OperationKind.DELEGATION: OperationCategory.MANAGER,
}


class TezosOperation(NamedTuple):
    """One operation to be included in a Tezos block (a tuple: one per row)."""

    kind: OperationKind
    source: str
    destination: str = ""
    amount_xtz: float = 0.0
    fee_xtz: float = 0.0
    data: Mapping[str, Any] = EMPTY_MAPPING


def make_endorsement(baker: str, endorsed_level: int, slots: int = 1) -> TezosOperation:
    """Endorsement of block ``endorsed_level`` by ``baker``."""
    return TezosOperation(
        kind=OperationKind.ENDORSEMENT,
        source=baker,
        data={"level": endorsed_level, "slots": slots},
    )


def make_transaction(source: str, destination: str, amount: float, fee: float = 0.001) -> TezosOperation:
    """Peer-to-peer XTZ transfer."""
    return TezosOperation(
        kind=OperationKind.TRANSACTION,
        source=source,
        destination=destination,
        amount_xtz=amount,
        fee_xtz=fee,
    )


def make_delegation(source: str, baker: str, fee: float = 0.001) -> TezosOperation:
    """Delegate ``source``'s stake to ``baker``."""
    return TezosOperation(
        kind=OperationKind.DELEGATION,
        source=source,
        destination=baker,
        fee_xtz=fee,
    )


def make_origination(manager: str, balance: float, fee: float = 0.001) -> TezosOperation:
    """Originate a new contract account funded with ``balance``."""
    return TezosOperation(
        kind=OperationKind.ORIGINATION,
        source=manager,
        amount_xtz=balance,
        fee_xtz=fee,
    )


def make_reveal(source: str) -> TezosOperation:
    """Reveal the public key of ``source``."""
    return TezosOperation(kind=OperationKind.REVEAL, source=source)


def make_activation(source: str, amount: float) -> TezosOperation:
    """Activate a fundraiser account holding ``amount`` XTZ."""
    return TezosOperation(kind=OperationKind.ACTIVATE, source=source, amount_xtz=amount)


def make_ballot(baker: str, proposal: str, vote: str) -> TezosOperation:
    """Cast a governance ballot (``yay`` / ``nay`` / ``pass``)."""
    if vote not in ("yay", "nay", "pass"):
        raise ValueError(f"invalid ballot: {vote!r}")
    return TezosOperation(
        kind=OperationKind.BALLOT,
        source=baker,
        data={"proposal": proposal, "ballot": vote},
    )


def make_proposal(baker: str, proposals: tuple) -> TezosOperation:
    """Submit (or upvote) one or more amendment proposals."""
    return TezosOperation(
        kind=OperationKind.PROPOSALS,
        source=baker,
        data={"proposals": list(proposals)},
    )
