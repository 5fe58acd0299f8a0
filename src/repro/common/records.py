"""Chain-agnostic block and transaction records.

The three simulators produce chain-specific objects internally, but the data
collection and analysis layers work with a single canonical representation so
that classification, throughput and account statistics can share code.  The
canonical records deliberately mirror the fields the paper's measurement
relies on: a chain identifier, a block height and timestamp, a per-transaction
type/action label, sender, receiver, an optional amount with its currency and
issuer, a success flag and a free-form metadata mapping for chain-specific
extras (destination tags, wash-trade markers, vote choices, ...).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Iterable, Iterator, Mapping, NamedTuple


class ChainId(str, enum.Enum):
    """Identifier of one of the three studied blockchains."""

    EOS = "eos"
    TEZOS = "tezos"
    XRP = "xrp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Currency code of the XRP ledger's native asset, shared by the ledger
#: simulator and the value analyses without either importing the other.
XRP_CURRENCY = "XRP"


class _EmptyMapping(Mapping):
    """The read-only empty mapping that stands in for ``default_factory=dict``.

    A ``NamedTuple`` default is one shared object, so it must not be a dict
    an instance's owner could write to; unlike ``MappingProxyType`` this one
    still pickles and deep-copies.  It prints as the empty dict it stands for,
    so a record's ``repr`` reads the same with either.
    """

    __slots__ = ()

    def __getitem__(self, key: Any) -> Any:
        raise KeyError(key)

    def __iter__(self) -> Iterator[Any]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "{}"


EMPTY_MAPPING: Mapping[str, Any] = _EmptyMapping()


class TransactionRecord(NamedTuple):
    """One transaction (EOS action, Tezos operation, XRP transaction).

    The paper counts EOS *actions* when building the type distribution
    (Figure 1) but *transactions* when characterising the dataset (Figure 2);
    ``transaction_id`` groups actions that were carried by the same on-chain
    transaction so that both views can be derived from one stream of records.

    A tuple rather than a frozen dataclass: generation builds one of these
    per row, and a frozen dataclass pays one ``object.__setattr__`` per field.
    """

    chain: ChainId
    transaction_id: str
    block_height: int
    timestamp: float
    type: str
    sender: str
    receiver: str
    contract: str = ""
    amount: float = 0.0
    currency: str = ""
    issuer: str = ""
    fee: float = 0.0
    success: bool = True
    error_code: str = ""
    metadata: Mapping[str, Any] = EMPTY_MAPPING

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {**self._asdict(), "chain": self.chain.value, "metadata": dict(self.metadata)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TransactionRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            chain=ChainId(payload["chain"]),
            transaction_id=str(payload["transaction_id"]),
            block_height=int(payload["block_height"]),
            timestamp=float(payload["timestamp"]),
            type=str(payload["type"]),
            sender=str(payload["sender"]),
            receiver=str(payload["receiver"]),
            contract=str(payload.get("contract", "")),
            amount=float(payload.get("amount", 0.0)),
            currency=str(payload.get("currency", "")),
            issuer=str(payload.get("issuer", "")),
            fee=float(payload.get("fee", 0.0)),
            success=bool(payload.get("success", True)),
            error_code=str(payload.get("error_code", "")),
            metadata=dict(payload.get("metadata", {})),
        )


class _BlockFields(NamedTuple):
    chain: ChainId
    height: int
    timestamp: float
    producer: str
    transactions: tuple
    block_id: str = ""
    previous_id: str = ""
    metadata: Mapping[str, Any] = EMPTY_MAPPING


class BlockRecord(_BlockFields):
    """One block (EOS block, Tezos block, XRP ledger version)."""

    __slots__ = ()

    def __new__(cls, chain, height, timestamp, producer, transactions, *rest, **named):
        # Normalise list inputs so a block's transactions are immutable.
        return super().__new__(
            cls, chain, height, timestamp, producer, tuple(transactions), *rest, **named
        )

    @property
    def transaction_count(self) -> int:
        """Number of top-level transactions in the block.

        EOS actions sharing a ``transaction_id`` count once, mirroring the
        distinction between Figure 1 (actions) and Figure 2 (transactions).
        """
        seen = {record.transaction_id for record in self.transactions}
        return len(seen)

    @property
    def action_count(self) -> int:
        """Number of actions/operations carried by the block."""
        return len(self.transactions)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-compatible dictionary."""
        return {
            "chain": self.chain.value,
            "height": self.height,
            "timestamp": self.timestamp,
            "producer": self.producer,
            "block_id": self.block_id,
            "previous_id": self.previous_id,
            "metadata": dict(self.metadata),
            "transactions": [record.to_dict() for record in self.transactions],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BlockRecord":
        """Rebuild a block from :meth:`to_dict` output."""
        return cls(
            chain=ChainId(payload["chain"]),
            height=int(payload["height"]),
            timestamp=float(payload["timestamp"]),
            producer=str(payload["producer"]),
            block_id=str(payload.get("block_id", "")),
            previous_id=str(payload.get("previous_id", "")),
            metadata=dict(payload.get("metadata", {})),
            transactions=tuple(
                TransactionRecord.from_dict(item)
                for item in payload.get("transactions", [])
            ),
        )


def iter_transactions(blocks: Iterable[BlockRecord]) -> Iterable[TransactionRecord]:
    """Flatten an iterable of blocks into a stream of transaction records."""
    for block in blocks:
        for record in block.transactions:
            yield record
