"""Property: the projected metadata columns stand in for the dicts exactly.

Seven metadata keys are read by figures; scans read them from typed columns
(:func:`repro.common.projection.project_metadata`), while each figure's
reference (``tests/support/reference.py``) reads the dicts.  Over arbitrary
JSON values for those keys — absent, ``None``, ``False`` / ``0`` / ``""``, a
non-string ``category`` or ``transfer_to``, nested lists and mappings —
every kernel that reads one must finalize to its reference over the records,
and export the same state on the frame the records built and on the frame a
v3 chunk of them decodes to; and the v3 round trip must give back every
metadata value of a key a chunk stores (projected or allow-listed) with its
JSON type, keys sorted, and no other.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.airdrop import EIDOS_CONTRACT, AirdropAccumulator, BoomerangClaimsAccumulator
from repro.analysis.classify import TezosCategoryAccumulator
from repro.analysis.value import ExchangeRateOracle, XrpDecompositionAccumulator
from repro.analysis.washtrading import TRADE_ACTION, WHALEEX_CONTRACT, TradeExtractionAccumulator
from repro.collection.chunkformat import decode_chunk, encode_chunk
from repro.common import statecodec
from repro.common.columns import TxFrame
from repro.common.projection import PROJECTED_KEYS, RESIDUE_KEYS
from repro.common.records import ChainId, TransactionRecord

from tests.support.reference import reference_of
from tests.support.stored import stored_metadata

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Values a figure treats specially, then any JSON value.
_SPECIAL = st.sampled_from(
    [None, False, True, 0, 1, 0.0, "", "manager", "consensus", EIDOS_CONTRACT, "EOS", "bob"]
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_METADATA = st.dictionaries(
    st.sampled_from(sorted(PROJECTED_KEYS) + sorted(RESIDUE_KEYS) + ["amount", "memo"]),
    st.one_of(_SPECIAL, _JSON),
    max_size=5,
)

#: (chain, type, receiver, contract, currency) of the rows each kernel reads.
_ROLES = {
    "transfer": (ChainId.EOS, "transfer", "eosio.token", "eosio.token", "EOS"),
    "grant": (ChainId.EOS, "transfer", "alice", "eidostoken", "EIDOS"),
    "trade": (ChainId.EOS, TRADE_ACTION, WHALEEX_CONTRACT, WHALEEX_CONTRACT, ""),
    "tezos": (ChainId.TEZOS, "Transaction", "tz1b", "", "XTZ"),
    "offer": (ChainId.XRP, "OfferCreate", "rB", "", "XRP"),
}


def _records(rows):
    records = []
    for index, (role, sender, metadata) in enumerate(rows):
        chain, kind, receiver, contract, currency = _ROLES[role]
        records.append(
            TransactionRecord(
                chain=chain,
                # Two rows per EOS transaction, so deposits meet refunds.
                transaction_id=f"{chain.value}-{index // 2 if chain is ChainId.EOS else index}",
                block_height=index,
                timestamp=1.57e9 + 3600.0 * index,
                type=kind,
                sender=sender,
                receiver=receiver,
                contract=contract,
                amount=float(index % 3),
                currency=currency,
                metadata=metadata,
            )
        )
    # A store keeps a transaction's rows contiguous per chain: order by chain.
    return sorted(records, key=lambda record: list(ChainId).index(record.chain))


_ROWS = st.lists(
    st.tuples(st.sampled_from(sorted(_ROLES)), st.sampled_from(["alice", EIDOS_CONTRACT]), _METADATA),
    min_size=1,
    max_size=24,
)


def _accumulators():
    return [
        AirdropAccumulator(),
        BoomerangClaimsAccumulator(),
        TezosCategoryAccumulator(),
        XrpDecompositionAccumulator(ExchangeRateOracle()),
        TradeExtractionAccumulator(),
    ]


def _scanned(frame):
    accumulators = _accumulators()
    for accumulator in accumulators:
        accumulator.bind_batch(frame)(range(len(frame)))
    return accumulators


def _states(accumulators):
    return [statecodec.encode(accumulator.export_state()) for accumulator in accumulators]


def _json_normal(metadata):
    """What a v2 chunk gives back for one row's metadata: JSON values, sorted keys."""
    return json.loads(json.dumps(metadata, sort_keys=True)) if metadata else {}


@SETTINGS
@given(rows=_ROWS)
def test_projected_kernels_equal_their_references_and_v3_is_lossless(rows):
    records = _records(rows)
    frame = TxFrame.from_records(records)
    scanned = _scanned(frame)
    for accumulator in scanned:
        assert accumulator.finalize() == reference_of(accumulator)(records), accumulator.name

    blob, _ = encode_chunk(frame.to_payload(arrays=True))
    decoded = decode_chunk(blob)
    assert _states(_scanned(TxFrame.from_payload(decoded))) == _states(scanned)
    # Re-encoding what was decoded reproduces the blob byte for byte.
    assert encode_chunk(decoded)[0] == blob
    rebuilt = list(TxFrame.from_payload(decode_chunk(blob)))
    assert [record._replace(metadata={}) for record in rebuilt] == [
        record._replace(metadata={}) for record in records
    ]
    assert [json.dumps(record.metadata) for record in rebuilt] == [
        json.dumps(_json_normal(stored_metadata(record.metadata))) for record in records
    ]
