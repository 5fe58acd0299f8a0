"""Property-based round-trip tests for the binary chunk format (v3, written).

The format's contract is stronger than "decodes without error": a chunk
written from *any* frame — ragged chain mixes, empty columns, unicode
metadata and transaction ids, ``None``-bearing pools — must rebuild a frame
whose records equal the input's on the metadata keys a chunk stores, and
whose figures are identical.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.classify import TypeDistributionAccumulator
from repro.collection.chunkformat import decode_chunk, encode_chunk
from repro.common.columns import TxFrame
from repro.common.records import ChainId, TransactionRecord

from tests.support.stored import STORED_KEYS, stored_records

DEFAULT_SETTINGS = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

# JSON-able metadata values (the record contract); includes unicode text.
_metadata_value = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
    st.text(max_size=12),
)

def _record_strategy(contract):
    return st.builds(
        TransactionRecord,
        chain=st.sampled_from(list(ChainId)),
        transaction_id=st.text(min_size=1, max_size=16),
        block_height=st.integers(min_value=0, max_value=10**9),
        timestamp=st.floats(min_value=0, max_value=2e9, allow_nan=False),
        type=st.text(min_size=1, max_size=20),
        sender=st.text(max_size=20),
        receiver=st.text(max_size=20),
        contract=contract,
        amount=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        currency=st.sampled_from(["", "EOS", "XRP", "USD", "EIDOS"]),
        issuer=st.text(max_size=20),
        fee=st.floats(min_value=0, max_value=100, allow_nan=False),
        success=st.booleans(),
        error_code=st.one_of(
            st.none(), st.sampled_from(["", "tecPATH_DRY", "tecUNFUNDED_OFFER"])
        ),
        metadata=st.dictionaries(
            st.one_of(st.text(max_size=8), st.sampled_from(sorted(STORED_KEYS))), _metadata_value, max_size=3
        ),
    )


#: Figure-safe records: the EOS action classifier requires a contract
#: string (real EOS workloads always set one).
record_strategy = _record_strategy(st.text(max_size=20))

#: Pool-stress records: ``None`` contracts exercise the null-bearing pools.
nullable_record_strategy = _record_strategy(st.one_of(st.none(), st.text(max_size=20)))


@DEFAULT_SETTINGS
@given(records=st.lists(record_strategy, max_size=30))
def test_encode_decode_round_trip_is_figure_identical(records):
    frame = TxFrame.from_records(records)
    expected_figures = {
        chain: TypeDistributionAccumulator().run(frame.chain_view(chain))
        for chain in frame.chains()
    }
    blob, _ = encode_chunk(frame.to_payload(arrays=True))
    rebuilt = TxFrame.from_payload(decode_chunk(blob))
    assert list(rebuilt) == stored_records(records)
    assert rebuilt.chains() == frame.chains()
    for chain in frame.chains():
        figure = TypeDistributionAccumulator().run(rebuilt.chain_view(chain))
        assert figure == expected_figures[chain]
    # Equal payloads encode to equal bytes (sharded generation relies on it),
    # whether the columns arrive as arrays or as the decoder's ndarrays.
    assert encode_chunk(rebuilt.to_payload(arrays=True))[0] == blob
    assert encode_chunk(decode_chunk(blob))[0] == blob


@DEFAULT_SETTINGS
@given(records=st.lists(nullable_record_strategy, min_size=1, max_size=20))
def test_extend_from_decoded_payload_matches_direct_extend(records):
    """A frame grown from decoded chunks equals one grown from records."""
    direct = TxFrame.from_records(records)
    blob, _ = encode_chunk(direct.to_payload(arrays=True))
    grown = TxFrame()
    grown.extend_from_payload(decode_chunk(blob))
    assert list(grown) == stored_records(records)
    assert grown.timestamp == direct.timestamp
