"""Tests for the columnar transaction frame (the analysis substrate)."""

import copy
from array import array as stdarray
from collections import OrderedDict
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import columns
from repro.common.columns import (
    StringPool,
    TxFrame,
    TxView,
    as_frame,
    as_index_rows,
    gather_np,
)
from repro.common.records import EMPTY_MAPPING, ChainId, TransactionRecord


def _record(chain=ChainId.EOS, tx="tx1", ts=100.0, **overrides):
    values = dict(
        chain=chain,
        transaction_id=tx,
        block_height=1,
        timestamp=ts,
        type="transfer",
        sender="alice",
        receiver="bob",
        contract="eosio.token",
        amount=1.5,
        currency="EOS",
        fee=0.01,
        success=True,
        metadata={"memo": "hi"},
    )
    values.update(overrides)
    return TransactionRecord(**values)


class TestStringPool:
    def test_intern_is_stable(self):
        pool = StringPool()
        assert pool.intern("a") == 0
        assert pool.intern("b") == 1
        assert pool.intern("a") == 0
        assert pool.value(1) == "b"
        assert len(pool) == 2
        assert "a" in pool and "c" not in pool

    def test_code_does_not_insert(self):
        pool = StringPool()
        assert pool.code("missing") is None
        assert len(pool) == 0


    @settings(max_examples=200, deadline=None)
    @given(
        seeded=st.lists(st.sampled_from("abcdef"), max_size=6),
        values=st.lists(
            st.one_of(st.none(), st.sampled_from("abcdefghij"), st.text(max_size=3)),
            max_size=60,
        ),
    )
    def test_intern_many_equals_interning_one_by_one(self, seeded, values):
        """Codes and pool order match ``intern`` per value — on a partly
        pre-seeded pool, with heavy repeats of unseen strings and ``None``."""
        pool, twin = StringPool(seeded), StringPool(seeded)
        assert pool.intern_many(values) == [twin.intern(value) for value in values]
        assert pool.values == twin.values
        assert pool.intern_many(values) == [twin.intern(value) for value in values]
        assert pool.values == twin.values


class TestTxFrame:
    def test_round_trips_records(self):
        records = [
            _record(tx="tx1", ts=10.0),
            _record(chain=ChainId.XRP, tx="tx2", ts=20.0, type="Payment", success=False),
        ]
        frame = TxFrame.from_records(records)
        assert len(frame) == 2
        assert [frame.record(i) for i in range(2)] == records
        assert list(frame) == records

    def test_interning_shares_codes(self):
        frame = TxFrame.from_records([_record(tx=f"tx{i}") for i in range(50)])
        # One distinct sender/receiver/contract → three pool entries, plus
        # the empty issuer string.
        assert len(frame.types) == 1
        assert frame.sender_code.count(frame.accounts.intern("alice")) == 50

    def test_empty_metadata_not_materialized(self):
        frame = TxFrame.from_records([_record(metadata={})])
        assert frame.metadata[0] is None
        assert frame.record(0).metadata == {}

    def test_chain_views_are_disjoint_and_complete(self):
        records = [
            _record(tx=f"e{i}", ts=float(i)) for i in range(5)
        ] + [
            _record(chain=ChainId.TEZOS, tx=f"t{i}", ts=float(i), type="Endorsement")
            for i in range(3)
        ]
        frame = TxFrame.from_records(records)
        eos = frame.chain_view(ChainId.EOS)
        tezos = frame.chain_view(ChainId.TEZOS)
        xrp = frame.chain_view(ChainId.XRP)
        assert len(eos) == 5 and len(tezos) == 3 and len(xrp) == 0
        assert all(record.chain is ChainId.EOS for record in eos)
        assert frame.chains() == [ChainId.EOS, ChainId.TEZOS]

    def test_single_chain_view_uses_range(self):
        frame = TxFrame.from_records([_record(tx=f"tx{i}") for i in range(4)])
        view = frame.chain_view(ChainId.EOS)
        assert isinstance(view.rows, range)
        assert len(view) == 4

    def test_chain_bounds_tracked_on_append(self):
        frame = TxFrame.from_records(
            [_record(tx="a", ts=50.0), _record(tx="b", ts=10.0), _record(tx="c", ts=30.0)]
        )
        assert frame.chain_bounds(ChainId.EOS) == (10.0, 50.0)
        assert frame.chain_duration(ChainId.EOS) == 40.0
        assert frame.chain_bounds(ChainId.XRP) is None
        assert frame.min_timestamp() == 10.0 and frame.max_timestamp() == 50.0

    def test_time_window_sorted_uses_bisection(self):
        frame = TxFrame.from_records(
            [_record(tx=f"tx{i}", ts=float(i * 10)) for i in range(10)]
        )
        window = frame.time_window(20.0, 50.0)
        assert isinstance(window.rows, range)
        assert [record.timestamp for record in window] == [20.0, 30.0, 40.0]

    def test_time_window_unsorted_filters(self):
        frame = TxFrame.from_records(
            [_record(tx="a", ts=50.0), _record(tx="b", ts=10.0), _record(tx="c", ts=30.0)]
        )
        window = frame.time_window(10.0, 40.0)
        assert sorted(record.timestamp for record in window) == [10.0, 30.0]

    def test_chain_view_is_a_snapshot(self):
        frame = TxFrame.from_records(
            [_record(tx="e1", ts=1.0), _record(chain=ChainId.XRP, tx="x1", ts=2.0)]
        )
        eos_before = frame.chain_view(ChainId.EOS)
        frame.append(_record(tx="e2", ts=3.0))
        # Later appends never change what an existing view covers, whether
        # the frame holds one chain or several.
        assert len(eos_before) == 1
        assert len(frame.chain_view(ChainId.EOS)) == 2
        single = TxFrame.from_records([_record(tx="a", ts=1.0)])
        view = single.chain_view(ChainId.EOS)
        single.append(_record(tx="b", ts=2.0))
        assert len(view) == 1

    def test_view_chain_filter(self):
        records = [_record(tx="e1", ts=1.0), _record(chain=ChainId.XRP, tx="x1", ts=2.0)]
        view = TxFrame.from_records(records).all_rows()
        assert len(view.chain_view(ChainId.XRP)) == 1

    def test_payload_round_trip(self):
        records = [
            _record(tx="tx1", ts=10.0),
            _record(chain=ChainId.XRP, tx="tx2", ts=20.0, type="Payment",
                    currency="BTC", issuer="rIssuer", success=False,
                    error_code="PATH_DRY", metadata={"destination_tag": 7}),
        ]
        frame = TxFrame.from_records(records)
        rebuilt = TxFrame.from_payload(frame.to_payload())
        assert list(rebuilt) == records
        assert rebuilt.chain_bounds(ChainId.XRP) == (20.0, 20.0)

    def test_payload_slice_and_pool_remap(self):
        frame = TxFrame.from_records([_record(tx=f"tx{i}", ts=float(i)) for i in range(6)])
        target = TxFrame.from_records([_record(chain=ChainId.TEZOS, tx="z", type="Endorsement")])
        target.extend_from_payload(frame.to_payload(range(2, 4)))
        assert len(target) == 3
        assert target.record(1).transaction_id == "tx2"
        assert target.record(2).type == "transfer"

    def test_as_frame_passthrough(self):
        frame = TxFrame.from_records([_record()])
        assert as_frame(frame) is frame
        view = frame.all_rows()
        assert as_frame(view) is view
        built = as_frame([_record()])
        assert isinstance(built, TxFrame) and len(built) == 1

    def test_extend_from_generator_counts(self):
        def stream():
            for i in range(7):
                yield _record(tx=f"tx{i}", ts=float(i))

        frame = TxFrame()
        assert frame.extend(stream()) == 7
        assert len(frame) == 7


class TestShardAndConcat:
    def _mixed_frame(self, count=20):
        records = []
        for i in range(count):
            chain = (ChainId.EOS, ChainId.TEZOS, ChainId.XRP)[i % 3]
            records.append(_record(chain=chain, tx=f"tx{i}", ts=float(i)))
        return TxFrame.from_records(records), records

    def test_concat_equals_single_frame(self):
        frame, records = self._mixed_frame(15)
        parts = [
            TxFrame.from_records(records[:5]),
            TxFrame.from_records(records[5:9]),
            TxFrame.from_records(records[9:]),
        ]
        combined = TxFrame.concat(parts)
        assert list(combined) == records
        assert combined.chains() == frame.chains()
        for chain in frame.chains():
            assert combined.chain_bounds(chain) == frame.chain_bounds(chain)

    def test_array_payload_round_trip(self):
        frame, records = self._mixed_frame(9)
        rows = range(5, 9)
        payload = frame.to_payload(rows, arrays=True)
        rebuilt = TxFrame.from_payload(payload)
        assert list(rebuilt) == [frame.record(row) for row in rows]
        # Codes pass through: the rebuilt pools repeat the parent's order.
        assert rebuilt.types.values == frame.types.values
        assert rebuilt.accounts.values == frame.accounts.values

    def test_from_payload_bulk_matches_append_path(self):
        frame, _ = self._mixed_frame(12)
        payload = frame.to_payload()
        bulk = TxFrame.from_payload(payload)
        appended = TxFrame()
        appended.extend_from_payload(payload)
        assert list(bulk) == list(appended)
        assert bulk.timestamps_sorted == appended.timestamps_sorted
        for chain in appended.chains():
            assert list(bulk.chain_view(chain).rows) == list(
                appended.chain_view(chain).rows
            )
            assert bulk.chain_bounds(chain) == appended.chain_bounds(chain)

    def test_from_payload_detects_unsorted_timestamps(self):
        records = [_record(tx="a", ts=5.0), _record(tx="b", ts=3.0)]
        frame = TxFrame.from_records(records)
        rebuilt = TxFrame.from_payload(frame.to_payload(arrays=True))
        assert rebuilt.timestamps_sorted is False
        assert list(rebuilt) == records


class TestNdarrayViews:
    """Zero-copy ndarray views and the vectorized columnar paths.

    The payload / extend / filter tests compare the vectorized code against
    a plain per-row loop written out here.
    """

    def _frame(self, count=9):
        records = []
        for index in range(count):
            chain = (ChainId.EOS, ChainId.TEZOS, ChainId.XRP)[index % 3]
            records.append(
                _record(chain=chain, tx=f"tx{index}", ts=100.0 + index)
            )
        return TxFrame.from_records(records)

    def test_ndarray_view_is_zero_copy_and_read_only(self):
        frame = self._frame()
        view = frame.ndarray("timestamp")
        assert view.dtype == np.float64
        assert view.tolist() == list(frame.timestamp)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0.0
        # Aliases the column buffer: no bytes were copied.
        assert np.shares_memory(view, np.frombuffer(frame.timestamp))

    @settings(max_examples=50, deadline=None)
    @given(steps=st.lists(st.integers(min_value=0, max_value=40), max_size=8))
    def test_transaction_ids_ndarray_follows_growth(self, steps):
        """After every growth step: the id column, frame-long, one shared buffer."""
        frame = TxFrame()
        assert frame.transaction_ids_ndarray().tolist() == []
        for step, count in enumerate(steps):
            frame.extend(_record(tx=f"tx{step}-{index}") for index in range(count))
            ids = frame.transaction_ids_ndarray()
            assert ids.dtype == object
            assert len(ids) == len(frame)
            assert ids.tolist() == list(frame.transaction_id)
            assert all(type(value) is str for value in ids.tolist())
            again = frame.transaction_ids_ndarray()
            assert len(again) == len(frame)
            if len(frame):
                assert np.shares_memory(ids, again)

    def test_transaction_ids_ndarray_fills_only_the_new_tail(self):
        frame = self._frame(6)
        first = frame.transaction_ids_ndarray()
        first[0] = "sentinel"  # lives in the cached buffer, not in the frame
        frame.extend([_record(tx="tx-late")])
        grown = frame.transaction_ids_ndarray()
        assert grown.tolist() == ["sentinel"] + frame.transaction_id[1:]

    def test_ndarray_rejects_object_columns(self):
        frame = self._frame()
        with pytest.raises(KeyError):
            frame.ndarray("transaction_id")

    def test_as_index_rows_forms(self):
        assert as_index_rows(range(3)) == range(3)
        rows = stdarray("q", [3, 1, 4])
        converted = as_index_rows(rows)
        assert converted.dtype == np.int64
        assert converted.tolist() == [3, 1, 4]
        assert as_index_rows(converted) is converted
        assert as_index_rows([2, 0]).tolist() == [2, 0]

    def test_gather_np(self):
        frame = self._frame()
        sliced = gather_np(frame.timestamp, range(1, 4))
        assert sliced.tolist() == list(frame.timestamp[1:4])
        rows = stdarray("q", [0, 5, 2])
        gathered = gather_np(frame.type_code, rows)
        assert gathered.tolist() == [frame.type_code[i] for i in rows]

    def test_index_row_payload_matches_a_row_loop(self):
        frame = self._frame(11)
        rows = stdarray("q", [0, 3, 4, 8, 10])
        for arrays in (False, True):
            payload = frame.to_payload(rows, arrays=arrays)
            assert payload["transaction_id"] == [frame.transaction_id[i] for i in rows]
            assert payload["metadata"] == [frame.metadata[i] for i in rows]
            for name, column in payload["columns"].items():
                assert isinstance(column, stdarray if arrays else list), name
                assert list(column) == [getattr(frame, name)[i] for i in rows], name

    def test_from_payload_accepts_ndarray_columns(self):
        frame = self._frame(6)
        payload = frame.to_payload(arrays=True)
        payload["columns"] = {
            name: np.asarray(column)
            for name, column in payload["columns"].items()
        }
        rebuilt = TxFrame.from_payload(payload)
        assert list(rebuilt) == list(frame)
        assert rebuilt.timestamps_sorted == frame.timestamps_sorted
        for chain in frame.chains():
            assert rebuilt.chain_bounds(chain) == frame.chain_bounds(chain)

    def test_extend_from_payload_matches_per_row_append(self):
        # Unsorted tail exercises the sortedness bookkeeping.
        late = [
            _record(chain=ChainId.XRP, tx="late", ts=50.0),
            _record(chain=ChainId.EOS, tx="later", ts=60.0),
        ]
        payload = TxFrame.from_records(late).to_payload(arrays=True)
        extended, reference = self._frame(10), self._frame(10)
        assert extended.extend_from_payload(payload) == 2
        for record in late:
            reference.append(record)
        assert list(extended) == list(reference)
        assert extended.timestamps_sorted == reference.timestamps_sorted is False
        for chain in reference.chains():
            assert list(extended.chain_view(chain).rows) == list(
                reference.chain_view(chain).rows
            )
            assert extended.chain_bounds(chain) == reference.chain_bounds(chain)
        # The empty payload is a no-op (its own arm, not the vectorized one).
        assert extended.extend_from_payload(TxFrame().to_payload(arrays=True)) == 0
        assert list(extended) == list(reference)

    def test_view_filters_match_a_row_loop(self):
        frame = self._frame(12)
        rows = stdarray("q", [0, 2, 3, 7, 9, 11])
        view = TxView(frame, rows)
        assert list(view.chain_view(ChainId.EOS).rows) == [
            i for i in rows if frame.chain(i) is ChainId.EOS
        ]
        assert list(frame.time_window(102.0, 108.0, rows=rows).rows) == [
            i for i in rows if 102.0 <= frame.timestamp[i] < 108.0
        ]
        assert view.min_timestamp() == min(frame.timestamp[i] for i in rows)
        assert view.max_timestamp() == max(frame.timestamp[i] for i in rows)
        # Empty selections take the explicit empty guards.
        empty = TxView(frame, stdarray("q"))
        assert list(empty.chain_view(ChainId.EOS).rows) == []
        assert list(frame.time_window(0.0, 1e9, rows=stdarray("q")).rows) == []
        assert empty.min_timestamp() is None and empty.max_timestamp() is None


# -- append parity: batched extend == per-row append ---------------------------------
#
# ``TxFrame.extend`` appends column by column, one batch at a time; whatever the
# stream looks like it must leave the frame exactly as per-row ``append`` does,
# or stores stop being byte-identical per seed.  The batch size is patched
# down so short generated streams cross several batch boundaries.

SMALL_BATCH = 8

_NAMES = st.sampled_from(["alice", "bob", "carol", "dave", "eosio.token", ""])

_RECORDS = st.builds(
    TransactionRecord,
    chain=st.sampled_from(list(ChainId)),
    transaction_id=st.text(alphabet="abc123", max_size=6),
    block_height=st.integers(0, 2**40),
    timestamp=st.floats(0.0, 1e9),
    type=st.sampled_from(["transfer", "Payment", "endorsement", ""]),
    sender=_NAMES,
    receiver=_NAMES,
    contract=_NAMES,
    amount=st.floats(0.0, 1e12),
    currency=st.sampled_from(["EOS", "XRP", "BTC", ""]),
    issuer=_NAMES,
    fee=st.floats(0.0, 10.0),
    success=st.booleans(),
    error_code=st.sampled_from(["", "tecPATH_DRY"]),
    metadata=st.one_of(
        st.none(),
        st.just({}),
        st.dictionaries(st.sampled_from(["memo", "inline", "n"]), st.integers(0, 9), max_size=3),
    ),
)


def _fingerprint(frame):
    payload = frame.to_payload(arrays=True)
    return {
        "columns": {name: column.tobytes() for name, column in payload["columns"].items()},
        "transaction_id": payload["transaction_id"],
        "metadata": payload["metadata"],
        "pools": {name: list(values) for name, values in payload["pools"].items()},
        "sorted": frame.timestamps_sorted,
        "chain_rows": [(code, rows.tobytes()) for code, rows in frame._chain_rows.items()],
        "chain_bounds": list(frame._chain_bounds.items()),
    }


class TestAppendParity:
    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(_RECORDS, max_size=3 * SMALL_BATCH + 2),
        default_metadata=st.booleans(),
    )
    def test_extend_matches_per_row_append(self, records, default_metadata):
        if default_metadata:  # the record type's own (shared, read-only) default
            records = [record._replace(metadata=EMPTY_MAPPING) for record in records]
        appended = TxFrame()
        for record in records:
            appended.append(record)
        with mock.patch.object(columns, "EXTEND_BATCH_ROWS", SMALL_BATCH):
            extended = TxFrame()
            assert extended.extend(iter(records)) == len(records)
        assert _fingerprint(extended) == _fingerprint(appended)

    @pytest.mark.parametrize(
        "count", [0, 1, SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 1, 2 * SMALL_BATCH]
    )
    def test_batch_boundaries(self, count):
        # Out of order across the boundary, two chains, a pool entry first
        # seen in every role.
        records = [
            _record(
                chain=ChainId.XRP if i % 3 == 0 else ChainId.EOS,
                tx=f"tx{i}",
                ts=float(100 - i if i == SMALL_BATCH else i),
                sender=f"account{i % 5}",
                issuer=f"account{(i + 1) % 7}",
            )
            for i in range(count)
        ]
        appended = TxFrame()
        for record in records:
            appended.append(record)
        with mock.patch.object(columns, "EXTEND_BATCH_ROWS", SMALL_BATCH):
            extended = TxFrame.from_records(iter(records))
        assert _fingerprint(extended) == _fingerprint(appended)

    def test_extend_on_top_of_existing_rows_keeps_sortedness_and_bounds(self):
        frame = TxFrame.from_records([_record(tx="a", ts=50.0)])
        frame.extend([_record(tx="b", ts=60.0), _record(tx="c", ts=70.0)])
        assert frame.timestamps_sorted
        frame.extend([_record(tx="d", ts=65.0)])
        assert not frame.timestamps_sorted
        assert frame.chain_bounds(ChainId.EOS) == (50.0, 70.0)

    def test_rows_drawn_before_a_failing_source_raised_are_kept(self):
        def source():
            yield _record(tx="a")
            yield _record(tx="b")
            raise RuntimeError("source died")

        frame = TxFrame()
        with pytest.raises(RuntimeError):
            frame.extend(source())
        assert frame.transaction_id == ["a", "b"]

    def test_intern_many_assigns_codes_in_sequence_order(self):
        pool = StringPool(["seen"])
        assert pool.intern_many(["new", "seen", "newer", "new"]) == [1, 0, 2, 1]
        assert pool.values == ["seen", "new", "newer"]
        assert pool.intern_many([]) == []


class TestMetadataAdoption:
    """``append`` and ``extend`` keep a record's metadata ``dict`` itself;
    any other mapping is copied into one, and nothing the frame does
    afterwards writes to an adopted dict."""

    @pytest.mark.parametrize("path", ["append", "extend"])
    def test_a_dict_is_adopted(self, path):
        metadata = {"memo": "hi"}
        frame = TxFrame()
        record = _record(metadata=metadata)
        frame.append(record) if path == "append" else frame.extend([record])
        assert frame.metadata[0] is metadata

    @pytest.mark.parametrize("path", ["append", "extend"])
    @pytest.mark.parametrize(
        "mapping",
        [
            lambda: MappingProxyType({"memo": "hi"}),
            lambda: OrderedDict(memo="hi"),
        ],
        ids=["proxy", "dict-subclass"],
    )
    def test_any_other_mapping_is_copied_into_a_dict(self, path, mapping):
        metadata = mapping()
        frame = TxFrame()
        record = _record(metadata=metadata)
        frame.append(record) if path == "append" else frame.extend([record])
        stored = frame.metadata[0]
        assert type(stored) is dict and stored is not metadata
        assert stored == {"memo": "hi"}

    def test_no_frame_path_writes_to_an_adopted_dict(self, tmp_path, eos_records, xrp_records):
        from repro.analysis.report import full_report
        from repro.collection.store import FrameStore

        records = [
            record._replace(metadata=dict(record.metadata))
            for record in eos_records[:400] + xrp_records[:400]
        ]
        before = copy.deepcopy([record.metadata for record in records])
        frame = TxFrame()
        for record in records[:300]:
            frame.append(record)
        frame.extend(records[300:])
        assert all(
            frame.metadata[row] is record.metadata
            for row, record in enumerate(records)
            if record.metadata
        )
        for row in range(len(frame)):
            frame.record(row).metadata["touched"] = True
        list(frame.iter_records())
        frame.to_payload(arrays=True)
        frame.to_payload(rows=frame.chain_view(ChainId.XRP).rows)
        TxFrame.concat([frame, frame])
        TxFrame.from_payload(frame.to_payload())
        full_report(frame)
        full_report(frame.time_window(0.0, float("inf")))
        store = FrameStore(directory=str(tmp_path))
        store.add_frame(frame)
        store.flush()
        store.to_frame()
        assert [record.metadata for record in records] == before
