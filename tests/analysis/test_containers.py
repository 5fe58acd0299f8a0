"""The container contract, once over the three kinds of statistic.

Whatever the kind, a container must round-trip through its payload, fold
payloads associatively over disjoint row ranges, answer what a plain oracle
over the same rows answers (an id-run count, a ``Counter``, a sorted list),
and refuse a payload without its field before touching its own state.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import containers
from repro.analysis.vectorized import block_columns
from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId, TransactionRecord
from repro.common.statecodec import encode

ROWS = 600


@pytest.fixture(scope="module")
def frame() -> TxFrame:
    return TxFrame.from_records(
        TransactionRecord(
            chain=ChainId.XRP,
            # Every third row repeats an id, sender 0 is the empty account.
            transaction_id=f"tx{index - (index % 3 == 2)}",
            block_height=index // 16,
            timestamp=1.5e9 + index,
            type=("Payment", "OfferCreate")[index % 2],
            sender="" if index % 50 == 0 else f"s{index % 37}",
            receiver=f"r{index % 11}",
            amount=0.25 * (index % 97),
            currency="XRP",
        )
        for index in range(ROWS)
    )


class Distinct:
    @staticmethod
    def make():
        return containers.IdRuns()

    @staticmethod
    def add_block(container, frame, rows):
        container.block_adder()(rows)

    @staticmethod
    def query(container):
        return container.count()

    @staticmethod
    def oracle(frame, rows):
        """Runs of equal ids in row order."""
        return sum(1 for _ in itertools.groupby(frame.transaction_id[row] for row in rows))


class TopK:
    @staticmethod
    def make():
        return containers.ExactCounts("pairs", 2)

    @staticmethod
    def add_block(container, frame, rows):
        columns = (frame.ndarray("sender_code"), frame.ndarray("type_code"))
        # ordered=False is the only way to reach the dense histogram.
        add = container.block_adder(
            (len(frame.accounts), len(frame.types)), ordered=False
        )
        add(block_columns(rows, *columns))

    @staticmethod
    def query(container):
        return sorted(container.items()), container.total

    @staticmethod
    def oracle(frame, rows):
        """(sender, type) code pairs of the rows with a sender."""
        counts = Counter(
            (frame.sender_code[row], frame.type_code[row])
            for row in rows
            if frame.accounts.values[frame.sender_code[row]]
        )
        return sorted(counts.items()), sum(counts.values())


class Quantiles:
    @staticmethod
    def make():
        return containers.SortedColumn()

    @staticmethod
    def add_block(container, frame, rows):
        container.block_adder()(block_columns(rows, frame.ndarray("amount"))[0])

    @staticmethod
    def query(container):
        return container.summary((0.5, 0.9, 0.99))

    @staticmethod
    def oracle(frame, rows):
        """Count, exact sum, extremes and lower nearest-rank quantiles."""
        values = sorted(frame.amount[row] for row in rows)
        last = len(values) - 1
        ranked = [values[int(q * last)] for q in (0.5, 0.9, 0.99)]
        return len(values), math.fsum(values), values[0], values[-1], ranked


CASES = [pytest.param(kind, id=kind.__name__) for kind in (Distinct, TopK, Quantiles)]


def _filled(kind, frame, rows):
    container = kind.make().fresh(frame)
    kind.add_block(container, frame, rows)
    return container


@pytest.mark.parametrize("kind", CASES)
def test_payload_round_trips_into_a_fresh_twin(kind, frame):
    source = _filled(kind, frame, range(ROWS))
    twin = kind.make().fresh(frame)
    twin.restore_state(source.export_state())
    assert kind.query(twin) == kind.query(source)
    # ... and the twin writes the bytes it read.
    assert encode(twin.export_state()) == encode(source.export_state())


@pytest.mark.parametrize("kind", CASES)
def test_block_adder_answers_the_plain_oracle(kind, frame):
    assert kind.query(_filled(kind, frame, range(ROWS))) == kind.oracle(frame, range(ROWS))


@pytest.mark.parametrize("kind", CASES)
def test_merge_is_associative_over_disjoint_ranges(kind, frame):
    cuts = (range(0, 150), range(150, 410), range(410, ROWS))
    left = [_filled(kind, frame, rows) for rows in cuts]
    left[0].restore_state(left[1].export_state())
    left[0].restore_state(left[2].export_state())
    right = [_filled(kind, frame, rows) for rows in cuts]
    right[1].restore_state(right[2].export_state())
    right[0].restore_state(right[1].export_state())
    whole = _filled(kind, frame, range(ROWS))
    assert kind.query(left[0]) == kind.query(right[0]) == kind.query(whole)


@pytest.mark.parametrize("kind", CASES)
def test_a_payload_without_the_field_is_rejected_untouched(kind, frame):
    container = _filled(kind, frame, range(0, 300))
    # Another kind's payload: well-formed, but not this container's field.
    other = _filled(TopK if kind is Distinct else Distinct, frame, range(300, ROWS))
    before = encode(container.export_state())
    with pytest.raises(AnalysisError):
        container.restore_state(other.export_state())
    assert encode(container.export_state()) == before


# -- the run counter -------------------------------------------------------------------


def _id_frame(ids) -> TxFrame:
    return TxFrame.from_records(
        TransactionRecord(
            chain=ChainId.EOS,
            transaction_id=transaction_id,
            block_height=index,
            timestamp=1.5e9 + index,
            type="transfer",
            sender="a",
            receiver="b",
        )
        for index, transaction_id in enumerate(ids)
    )


def _id_runs(frame, rows):
    return _filled(Distinct, frame, rows)


@settings(max_examples=60, deadline=None)
@given(
    run_lengths=st.lists(st.integers(min_value=1, max_value=5), max_size=30),
    data=st.data(),
)
def test_id_runs_fold_counts_distinct_ids_however_the_rows_are_cut(run_lengths, data):
    ids = [f"tx{run}" for run, length in enumerate(run_lengths) for _ in range(length)]
    frame = _id_frame(ids)
    # Arbitrary cut positions: inside runs, repeated (empty pieces), at the ends.
    cuts = sorted(
        data.draw(st.lists(st.integers(min_value=0, max_value=len(ids)), max_size=8))
    )
    bounds = [0, *cuts, len(ids)]
    folded = containers.IdRuns().fresh(frame)
    for start, stop in zip(bounds, bounds[1:]):
        folded.restore_state(_id_runs(frame, range(start, stop)).export_state())
    assert folded.count() == len(set(ids)) == len(run_lengths)
    whole = _id_runs(frame, range(len(ids)))
    assert encode(folded.export_state()) == encode(whole.export_state())


def test_id_runs_block_adder_answers_the_oracle_on_ranges_and_index_arrays(frame):
    index_rows = np.flatnonzero(np.arange(ROWS) % 5 != 1)  # drops rows inside runs
    for rows in (range(ROWS), range(7, 431), index_rows):
        by_block = _id_runs(frame, rows)
        ids = [frame.transaction_id[row] for row in rows]
        expected = len(set(ids))
        assert by_block.count() == Distinct.oracle(frame, rows) == expected
        oracle_state = {"runs": expected, "first_id": ids[0], "last_id": ids[-1]}
        assert encode(by_block.export_state()) == encode(oracle_state)


def test_id_runs_restored_prefix_then_delta_scan_is_one_scan(frame):
    split = 410  # rows 409 and 410 share an id: the run straddles the watermark
    assert frame.transaction_id[split - 1] == frame.transaction_id[split]
    resumed = containers.IdRuns().fresh(frame)
    resumed.restore_state(_id_runs(frame, range(split)).export_state())
    Distinct.add_block(resumed, frame, range(split, ROWS))
    whole = _id_runs(frame, range(ROWS))
    assert resumed.count() == whole.count()
    assert encode(resumed.export_state()) == encode(whole.export_state())


@pytest.mark.parametrize(
    "payload",
    [
        {"runs": -1, "first_id": "a", "last_id": "b"},
        {"runs": 2, "first_id": 7, "last_id": "b"},
        {"runs": 2, "first_id": "a", "last_id": None},
        {"runs": "2", "first_id": "a", "last_id": "b"},
        {"first_id": "a", "last_id": "b"},
    ],
    ids=["negative-runs", "non-string-first", "missing-last", "non-int-runs", "no-runs"],
)
def test_id_runs_rejects_a_malformed_payload_untouched(payload, frame):
    container = _id_runs(frame, range(0, 300))
    before = encode(container.export_state())
    with pytest.raises(AnalysisError):
        container.restore_state(payload)
    assert encode(container.export_state()) == before
