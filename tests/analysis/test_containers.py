"""The container contract, once over all six representations.

Whatever the kind and whichever representation holds it, a container must
round-trip through its payload, fold payloads associatively over disjoint
row ranges, agree between its row adder and its block adder, and refuse the
other representation's state before touching its own.
"""

from __future__ import annotations

import pytest

from repro.analysis import containers
from repro.analysis.vectorized import block_columns
from repro.common import statsmode
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
    def make(mode):
        return containers.distinct(mode)

    @staticmethod
    def add_rows(container, frame, rows):
        add = container.row_adder()
        for row in rows:
            add(row)

    @staticmethod
    def add_block(container, frame, rows):
        container.block_adder()(rows)

    @staticmethod
    def query(container):
        return container.count()


class TopK:
    @staticmethod
    def make(mode):
        return containers.top_k(mode, "pairs", 2)

    @staticmethod
    def add_rows(container, frame, rows):
        add = container.row_adder()
        for row in rows:
            add((frame.sender_code[row], frame.type_code[row]))

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


class Quantiles:
    @staticmethod
    def make(mode):
        return containers.quantiles(mode)

    @staticmethod
    def add_rows(container, frame, rows):
        add = container.row_adder()
        for row in rows:
            add(frame.amount[row])

    @staticmethod
    def add_block(container, frame, rows):
        container.block_adder()(block_columns(rows, frame.ndarray("amount"))[0])

    @staticmethod
    def query(container):
        return container.summary((0.5, 0.9, 0.99)), container.approximate


CASES = [
    pytest.param(kind, mode, id=f"{kind.__name__}-{mode}")
    for kind in (Distinct, TopK, Quantiles)
    for mode in (statsmode.EXACT, statsmode.SKETCH)
]


def _filled(kind, mode, frame, rows, adder="add_block"):
    container = kind.make(mode).fresh(frame)
    getattr(kind, adder)(container, frame, rows)
    return container


def test_the_factories_cover_the_six_classes():
    made = {type(kind.make(mode)) for kind, mode in (case.values for case in CASES)}
    assert made == {
        containers.ExactIdSet, containers.HllDistinct,
        containers.ExactCounts, containers.SpaceSavingCounts,
        containers.SortedColumn, containers.SketchQuantiles,
    }  # fmt: skip
    for kind, mode in (case.values for case in CASES):
        exact = mode == statsmode.EXACT
        assert (kind.make(mode).signature() == ()) == exact


@pytest.mark.parametrize("kind, mode", CASES)
def test_payload_round_trips_into_a_fresh_twin(kind, mode, frame):
    source = _filled(kind, mode, frame, range(ROWS))
    twin = kind.make(mode).fresh(frame)
    twin.restore_state(source.export_state())
    assert kind.query(twin) == kind.query(source)
    # ... and the twin writes the bytes it read.
    assert encode(twin.export_state()) == encode(source.export_state())


@pytest.mark.parametrize("kind, mode", CASES)
def test_row_adder_and_block_adder_agree(kind, mode, frame):
    by_row = _filled(kind, mode, frame, range(ROWS), adder="add_rows")
    by_block = _filled(kind, mode, frame, range(ROWS))
    assert kind.query(by_row) == kind.query(by_block)


@pytest.mark.parametrize("kind, mode", CASES)
def test_merge_is_associative_over_disjoint_ranges(kind, mode, frame):
    cuts = (range(0, 150), range(150, 410), range(410, ROWS))
    left = [_filled(kind, mode, frame, rows) for rows in cuts]
    left[0].restore_state(left[1].export_state())
    left[0].restore_state(left[2].export_state())
    right = [_filled(kind, mode, frame, rows) for rows in cuts]
    right[1].restore_state(right[2].export_state())
    right[0].restore_state(right[1].export_state())
    whole = _filled(kind, mode, frame, range(ROWS))
    assert kind.query(left[0]) == kind.query(right[0]) == kind.query(whole)


@pytest.mark.parametrize("kind, mode", CASES)
def test_the_other_representation_is_rejected_untouched(kind, mode, frame):
    other_mode = statsmode.SKETCH if mode == statsmode.EXACT else statsmode.EXACT
    container = _filled(kind, mode, frame, range(0, 300))
    other = _filled(kind, other_mode, frame, range(300, ROWS))
    before = encode(container.export_state())
    with pytest.raises(AnalysisError):
        container.restore_state(other.export_state())
    assert encode(container.export_state()) == before
