"""Each state container against an independent reference answer.

``test_containers`` checks the containers' contract (payload round trips,
one scan vs folded pieces); this checks them against what the paper's
figures need, computed another way: ``len(set(ids))`` for the
distinct count, ``collections.Counter`` for the top-k tallies, and a
selection (``heapq.nsmallest``) and ``math.fsum`` for the distributions.

The keys are swept across the adversarial distributions a tally meets —
``uniform`` (every weight equal), ``zipf`` (a power-law head over a long
tail, the shape of the paper's per-account Figures 4-6) and
``single_hot_key`` (one key carries almost the whole stream) — and the
values across uniform, log-normal and single-hot-value streams.  Every
answer is exact at any size, so the streams stay small.
"""

from __future__ import annotations

import heapq
import itertools
import math
from array import array
from collections import Counter
from random import Random
from typing import Callable, Dict, List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.containers import ExactCounts, IdRuns, SortedColumn
from repro.common import statecodec
from repro.common.columns import TxFrame
from repro.common.records import ChainId, TransactionRecord

STREAM = 20_000


def uniform_keys(count: int, seed: int = 0) -> List[int]:
    """``count`` draws over ``count`` distinct keys."""
    rng = Random(seed)
    return [rng.randrange(count) for _ in range(count)]


def zipf_keys(count: int, seed: int = 0, s: float = 1.2) -> List[int]:
    """``count`` draws over ``count // 10`` ranks with P(rank) ∝ rank^-s."""
    rng = Random(seed)
    distinct = max(64, count // 10)
    weights = [1.0 / (rank + 1) ** s for rank in range(distinct)]
    return rng.choices(range(distinct), weights, k=count)


def single_hot_key(count: int, seed: int = 0, hot_share: float = 0.98) -> List[int]:
    """Key 0 carries ``hot_share`` of the stream; every other draw is new."""
    rng = Random(seed)
    return [0 if rng.random() < hot_share else index + 1 for index in range(count)]


KEYS: Dict[str, Callable[[int], List[int]]] = {
    "uniform": uniform_keys,
    "zipf": zipf_keys,
    "single_hot_key": single_hot_key,
}


def _value_stream(name: str, count: int = STREAM) -> List[float]:
    rng = Random(11)
    if name == "uniform":
        return [rng.uniform(0.01, 10_000.0) for _ in range(count)]
    if name == "lognormal":
        return [rng.lognormvariate(3.0, 2.0) for _ in range(count)]
    hot = count - count // 50
    return [42.0] * hot + [rng.uniform(0.5, 5.0) for _ in range(count - hot)]


VALUE_STREAMS = ("lognormal", "single_hot_value", "uniform")


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


def _blocks(count: int, pieces: int = 8):
    bounds = np.linspace(0, count, pieces + 1).astype(int)
    return [range(start, stop) for start, stop in zip(bounds, bounds[1:])]


# -- distinct ids ------------------------------------------------------------------------


class TestIdRuns:
    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_count_is_the_number_of_distinct_ids(self, name):
        # Grouped: a transaction's rows are one run, as committed history is.
        ids = [f"tx{key}" for key in sorted(KEYS[name](STREAM))]
        frame = _id_frame(ids)
        container = IdRuns(frame)
        add = container.block_adder()
        for rows in _blocks(len(ids)):
            add(rows)
        runs = sum(1 for _ in itertools.groupby(ids))
        assert container.count() == runs == len(set(ids))

    def test_a_repeated_id_never_inflates(self):
        ids = [f"dup{index}" for index in range(500) for _ in range(20)]
        frame = _id_frame(ids)
        container = IdRuns(frame)
        add = container.block_adder()
        # Block edges fall inside runs: the continuing run is counted once.
        for rows in _blocks(len(ids), pieces=13):
            add(rows)
        assert container.count() == 500

    def test_count_at_scale(self):
        ids = [f"dense{index}" for index in range(100_000)]
        container = IdRuns(_id_frame(ids))
        container.block_adder()(range(len(ids)))
        assert container.count() == 100_000

    def test_interleaved_ids_count_runs_not_ids(self):
        """The documented precondition: interleaving over-counts, which is
        why the stores refuse it."""
        container = IdRuns(_id_frame(["a", "b", "a", "a", "c"]))
        container.block_adder()(range(5))
        assert container.count() == 4


# -- top-k tallies ------------------------------------------------------------------------


class TestExactCounts:
    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_tiny_block_tally_is_the_counter(self, name):
        keys = KEYS[name](STREAM)
        codes = np.asarray(keys, dtype=np.int64)
        container = ExactCounts("senders", 1)
        add = container.block_adder((len(keys) + 1,))
        # Blocks of 1 and 7 keys: first-seen order must hold across blocks.
        start = 0
        for size in itertools.cycle((1, 7)):
            if start >= len(keys):
                break
            add((codes[start : start + size],))
            start += size
        # Same counts *and* the same first-seen order most_common tie-breaks on.
        assert list(container.items()) == list(Counter(keys).items())
        assert container.total == len(keys)

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_ordered_block_adder_keeps_first_seen_order(self, name):
        keys = KEYS[name](STREAM)
        codes = np.asarray(keys, dtype=np.int64)
        container = ExactCounts("senders", 1)
        add = container.block_adder((len(keys) + 1,))
        for rows in _blocks(len(keys)):
            add((codes[rows.start : rows.stop],))
        assert list(container.items()) == list(Counter(keys).items())

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_dense_block_adder_tally_is_the_counter(self, name):
        keys = KEYS[name](STREAM)
        parity = [key % 2 for key in keys]
        columns = (np.asarray(keys, dtype=np.int64), np.asarray(parity, dtype=np.int64))
        container = ExactCounts("pairs", 2)
        add = container.block_adder((len(keys) + 1, 2), ordered=False)
        for rows in _blocks(len(keys)):
            add(tuple(column[rows.start : rows.stop] for column in columns))
        assert dict(container.items()) == Counter(zip(keys, parity))
        assert container.total == len(keys)

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_sharded_restore_is_the_counter(self, name):
        keys = KEYS[name](STREAM)
        shards = [_counts(keys[offset::4]) for offset in range(4)]
        merged = ExactCounts("senders", 1)
        for shard in reversed(shards):
            merged.restore_state(shard.export_state())
        assert dict(merged.items()) == Counter(keys)
        assert merged.total == len(keys)

    @pytest.mark.parametrize("width", [1, 2])
    def test_the_empty_account_is_never_counted(self, width):
        senders = ["", "alice", "bob", "", "alice", "carol"]
        frame = TxFrame.from_records(
            TransactionRecord(
                chain=ChainId.XRP,
                transaction_id=f"tx{index}",
                block_height=index,
                timestamp=1.5e9 + index,
                type="Payment",
                sender=sender,
                receiver="dave",
            )
            for index, sender in enumerate(senders)
        )
        container = ExactCounts("senders", width, frame)
        columns = (frame.ndarray("sender_code"), frame.ndarray("type_code"))[:width]
        sizes = (len(frame.accounts), len(frame.types))[:width]
        container.block_adder(sizes)(columns)
        named = Counter(sender for sender in senders if sender)
        counted = {
            frame.accounts.values[key if width == 1 else key[0]]: count
            for key, count in container.items()
        }
        assert counted == named
        assert container.total == sum(named.values()) == 4


# -- distributions ------------------------------------------------------------------------

QUANTILES = (0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0)


def _nearest_rank(values, q: float) -> float:
    """The lower nearest-rank value, found by selection rather than a sort."""
    rank = int(q * (len(values) - 1))
    return heapq.nsmallest(rank + 1, values)[-1]


def _column(values) -> SortedColumn:
    container = SortedColumn()
    container.block_adder()(np.asarray(values, dtype=np.float64))
    return container


class TestSortedColumn:
    @pytest.mark.parametrize("name", VALUE_STREAMS)
    def test_quantiles_are_the_nearest_rank_values(self, name):
        values = _value_stream(name)
        *_, ranked = _column(values).summary(QUANTILES)
        assert ranked == [_nearest_rank(values, q) for q in QUANTILES]

    @pytest.mark.parametrize("name", VALUE_STREAMS)
    def test_count_sum_min_max_are_exact(self, name):
        values = _value_stream(name)
        count, total, minimum, maximum, _ = _column(values).summary(QUANTILES)
        assert (count, total, minimum, maximum) == (
            len(values),
            math.fsum(values),
            min(values),
            max(values),
        )

    def test_a_constant_stream_is_exact(self):
        assert _column([7.5] * 10_000).summary((0.0, 0.5, 1.0)) == (
            10_000,
            75_000.0,
            7.5,
            7.5,
            [7.5, 7.5, 7.5],
        )

    def test_an_empty_column_summarises_to_zeros(self):
        assert SortedColumn().summary((0.5, 0.9)) == (0, 0.0, 0.0, 0.0, [0.0, 0.0])


# -- merge order --------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

keys_strategy = st.lists(st.integers(min_value=0, max_value=40), max_size=300)
values_strategy = st.lists(
    st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False),
    max_size=300,
)


def _shards(items, seed: int, count: int):
    """Deal ``items`` into ``count`` shards, then shuffle the shard order."""
    rng = Random(seed)
    shards = [[] for _ in range(count)]
    for item in items:
        shards[rng.randrange(count)].append(item)
    rng.shuffle(shards)
    return shards


def _counts(keys) -> ExactCounts:
    """``keys`` tallied by the ordered block adder, as one block."""
    container = ExactCounts("senders", 1)
    if keys:
        codes = np.asarray(keys, dtype=np.int64)
        container.block_adder((max(keys) + 1,))((codes,))
    return container


def _values(values) -> SortedColumn:
    return _column(values)


@PROPERTY_SETTINGS
@given(keys=keys_strategy, seed=st.integers(0, 2**31 - 1), shard_count=st.integers(1, 5))
def test_counts_in_any_shard_order_equal_the_serial_tally(keys, seed, shard_count):
    merged = ExactCounts("senders", 1)
    for shard in _shards(keys, seed, shard_count):
        merged.restore_state(_counts(shard).export_state())
    assert dict(merged.items()) == dict(_counts(keys).items()) == Counter(keys)


@PROPERTY_SETTINGS
@given(keys=keys_strategy, split=st.floats(0.0, 1.0))
def test_counts_merged_in_row_order_write_the_serial_bytes(keys, split):
    cut = int(len(keys) * split)
    left = _counts(keys[:cut])
    left.restore_state(_counts(keys[cut:]).export_state())
    serial = _counts(keys).export_state()
    assert statecodec.encode(left.export_state()) == statecodec.encode(serial)


@PROPERTY_SETTINGS
@given(values=values_strategy, seed=st.integers(0, 2**31 - 1), shard_count=st.integers(1, 5))
def test_values_in_any_shard_order_summarise_like_the_serial_column(values, seed, shard_count):
    merged = SortedColumn()
    for shard in _shards(values, seed, shard_count):
        merged.restore_state(_values(shard).export_state())
    assert merged.summary(QUANTILES) == _values(values).summary(QUANTILES)


@PROPERTY_SETTINGS
@given(values=values_strategy, split=st.floats(0.0, 1.0))
def test_values_merged_in_row_order_write_the_serial_bytes(values, split):
    cut = int(len(values) * split)
    left = _values(values[:cut])
    left.restore_state(_values(values[cut:]).export_state())
    serial = _values(values).export_state()
    assert statecodec.encode(left.export_state()) == statecodec.encode(serial)


@PROPERTY_SETTINGS
@given(keys=keys_strategy, values=values_strategy)
def test_codec_round_trip_preserves_state(keys, values):
    """export → statecodec bytes → restore into a blank twin → same payload."""
    for original, blank in (
        (_counts(keys), ExactCounts("senders", 1)),
        (_values(values), SortedColumn()),
    ):
        payload = statecodec.decode(statecodec.encode(original.export_state()))
        blank.restore_state(payload)
        assert statecodec.encode(blank.export_state()) == statecodec.encode(
            original.export_state()
        )


def test_a_restored_column_is_a_copy():
    """Restoring never aliases the payload: folding one payload twice counts it twice."""
    payload = {"values": array("d", [1.0, 2.0])}
    target = SortedColumn()
    target.restore_state(payload)
    target.restore_state(payload)
    assert payload["values"] == array("d", [1.0, 2.0])
    assert target.summary((0.5,))[:2] == (4, 6.0)
