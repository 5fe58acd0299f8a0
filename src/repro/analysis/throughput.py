"""Throughput time series and TPS (Figure 3 and the headline numbers).

Figure 3 plots, for each chain, the number of transactions per 6-hour bin
broken down by category; the introduction quotes the average throughput as
20 TPS for EOS, 0.08 TPS for Tezos and 19 TPS for XRP.  Both views are
computed here from the columnar transaction frame: the binning is a
single-pass :class:`ThroughputSeriesAccumulator` so it can share the
engine's one iteration with every other figure.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from array import array

from repro.common.columns import TxFrame, as_ndarray
from repro.common.errors import AnalysisError
from repro.analysis.engine import Accumulator, BatchStep, RowIndices, Step
from repro.analysis.vectorized import (
    block_columns,
    dense_space,
    pack_codes,
    unique_counts_ordered,
    unpack_codes,
)

#: Figure 3 uses 6-hour bins.  An int: it is part of every series'
#: ``config_signature``, so a float here would miss every state-cache entry.
DEFAULT_BIN_SECONDS = 6 * 3600

#: A key-column categorizer factory: given the bound frame, returns the
#: integer column(s) whose values identify a category plus a labeler mapping
#: a column value (or tuple of values) to its display label.  Bins are
#: counted with one packed (bin, key) histogram per block and labels are
#: resolved once per distinct key.
KeyColumnsFactory = Callable[[TxFrame], Tuple[Tuple[Sequence, ...], Callable]]


class ThroughputSeries:
    """Per-category transaction counts over consecutive time bins."""

    def __init__(
        self,
        bin_seconds: float,
        start: float,
        categories: Tuple[str, ...],
        bins: Optional[List[Dict[str, int]]] = None,
    ):
        self.bin_seconds = bin_seconds
        self.start = start
        self.categories = categories
        self.bins: List[Dict[str, int]] = [] if bins is None else bins

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"ThroughputSeries({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def bin_count(self) -> int:
        return len(self.bins)

    def bin_start(self, index: int) -> float:
        """Timestamp at which bin ``index`` begins."""
        return self.start + index * self.bin_seconds

    def totals(self) -> Dict[str, int]:
        """Total count per category across all bins."""
        totals: Dict[str, int] = {category: 0 for category in self.categories}
        for bin_counts in self.bins:
            for category, count in bin_counts.items():
                totals[category] = totals.get(category, 0) + count
        return totals

    def series_for(self, category: str) -> List[int]:
        """Counts of one category across bins (a single plotted line)."""
        return [bin_counts.get(category, 0) for bin_counts in self.bins]

    def total_series(self) -> List[int]:
        """Total counts per bin across every category."""
        return [sum(bin_counts.values()) for bin_counts in self.bins]

    def peak_bin(self) -> Tuple[int, int]:
        """(bin index, total count) of the busiest bin."""
        totals = self.total_series()
        if not totals:
            raise AnalysisError("throughput series has no bins")
        index = max(range(len(totals)), key=totals.__getitem__)
        return index, totals[index]

    def average_per_bin(self, category: Optional[str] = None) -> float:
        if not self.bins:
            return 0.0
        if category is None:
            return sum(self.total_series()) / len(self.bins)
        return sum(self.series_for(category)) / len(self.bins)


#: Session-unique token embedded in unprovable factory identities, so a
#: checkpoint written by another process can never accidentally match one.
_SESSION_TOKEN = os.urandom(16).hex()


def _categorizer_id(factory) -> str:
    """Identity of a categorizer factory for config signatures.

    A plain module-level function is its module-qualified name.  Closures
    (and anything else whose behaviour the name cannot prove: two closures
    returned by the same maker share one ``__qualname__`` while behaving
    differently) get a session-unique identity instead.  That makes them
    deliberately *unmergeable* across checkpoints — a restore falls back to
    a rescan, which is over-conservative but never silently wrong.
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if (
        module
        and qualname
        and "<locals>" not in qualname
        and not getattr(factory, "__closure__", None)
    ):
        return f"{module}.{qualname}"
    return f"unprovable:{module}.{qualname}@{id(factory):x}:{_SESSION_TOKEN}"


class ThroughputSeriesAccumulator(Accumulator):
    """Single-pass Figure 3 binning: counts per time bin per category.

    ``start`` anchors bin 0.  The engine's callers know the window before
    the pass starts (the frame tracks per-chain timestamp bounds at append
    time), so the accumulator never needs a pre-scan of its own.

    ``key_columns`` (a :data:`KeyColumnsFactory`) yields the integer key
    column(s) of a category plus a labeler; the scan counts keys per bin
    and labels resolve once per distinct key at :meth:`finalize`.
    ``ThroughputSeries.categories`` lists labels in first-seen order over
    the bins in *time* order, whatever order the scan visited rows in.
    """

    name = "throughput_series"

    def __init__(
        self,
        key_columns: KeyColumnsFactory,
        bin_seconds: float = DEFAULT_BIN_SECONDS,
        start: float = 0.0,
        end: Optional[float] = None,
    ):
        if bin_seconds <= 0:
            raise AnalysisError("bin_seconds must be positive")
        if end is not None and end < start:
            raise AnalysisError("end must not precede start")
        self.key_columns = key_columns
        self.bin_seconds = bin_seconds
        self.start = start
        self.end = end

    def _reset(self, frame: TxFrame) -> None:
        #: Bin index → Counter of unresolved keys; labels resolve once per
        #: distinct key at :meth:`finalize`.
        self._raw_bins: Dict[int, Counter] = {}
        # The factory may build per-frame lookups (e.g. the EOS category
        # table), so it runs once per bind and feeds whichever kernel binds.
        self._columns, self._labeler = self.key_columns(frame)

    def bind(self, frame: TxFrame) -> Step:
        self._reset(frame)
        timestamps = frame.timestamp
        start = self.start
        end = self.end
        bin_seconds = self.bin_seconds
        columns = self._columns
        single = columns[0] if len(columns) == 1 else None
        raw_bins = self._raw_bins

        def step(row: int) -> None:
            timestamp = timestamps[row]
            if timestamp < start or (end is not None and timestamp > end):
                return
            index = int((timestamp - start) // bin_seconds)
            counter = raw_bins.get(index)
            if counter is None:
                counter = raw_bins[index] = Counter()
            if single is not None:
                counter[single[row]] += 1
            else:
                counter[tuple(column[row] for column in columns)] += 1

        return step

    def bind_batch(self, frame: TxFrame) -> BatchStep:
        """Vectorized binning: one packed (bin, key) histogram per block.

        The bin index, the window mask and the key packing are all ndarray
        operations; labels still resolve once per *distinct* key at
        finalisation.
        """
        import numpy as np

        self._reset(frame)
        nd_columns = [
            column if isinstance(column, np.ndarray) else as_ndarray(column)
            for column in self._columns
        ]
        raw_bins = self._raw_bins
        single = len(nd_columns) == 1
        timestamps = frame.ndarray("timestamp")
        start = self.start
        end = self.end
        bin_seconds = self.bin_seconds

        def consume(rows: RowIndices) -> None:
            if not len(rows):
                return
            blocks = block_columns(rows, timestamps, *nd_columns)
            block_ts, keys = blocks[0], blocks[1:]
            mask = block_ts >= start
            if end is not None:
                mask &= block_ts <= end
            if not mask.all():
                block_ts = block_ts[mask]
                if not len(block_ts):
                    return
                keys = tuple(key[mask] for key in keys)
            bin_indices = ((block_ts - start) // bin_seconds).astype(np.int64)
            sizes = [int(bin_indices.max()) + 1]
            sizes.extend(int(key.max()) + 1 if len(key) else 1 for key in keys)
            packed = pack_codes((bin_indices,) + keys, sizes)
            if packed is None:  # pragma: no cover - int64 key-space overflow
                key_lists = [key.tolist() for key in keys]
                row_keys = key_lists[0] if single else list(zip(*key_lists))
                for bin_index, key in zip(bin_indices.tolist(), row_keys):
                    counter = raw_bins.get(bin_index)
                    if counter is None:
                        counter = raw_bins[bin_index] = Counter()
                    counter[key] += 1
                return
            uniques, counts = unique_counts_ordered(packed)
            # Split the bin index off the packed key; the rest decodes to
            # the key shape the factory fixed (int, or tuple of ints).
            bin_part, key_part = np.divmod(uniques, dense_space(sizes[1:]))
            for bin_index, key, count in zip(
                bin_part.tolist(), unpack_codes(key_part, sizes[1:]), counts.tolist()
            ):
                counter = raw_bins.get(bin_index)
                if counter is None:
                    counter = raw_bins[bin_index] = Counter()
                counter[key] += count

        return consume

    def export_state(self) -> Dict:
        """Columnar snapshot of the binning state.

        The bins flatten into whole int64 columns — bin indices and per-bin
        entry counts plus the concatenated key/count columns — so export
        cost is a handful of C ``extend`` calls per bin, not per entry.
        They keep insertion order, because :meth:`finalize` derives the
        category tuple from first-seen order within time-sorted bins.
        ``"bins"`` is always empty: the state bytes keep the key until the
        next state re-pin.
        """
        raw = self._raw_bins
        # Key shape is fixed by the key-columns factory: scalar ints for a
        # single column, tuples of a fixed width otherwise (and width 1
        # while no key has been seen).
        first = next((key for counter in raw.values() for key in counter), None)
        width = len(first) if isinstance(first, tuple) else 1
        key_columns = [array("q") for _ in range(width)]
        counts = array("q")
        if width == 1:
            column = key_columns[0]
            for counter in raw.values():
                column.extend(counter.keys())
                counts.extend(counter.values())
        else:
            for counter in raw.values():
                for column, values in zip(key_columns, zip(*counter.keys())):
                    column.extend(values)
                counts.extend(counter.values())
        return {
            "raw": {
                "w": width,
                "indices": array("q", raw.keys()),
                "sizes": array("q", map(len, raw.values())),
                "keys": key_columns,
                "counts": counts,
            },
            "bins": [],
        }

    def restore_state(self, payload: Dict) -> None:
        raw_payload = payload["raw"]
        mine = self._raw_bins
        width = raw_payload["w"]
        key_columns = raw_payload["keys"]
        counts = raw_payload["counts"]
        position = 0
        for index, size in zip(raw_payload["indices"], raw_payload["sizes"]):
            chunk = slice(position, position + size)
            position += size
            if width == 1:
                pairs = zip(key_columns[0][chunk], counts[chunk])
            else:
                pairs = zip(
                    zip(*(column[chunk] for column in key_columns)),
                    counts[chunk],
                )
            counter = mine.get(index)
            if counter is None:
                mine[index] = Counter(dict(pairs))
                continue
            get = counter.get
            for key, count in pairs:
                counter[key] = get(key, 0) + count

    def config_signature(self) -> tuple:
        """Bin geometry plus the categorizer identity.

        ``end`` is deliberately excluded: an incremental update legitimately
        extends the series window, and the binning state (bin index →
        counter) is anchored solely by ``start`` and ``bin_seconds``.  A
        *smaller* start (rows older than the checkpointed anchor) does
        change the signature, which is what forces the incremental reporter
        to fall back to a full rescan in that case.
        """
        return (
            type(self).__qualname__,
            self.name,
            self.bin_seconds,
            self.start,
            _categorizer_id(self.key_columns),
        )

    def finalize(self) -> ThroughputSeries:
        # Resolve raw keys to labels once per distinct key, into local
        # dicts: finalize reads state, it never writes it.  The category
        # tuple is first-seen order over bins in *time* order (and insertion
        # order within a bin): independent of how the scan or the shard
        # folds interleaved the bins.
        bins: Dict[int, Dict[str, int]] = {}
        categories: Dict[str, None] = {}
        labeler = self._labeler
        label_cache: Dict = {}
        for index in sorted(self._raw_bins):
            merged: Dict[str, int] = {}
            for key, count in self._raw_bins[index].items():
                label = label_cache.get(key)
                if label is None:
                    label = label_cache[key] = labeler(key)
                merged[label] = merged.get(label, 0) + count
            bins[index] = merged
            categories.update(dict.fromkeys(merged))
        if self.end is not None:
            bin_count = int((self.end - self.start) // self.bin_seconds) + 1
        else:
            bin_count = (max(bins) + 1) if bins else 0
        return ThroughputSeries(
            bin_seconds=self.bin_seconds,
            start=self.start,
            categories=tuple(categories),
            bins=[bins.get(index, {}) for index in range(bin_count)],
        )


def transactions_per_second(
    transaction_count: int, duration_seconds: float
) -> float:
    """Average TPS over a window (the paper's headline metric)."""
    if duration_seconds <= 0:
        raise AnalysisError("duration must be positive")
    return transaction_count / duration_seconds


def scaled_tps(
    transaction_count: int, duration_seconds: float, scale_factor: float
) -> float:
    """TPS extrapolated to the paper's full traffic scale.

    The workloads generate a configurable fraction of the real per-day
    volume; dividing the measured TPS by that fraction yields the number to
    compare against the paper's 20 / 0.08 / 19 TPS.
    """
    if scale_factor <= 0:
        raise AnalysisError("scale_factor must be positive")
    return transactions_per_second(transaction_count, duration_seconds) / scale_factor


def spike_ratio(series: ThroughputSeries, split_timestamp: float) -> float:
    """Ratio of average per-bin traffic after vs before ``split_timestamp``.

    Used to verify the ">10x traffic increase after the EIDOS launch"
    observation (§4.1) and the XRP spam-wave amplitudes (§4.3).
    """
    before: List[int] = []
    after: List[int] = []
    for index, total in enumerate(series.total_series()):
        if series.bin_start(index) < split_timestamp:
            before.append(total)
        else:
            after.append(total)
    if not before or not after:
        raise AnalysisError("split timestamp leaves one side of the series empty")
    before_avg = sum(before) / len(before)
    after_avg = sum(after) / len(after)
    if before_avg == 0:
        return float("inf")
    return after_avg / before_avg
