"""Bounded-memory streaming sketches for the ``REPRO_STATS=sketch`` mode.

Three mergeable summaries replace the accumulator layer's O(distinct)
exact state when sketch mode is active (:mod:`repro.common.statsmode`):

* :class:`HyperLogLog` — distinct transaction-id counts (Figure 2).
  2\\ :sup:`14` one-byte registers (~16 KB) give a ~0.81 % standard error;
  an exact *sparse* phase (a deduplicated hash buffer) keeps small
  cardinalities exact and converts to the dense registers only past
  :data:`HLL_SPARSE_LIMIT` distinct hashes.
* :class:`SpaceSaving` — top-account heavy hitters (Figures 4/5/6/8).
  A capacity-bounded tally with per-key over-count tracking: every
  estimate satisfies ``true <= estimate <= true + error``, and the tracked
  error is O(total / capacity).  Below capacity the summary *is* the exact
  tally.
* :class:`QuantileSketch` — payment-value distributions (§4.3).
  DDSketch-style logarithmic buckets with relative accuracy ``alpha``;
  merging adds bucket counts, so — like the HyperLogLog — the merged state
  is exactly independent of merge order.

All three share the contracts the accumulator layer needs: ``merge`` folds
another summary (process sharding, out-of-core chunk folding), and
``export_state`` / ``restore_state`` round-trip through
:mod:`repro.common.statecodec` payloads (checkpoints).  State payloads are
canonical — equal summaries export byte-identical payloads regardless of
the insertion or merge order that built them (the space-saving summary
canonicalises only once compaction has made the order unobservable).

Hashing
-------

Sketches must agree across processes and checkpoint restarts, so the
64-bit string hash is deterministic (built-in ``hash`` is salted per
process) and ships in two bit-identical implementations: :func:`hash64`
(pure Python, the reference and the row-step kernels' hash) and
:func:`hash64_batch` (vectorized: one NUL-joined buffer per slice, a
precomputed power table and a prefix-sum — no per-string Python work).  The
:meth:`~repro.common.columns.TxFrame.transaction_id_hashes` column caches
the batch hash per frame, so repeated sketch passes over the same frame
hash each id once.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ReproError
from repro.common.statecodec import CodecError

__all__ = [
    "DEFAULT_HEAVY_HITTERS",
    "DEFAULT_QUANTILE_ALPHA",
    "HLL_P",
    "HLL_SPARSE_LIMIT",
    "HyperLogLog",
    "QuantileSketch",
    "SpaceSaving",
    "hash64",
    "hash64_batch",
]

_MASK64 = (1 << 64) - 1

#: Polynomial base of the rolling hash (the FNV-1a 64-bit prime; odd, so it
#: is invertible modulo 2**64 and the vectorized prefix-sum factorisation
#: below is exact).
_BASE = 0x00000100000001B3
#: Modular inverse of the base — the pure-Python Horner fold multiplies by
#: this so it matches the vectorized forward factorisation bit for bit.
_INV_BASE = pow(_BASE, -1, 1 << 64)
#: Length salt folded in before the finalizer so prefixes of equal bytes
#: with different lengths cannot collide trivially.
_LEN_SALT = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: diffuses the polynomial fold into all 64 bits."""
    value ^= value >> 30
    value = (value * _MIX_1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX_2) & _MASK64
    value ^= value >> 31
    return value


def hash64(value: str) -> int:
    """Deterministic 64-bit hash of a string (pure-Python reference).

    A polynomial fold of the UTF-8 bytes modulo 2**64 (Horner, multiplier
    :data:`_INV_BASE`) followed by a SplitMix64 finalizer.  Stable across
    processes and Python versions — unlike built-in ``hash``, whose
    per-process salt would make persisted sketches unmergeable.
    """
    data = value.encode("utf-8")
    fold = 0
    for byte in data:
        fold = (fold * _INV_BASE + byte) & _MASK64
    return _mix64(fold ^ ((len(data) * _LEN_SALT) & _MASK64))


#: Ids per vectorized hashing slice; bounds the power-table size.
_HASH_SLICE = 16_384

#: Lazily grown (powers, inverse powers) tables for the vectorized hash.
_POWER_TABLES: Optional[Tuple[Any, Any]] = None


def _power_tables(size: int) -> Tuple[Any, Any]:
    global _POWER_TABLES
    import numpy as np

    tables = _POWER_TABLES
    if tables is not None and len(tables[0]) >= size:
        return tables
    grown = max(size, 1 << 16)
    powers = np.full(grown, _BASE, dtype=np.uint64)
    powers[0] = 1
    np.cumprod(powers, out=powers)
    inverse = np.full(grown, _INV_BASE, dtype=np.uint64)
    inverse[0] = 1
    np.cumprod(inverse, out=inverse)
    _POWER_TABLES = (powers, inverse)
    return _POWER_TABLES


def _hash64_batch_np(values: Sequence[str], out, start: int) -> None:
    """Vectorized batch hash of ``values`` into ``out[start:]``.

    One NUL-joined UTF-8 buffer per slice; per-string hashes fall out of a
    prefix sum of ``byte[i] * BASE**i`` — the segment sum times the inverse
    power of its end position equals the reference Horner fold exactly,
    because the base is odd and therefore invertible modulo 2**64.
    """
    import numpy as np

    uint64 = np.uint64
    for offset in range(0, len(values), _HASH_SLICE):
        chunk = values[offset : offset + _HASH_SLICE]
        joined = "\x00".join(chunk)
        data = joined.encode("utf-8")
        if joined.count("\x00") != len(chunk) - 1:
            # An id embeds NUL: fall back to the reference loop, which has
            # no separator to corrupt.
            position = start + offset
            for index, value in enumerate(chunk):
                out[position + index] = hash64(value)
            continue
        buffer = np.frombuffer(data, dtype=np.uint8)
        powers, inverse = _power_tables(len(buffer) + 1)
        prefix = np.zeros(len(buffer) + 1, dtype=uint64)
        np.cumsum(
            buffer.astype(uint64) * powers[: len(buffer)],
            out=prefix[1:],
            dtype=uint64,
        )
        separators = np.flatnonzero(buffer == 0)
        starts = np.empty(len(chunk), dtype=np.int64)
        ends = np.empty(len(chunk), dtype=np.int64)
        starts[0] = 0
        starts[1:] = separators + 1
        ends[:-1] = separators
        ends[-1] = len(buffer)
        # Segment fold: (prefix[b] - prefix[a]) * BASE**-(b-1); empty
        # strings (a == b) fold to zero, matching the reference loop.
        folds = (prefix[ends] - prefix[starts]) * inverse[
            np.maximum(ends, 1) - 1
        ]
        lengths = (ends - starts).astype(uint64)
        mixed = folds ^ (lengths * uint64(_LEN_SALT))
        mixed ^= mixed >> uint64(30)
        mixed *= uint64(_MIX_1)
        mixed ^= mixed >> uint64(27)
        mixed *= uint64(_MIX_2)
        mixed ^= mixed >> uint64(31)
        out[start + offset : start + offset + len(chunk)] = mixed


def hash64_batch(values: Sequence[str]) -> array:
    """Hash a string sequence into a ``uint64`` column (``array('Q')``).

    The vectorized twin of ``array("Q", map(hash64, values))``: identical
    values, no per-string Python work.
    """
    import numpy as np

    column = array("Q", bytes(8 * len(values)))
    if len(values):
        _hash64_batch_np(values, np.frombuffer(column, dtype=np.uint64), 0)
    return column


# -- HyperLogLog -----------------------------------------------------------------------

#: Register-index bits: 2**14 = 16384 registers, ~0.81 % standard error.
HLL_P = 14

#: Distinct hashes kept exactly before converting to dense registers.  The
#: sparse phase makes small workloads exact in sketch mode (and therefore
#: byte-identical to exact mode), while the bound keeps memory O(1).
HLL_SPARSE_LIMIT = 65_536


def _hll_sigma(x: float) -> float:
    """Ertl's ``sigma``: expected zero-register mass under x = C[0]/m."""
    if x == 1.0:
        return math.inf
    y = 1.0
    z = x
    while True:
        x *= x
        previous = z
        z += x * y
        y += y
        if z == previous:
            return z


def _hll_tau(x: float) -> float:
    """Ertl's ``tau``: saturated-register mass under x = (m - C[q+1])/m."""
    if x == 0.0 or x == 1.0:
        return 0.0
    y = 1.0
    z = 1.0 - x
    while True:
        x = math.sqrt(x)
        previous = z
        y *= 0.5
        z -= (1.0 - x) ** 2 * y
        if z == previous:
            return z / 3.0


#: ``1 / (2 ln 2)`` — the asymptotic constant of Ertl's raw estimator.
_HLL_ALPHA_INF = 0.5 / math.log(2.0)


class HyperLogLog:
    """Mergeable distinct counter over 64-bit hashes.

    The register for a hash is its low ``p`` bits; the rank is one plus the
    number of trailing zeros of the remaining bits (so the rank is exact in
    integer arithmetic in both the scalar and the vectorized fold — no float
    log2 of a full-width word).  Merging takes the element-wise register maximum, which makes
    the dense state — and the estimate — exactly independent of insertion
    and merge order.

    The sparse phase buffers raw hashes in an ``array('Q')`` and
    deduplicates with a periodic compaction, so small cardinalities count
    exactly at memcpy speed; once the distinct count exceeds
    ``sparse_limit`` the buffer folds into the dense registers.  Both
    representations are pure functions of the hash *set*, so any merge
    order yields the same state.
    """

    __slots__ = ("p", "m", "sparse_limit", "_registers", "_sparse", "_sorted")

    def __init__(self, p: int = HLL_P, sparse_limit: int = HLL_SPARSE_LIMIT):
        if not 4 <= p <= 18:
            raise ReproError(f"HyperLogLog precision must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        self.sparse_limit = sparse_limit
        #: Dense registers, or ``None`` while sparse.
        self._registers: Optional[array] = None
        #: Sparse hash buffer (may contain duplicates until compaction).
        self._sparse: Optional[array] = array("Q")
        #: Whether the sparse buffer is currently deduplicated and sorted.
        self._sorted = True

    # -- adding ------------------------------------------------------------------
    def add_hash(self, value: int) -> None:
        sparse = self._sparse
        if sparse is not None:
            sparse.append(value)
            self._sorted = False
            if len(sparse) > self.sparse_limit:
                self._compact()
            return
        self._add_dense(value)

    def add(self, value: str) -> None:
        self.add_hash(hash64(value))

    def update(self, hashes: Iterable[int]) -> None:
        sparse = self._sparse
        if sparse is not None:
            sparse.extend(hashes)
            self._sorted = False
            if len(sparse) > self.sparse_limit:
                self._compact()
            return
        for value in hashes:
            self._add_dense(value)

    def update_np(self, hashes) -> None:
        """Fold a ``uint64`` ndarray of hashes in (vectorized)."""
        import numpy as np

        sparse = self._sparse
        if sparse is not None:
            sparse.frombytes(np.ascontiguousarray(hashes, dtype=np.uint64).tobytes())
            self._sorted = False
            if len(sparse) > self.sparse_limit:
                self._compact()
            return
        registers = np.frombuffer(self._registers, dtype=np.uint8)
        uint64 = np.uint64
        hashes = np.ascontiguousarray(hashes, dtype=np.uint64)
        indices = (hashes & uint64(self.m - 1)).astype(np.int64)
        tail = hashes >> uint64(self.p)
        # Rank = trailing zeros + 1 of the tail: isolate the lowest set bit
        # (exactly representable as a float64 power of two) and read its
        # exponent; a zero tail saturates at the maximum rank.
        lowest = tail & (~tail + uint64(1))
        ranks = np.ones(len(hashes), dtype=np.uint8)
        nonzero = lowest != 0
        ranks[nonzero] += np.log2(lowest[nonzero].astype(np.float64)).astype(np.uint8)
        ranks[~nonzero] = 64 - self.p + 1
        np.maximum.at(registers, indices, ranks)

    def _add_dense(self, value: int) -> None:
        index = value & (self.m - 1)
        tail = value >> self.p
        if tail:
            rank = (tail & -tail).bit_length()
        else:
            rank = 64 - self.p + 1
        registers = self._registers
        if rank > registers[index]:
            registers[index] = rank

    # -- representation management -------------------------------------------------
    def _compact(self) -> None:
        """Deduplicate the sparse buffer; convert to dense past the limit."""
        import numpy as np

        sparse = self._sparse
        if sparse is None:
            return
        if not self._sorted:
            if len(sparse) > 1024:
                unique = np.unique(np.frombuffer(sparse, dtype=np.uint64))
                compacted = array("Q")
                compacted.frombytes(unique.tobytes())
            else:
                compacted = array("Q", sorted(set(sparse)))
            self._sparse = sparse = compacted
            self._sorted = True
        if len(sparse) > self.sparse_limit:
            self._registers = array("B", bytes(self.m))
            self._sparse = None
            self.update_np(np.frombuffer(sparse, dtype=np.uint64))

    # -- reading -----------------------------------------------------------------
    def count(self) -> int:
        """Estimated distinct count (exact while sparse).

        The dense estimate is Ertl's improved raw estimator (*New
        cardinality estimation algorithms for HyperLogLog sketches*, 2017):
        the register histogram's zero and saturated masses are replaced by
        their expected continuous contributions (``sigma`` / ``tau``),
        which removes the classic raw estimator's bias bump in the
        linear-counting crossover region without empirical correction
        tables.  Pure python floats over the register histogram.
        """
        self._compact()
        sparse = self._sparse
        if sparse is not None:
            return len(sparse)
        q = 64 - self.p  # ranks run 1..q+1; 0 marks an untouched register
        histogram = [0] * (q + 2)
        for rank in self._registers:
            histogram[rank] += 1
        m = self.m
        z = m * _hll_tau((m - histogram[q + 1]) / m)
        for k in range(q, 0, -1):
            z = 0.5 * (z + histogram[k])
        z += m * _hll_sigma(histogram[0] / m)
        return int(round(_HLL_ALPHA_INF * m * m / z))

    @property
    def is_sparse(self) -> bool:
        return self._sparse is not None

    # -- merging / state -----------------------------------------------------------
    def merge(self, other: "HyperLogLog") -> None:
        if self.p != other.p:
            raise ReproError(
                f"cannot merge HyperLogLog(p={other.p}) into HyperLogLog(p={self.p})"
            )
        other._compact()
        if other._sparse is not None:
            self.update(other._sparse)
            self._compact()
            return
        if self._registers is None:
            sparse = self._sparse
            self._registers = array("B", other._registers)
            self._sparse = None
            if sparse is not None:
                for value in sparse:
                    self._add_dense(value)
            return
        mine = self._registers
        for index, rank in enumerate(other._registers):
            if rank > mine[index]:
                mine[index] = rank

    def export_state(self) -> Dict[str, Any]:
        """Canonical payload: equal hash sets export equal payloads."""
        self._compact()
        if self._sparse is not None:
            return {"p": self.p, "sparse": self._sparse, "regs": None}
        return {"p": self.p, "sparse": None, "regs": self._registers}

    def restore_state(self, payload: Dict[str, Any]) -> None:
        try:
            p = payload["p"]
            sparse = payload["sparse"]
            registers = payload["regs"]
        except (TypeError, KeyError):
            raise CodecError("HyperLogLog payload is malformed") from None
        if p != self.p:
            raise CodecError(
                f"HyperLogLog payload has precision {p}, expected {self.p}"
            )
        if sparse is not None:
            if not isinstance(sparse, array) or sparse.typecode != "Q":
                raise CodecError("HyperLogLog sparse payload is malformed")
            self.update(sparse)
            self._compact()
            return
        if not isinstance(registers, array) or registers.typecode != "B":
            raise CodecError("HyperLogLog register payload is malformed")
        if len(registers) != self.m:
            raise CodecError(
                f"HyperLogLog payload has {len(registers)} registers, expected {self.m}"
            )
        other = HyperLogLog(self.p, self.sparse_limit)
        other._registers = registers
        other._sparse = None
        self.merge(other)


# -- Space-saving heavy hitters --------------------------------------------------------

#: Default heavy-hitter capacity: comfortably above the paper workloads'
#: distinct key counts (so the summary is exact there) while bounding the
#: entry count — and therefore memory — at any scale.
DEFAULT_HEAVY_HITTERS = 8_192


class SpaceSaving:
    """Capacity-bounded weighted tally with per-key over-count tracking.

    A batch-eviction variant of the space-saving summary (Metwally et al.)
    formulated as a tally plus a *floor*: the floor is the largest count
    ever evicted, new keys enter at ``floor + weight`` with tracked error
    ``floor``, and when the entry count exceeds twice the capacity the
    smallest entries are evicted in one pass.  Invariants, for every key:

    * ``true <= estimate`` (no key is ever under-counted), and
    * ``estimate - error(key) <= true`` — the tracked per-key error is a
      certificate of the over-count, so a caller can always bound the truth
      to ``[estimate - error, estimate]``.

    The floor (and hence every error) is O(``total / capacity``).  Below
    capacity nothing is ever evicted, the floor stays zero, and the summary
    is the exact tally — which is what keeps sketch mode byte-identical to
    exact mode on the paper-scale workloads.

    Merging sums counts and errors for shared keys; a key present on one
    side only absorbs the other side's floor (its occurrences there, if
    any, were below that floor).  The result keeps both invariants, but —
    unlike the HyperLogLog and quantile sketches — the retained key *set*
    may depend on merge order once eviction has occurred; the figure-level
    guarantee is the error envelope, not state identity.
    """

    __slots__ = ("capacity", "total", "floor", "_counts", "_errors")

    def __init__(self, capacity: int = DEFAULT_HEAVY_HITTERS):
        if capacity < 1:
            raise ReproError(f"SpaceSaving capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self.floor = 0
        self._counts: Dict[Any, int] = {}
        self._errors: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def add(self, key, count: int = 1) -> None:
        self.total += count
        counts = self._counts
        present = counts.get(key)
        if present is not None:
            counts[key] = present + count
            return
        floor = self.floor
        counts[key] = floor + count
        if floor:
            self._errors[key] = floor
        if len(counts) > 2 * self.capacity:
            self._evict()

    def _evict(self) -> None:
        """One-pass batch eviction down to ``capacity`` entries.

        Ties at the boundary break on the key, so the surviving set — and
        the canonical export order — never depend on dict insertion order
        once compaction has occurred.
        """
        ranked = sorted(self._counts.items(), key=lambda item: (-item[1], item[0]))
        kept = ranked[: self.capacity]
        self.floor = max(self.floor, ranked[self.capacity][1])
        errors = self._errors
        self._counts = dict(kept)
        self._errors = {
            key: errors[key] for key, _ in kept if key in errors
        }

    def error(self, key) -> int:
        """Tracked over-count bound of one key's estimate."""
        return self._errors.get(key, 0)

    def items(self) -> List[Tuple[Any, int, int]]:
        """``(key, estimate, error)`` rows, largest estimates first."""
        errors = self._errors
        return sorted(
            (
                (key, count, errors.get(key, 0))
                for key, count in self._counts.items()
            ),
            key=lambda row: (-row[1], row[0]),
        )

    def counts(self) -> Dict[Any, int]:
        """The live estimates, in first-seen order while below capacity."""
        return self._counts

    @property
    def is_exact(self) -> bool:
        """Whether the summary still holds the exact tally (no evictions)."""
        return self.floor == 0

    def merge(self, other: "SpaceSaving") -> None:
        if self.capacity != other.capacity:
            raise ReproError(
                f"cannot merge SpaceSaving(capacity={other.capacity}) into "
                f"SpaceSaving(capacity={self.capacity})"
            )
        self._merge_parts(
            other._counts, other._errors, other.floor, other.total
        )

    def _merge_parts(
        self,
        other_counts: Dict[Any, int],
        other_errors: Dict[Any, int],
        other_floor: int,
        other_total: int,
    ) -> None:
        counts = self._counts
        errors = self._errors
        my_floor = self.floor
        for key, count in other_counts.items():
            present = counts.get(key)
            error = other_errors.get(key, 0)
            if present is None:
                # Unseen here: its occurrences on this side were below the
                # local floor, which becomes part of the estimate and of
                # the tracked error.
                counts[key] = count + my_floor
                error += my_floor
            else:
                counts[key] = present + count
                error += errors.get(key, 0)
            if error:
                errors[key] = error
        if other_floor:
            for key, present in counts.items():
                if key not in other_counts:
                    counts[key] = present + other_floor
                    errors[key] = errors.get(key, 0) + other_floor
        self.total += other_total
        self.floor = my_floor + other_floor
        if len(counts) > 2 * self.capacity:
            self._evict()

    def export_state(self) -> Dict[str, Any]:
        """Canonical packed payload (count-descending, key tie-break)."""
        rows = self.items() if self.floor else list(
            (key, count, self._errors.get(key, 0))
            for key, count in self._counts.items()
        )
        first = next(iter(self._counts), None)
        width = len(first) if isinstance(first, tuple) else 1
        if width == 1:
            keys = [array("q", (row[0] for row in rows))]
        else:
            keys = [
                array("q", (row[0][column] for row in rows))
                for column in range(width)
            ]
        return {
            "cap": self.capacity,
            "total": self.total,
            "floor": self.floor,
            "w": width,
            "keys": keys,
            "counts": array("q", (row[1] for row in rows)),
            "errors": array("q", (row[2] for row in rows)),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        try:
            capacity = payload["cap"]
            total = payload["total"]
            floor = payload["floor"]
            width = payload["w"]
            keys = payload["keys"]
            counts = payload["counts"]
            errors = payload["errors"]
        except (TypeError, KeyError):
            raise CodecError("SpaceSaving payload is malformed") from None
        if capacity != self.capacity:
            raise CodecError(
                f"SpaceSaving payload has capacity {capacity}, "
                f"expected {self.capacity}"
            )
        if width != len(keys) or any(
            len(column) != len(counts) for column in keys
        ) or len(errors) != len(counts):
            raise CodecError("SpaceSaving payload is inconsistent")
        if width == 1:
            key_iter = iter(keys[0])
        else:
            key_iter = iter(zip(*keys))
        other_counts = dict(zip(key_iter, counts))
        other_errors = {
            key: error
            for key, error in zip(
                keys[0] if width == 1 else zip(*keys), errors
            )
            if error
        }
        self._merge_parts(other_counts, other_errors, floor, total)


# -- DDSketch-style quantiles ----------------------------------------------------------

#: Default relative accuracy of the quantile sketch (1 %).
DEFAULT_QUANTILE_ALPHA = 0.01

#: Bucket-index clamp: with ``alpha = 0.01`` this covers values from about
#: 1e-17 to 1e17; values outside collapse into the edge buckets (bounding
#: the bucket count at any scale, at the price of unbounded relative error
#: beyond the clamp).
_QUANTILE_INDEX_BOUND = 2_048


class QuantileSketch:
    """Mergeable log-bucket quantile sketch with relative accuracy ``alpha``.

    DDSketch-style: a non-negative value lands in bucket
    ``ceil(log(x) / log(gamma))`` with ``gamma = (1 + alpha)/(1 - alpha)``,
    and the bucket's representative value is off by at most ``alpha``
    relative error.  Zero values count separately (exactly).  Merging adds
    bucket counts, so the state is exactly independent of insertion and
    merge order, and bucket indices are always computed with scalar
    ``math.log`` so the binning is bit-identical everywhere.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_buckets", "_zeros", "total")

    def __init__(self, alpha: float = DEFAULT_QUANTILE_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ReproError(f"quantile alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self.total = 0

    def _index(self, value: float) -> int:
        index = math.ceil(math.log(value) / self._log_gamma)
        if index < -_QUANTILE_INDEX_BOUND:
            return -_QUANTILE_INDEX_BOUND
        if index > _QUANTILE_INDEX_BOUND:
            return _QUANTILE_INDEX_BOUND
        return index

    def _value(self, index: int) -> float:
        # Midpoint of the bucket's value range (gamma**(i-1), gamma**i].
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def add(self, value: float, count: int = 1) -> None:
        if value < 0.0:
            raise ReproError(
                f"QuantileSketch accepts non-negative values, got {value!r}"
            )
        self.total += count
        if value == 0.0:
            self._zeros += count
            return
        index = self._index(value)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + count

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (lower nearest-rank convention)."""
        if not 0.0 <= q <= 1.0:
            raise ReproError(f"quantile must be in [0, 1], got {q}")
        if not self.total:
            return 0.0
        rank = int(q * (self.total - 1))
        if rank < self._zeros:
            return 0.0
        cumulative = self._zeros
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                return self._value(index)
        return self._value(max(self._buckets)) if self._buckets else 0.0

    def sum(self) -> float:
        """Approximate sum of the inserted values (within ``alpha`` relative).

        Deterministic regardless of insertion or merge order: the buckets
        are summed in index order with exact float summation.
        """
        return math.fsum(
            self._buckets[index] * self._value(index)
            for index in sorted(self._buckets)
        )

    def min_value(self) -> float:
        """Approximate minimum (0.0 exactly when any zero was inserted)."""
        if self._zeros:
            return 0.0
        if not self._buckets:
            return 0.0
        return self._value(min(self._buckets))

    def max_value(self) -> float:
        """Approximate maximum of the inserted values."""
        if not self._buckets:
            return 0.0
        return self._value(max(self._buckets))

    def merge(self, other: "QuantileSketch") -> None:
        if self.alpha != other.alpha:
            raise ReproError(
                f"cannot merge QuantileSketch(alpha={other.alpha}) into "
                f"QuantileSketch(alpha={self.alpha})"
            )
        buckets = self._buckets
        for index, count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + count
        self._zeros += other._zeros
        self.total += other.total

    def export_state(self) -> Dict[str, Any]:
        """Canonical payload: buckets sorted by index."""
        indices = sorted(self._buckets)
        return {
            "alpha": self.alpha,
            "zeros": self._zeros,
            "total": self.total,
            "idx": array("q", indices),
            "counts": array("q", (self._buckets[index] for index in indices)),
        }

    def restore_state(self, payload: Dict[str, Any]) -> None:
        try:
            alpha = payload["alpha"]
            zeros = payload["zeros"]
            total = payload["total"]
            indices = payload["idx"]
            counts = payload["counts"]
        except (TypeError, KeyError):
            raise CodecError("QuantileSketch payload is malformed") from None
        if alpha != self.alpha:
            raise CodecError(
                f"QuantileSketch payload has alpha {alpha}, expected {self.alpha}"
            )
        if len(indices) != len(counts):
            raise CodecError("QuantileSketch payload is inconsistent")
        buckets = self._buckets
        for index, count in zip(indices, counts):
            buckets[index] = buckets.get(index, 0) + count
        self._zeros += zeros
        self.total += total
