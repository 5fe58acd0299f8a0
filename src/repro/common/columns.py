"""Columnar transaction storage: the canonical analysis substrate.

The seed pipeline materialised each chain's traffic as a
``List[TransactionRecord]`` of frozen dataclasses and let every analysis
module re-iterate the whole list.  At paper scale (~530M transactions) that
representation is both memory-hungry (one boxed object plus a metadata dict
per transaction) and slow (attribute access per field per pass).

:class:`TxFrame` stores the same canonical fields as parallel typed columns:

* numeric fields (``timestamp``, ``block_height``, ``amount``, ``fee``,
  ``success``) live in compact ``array.array`` buffers;
* low-cardinality strings (``type``, ``sender``, ``receiver``, ``contract``,
  ``currency``, ``issuer``, ``error_code``) are interned into
  :class:`StringPool` dictionaries and stored as integer codes;
* high-cardinality strings (``transaction_id``) and the free-form
  ``metadata`` mapping stay in plain lists (empty metadata is stored as
  ``None``); metadata loaded from binary chunks additionally defers its
  JSON parse until first access (see :class:`LazyMetadata`), and the keys
  figures read are typed columns too (:meth:`TxFrame.projected`).

Appending from a generator is amortised O(1) per record, so workload
generators can stream straight into a frame without ever materialising
intermediate block lists.  :class:`TxView` provides zero-copy chain and
time-window views: a view shares the frame's column buffers and only carries
a row-index sequence, which is what the single-pass analysis engine iterates.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain as flatten, groupby, islice
from operator import le
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.records import ChainId, TransactionRecord

#: Fixed chain-code order; ``chain_code`` column stores indexes into this.
CHAIN_ORDER: Tuple[ChainId, ...] = (ChainId.EOS, ChainId.TEZOS, ChainId.XRP)

#: ChainId → integer code used by the ``chain_code`` column.
CHAIN_CODES: Dict[ChainId, int] = {chain: index for index, chain in enumerate(CHAIN_ORDER)}
_CHAIN_CODES = CHAIN_CODES

#: Rows :meth:`TxFrame.extend` draws from its source per column append: large
#: enough that the per-batch list building dominates the fixed cost, small
#: enough that the batch (a list of record references) stays cache-resident.
EXTEND_BATCH_ROWS = 4096

#: Canonical numeric columns of a :class:`TxFrame` and their ``array``
#: typecodes, in frame order.  The binary chunk format
#: (:mod:`repro.collection.chunkformat`) shares this table so a chunk's
#: column blobs carry exactly the frame's machine representation — decode
#: can wrap the stored bytes without converting a single element.
NUMERIC_TYPECODES: Dict[str, str] = {
    "chain_code": "b",
    "block_height": "q",
    "timestamp": "d",
    "type_code": "i",
    "sender_code": "i",
    "receiver_code": "i",
    "contract_code": "i",
    "amount": "d",
    "currency_code": "i",
    "issuer_code": "i",
    "fee": "d",
    "success": "b",
    "error_code": "i",
}


class StringPool:
    """Bidirectional string ↔ integer-code interning table.

    Interning is append-only: a string keeps its code for the lifetime of the
    pool, so codes stored in a column stay valid as the frame grows.
    """

    __slots__ = ("_codes", "_values")

    def __init__(self, values: Optional[Iterable[str]] = None):
        self._values: List[str] = []
        self._codes: Dict[str, int] = {}
        if values is not None:
            for value in values:
                self.intern(value)

    def intern(self, value: str) -> int:
        """Code of ``value``, assigning the next free code on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def intern_many(self, values: Sequence[str]) -> List[int]:
        """Codes of ``values``; unseen strings get codes in sequence order."""
        lookup = self._codes.get
        codes = list(map(lookup, values))
        if None in codes:
            # Intern each *distinct* string once, in first-seen order (known
            # ones are no-ops), then map every position again in one C pass:
            # a fresh pool pays per distinct string, not per occurrence.
            for value in dict.fromkeys(values):
                self.intern(value)
            codes = list(map(lookup, values))
        return codes

    def code(self, value: str) -> Optional[int]:
        """Code of ``value`` if already interned, else ``None`` (no insert)."""
        return self._codes.get(value)

    def value(self, code: int) -> str:
        return self._values[code]

    @property
    def values(self) -> List[str]:
        """The interned strings, indexable by code (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: str) -> bool:
        return value in self._codes


class LazyMetadata:
    """A deferred block of per-row metadata from a decoded binary chunk.

    The binary chunk decoder hands frames one of these instead of a parsed
    list: the metadata bytes (already covered by the chunk checksum) are
    parsed on first element access and memoised.  Scans never read the
    dicts (kernels read :meth:`TxFrame.projected`), so they skip the parse
    entirely.

    ``loader`` returns the parsed ``rows``-long list of dicts-or-``None``
    and raises the decoder's own error type on a malformed segment; that
    error therefore surfaces at first *access* rather than at decode time
    (the chunk checksum makes a post-decode parse failure pathological).
    """

    __slots__ = ("_loader", "_rows", "_items")

    def __init__(self, rows: int, loader) -> None:
        self._rows = rows
        self._loader = loader
        self._items: Optional[List[Optional[Dict[str, Any]]]] = None

    def materialise(self) -> List[Optional[Dict[str, Any]]]:
        """The parsed metadata list (parsing and memoising on first call)."""
        if self._items is None:
            self._items = self._loader()
            self._loader = None
        return self._items

    @property
    def loaded(self) -> bool:
        return self._items is not None

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, index):
        return self.materialise()[index]

    def __iter__(self):
        return iter(self.materialise())


RowIndices = Union[range, Sequence[int]]


# -- ndarray views ---------------------------------------------------------------------
#
# The numeric columns are stdlib ``array.array`` buffers — that stays the
# append path (amortised O(1) per record).  For the vectorized scan kernels
# the same buffers are exposed as **zero-copy ndarray views** through the
# buffer protocol: no bytes move, the ndarray simply aliases the array's
# memory.  Views are snapshots of the buffer at creation time — appending to
# the frame may reallocate the underlying buffer, so a view must not outlive
# the pass it was created for (accumulators take views at bind time; frames
# never grow during a scan).
#
# numpy is imported by each function that uses it, at the call, never at
# module level: a report that only folds cached states never loads it.


def as_ndarray(column: array):
    """Zero-copy, read-only ndarray view of an ``array.array`` buffer.

    The dtype is derived from the array's typecode; if NumPy's dtype for
    that typecode does not match the array's item size (exotic platforms)
    the data is copied instead of aliased — same values either way.
    """
    import numpy as np

    dtype = np.dtype(column.typecode)
    if dtype.itemsize != column.itemsize:  # pragma: no cover - platform skew
        view = np.array(column, dtype=dtype)
    else:
        view = np.frombuffer(column, dtype=dtype)
    view.flags.writeable = False
    return view


def as_index_rows(rows: RowIndices):
    """Row indices as an ``int64`` ndarray (ranges pass through untouched).

    ``array('q')`` row sets — what chain and filtered views carry — alias
    their buffer (zero-copy); ndarrays pass through; any other sequence is
    materialised.  The engine funnels every scan block through this, so the
    vectorized kernels always see either a ``range`` or an index ndarray.
    """
    import numpy as np

    if isinstance(rows, range) or isinstance(rows, np.ndarray):
        return rows
    if isinstance(rows, array) and rows.itemsize == np.dtype(np.int64).itemsize:
        return as_ndarray(rows)
    return np.asarray(rows, dtype=np.int64)


def gather_np(column, rows: RowIndices):
    """Values of ``column`` at ``rows`` as an ndarray (zero-copy for slices).

    Contiguous ranges become ndarray slices of the column view (no copy);
    index arrays gather with one C fancy-indexing call.  ``column`` may be
    an ``array.array`` or an ndarray.
    """
    import numpy as np

    view = column if isinstance(column, np.ndarray) else as_ndarray(column)
    if isinstance(rows, range):
        return view[rows.start : rows.stop : rows.step]
    return view[as_index_rows(rows)]


def _index_ndarray(rows: RowIndices):
    """Row indices as an ``int64`` ndarray, ranges materialised too."""
    import numpy as np

    if isinstance(rows, range):
        return np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    return as_index_rows(rows)


class TxView:
    """A zero-copy view over a subset of a :class:`TxFrame`'s rows.

    The view shares the parent frame's column buffers; it only owns the row
    index sequence (a ``range`` for contiguous windows, an ``array`` of
    indexes for per-chain selections).  All analysis runs on (frame, rows)
    pairs, so slicing by chain or time window costs nothing per transaction.
    """

    __slots__ = ("frame", "rows")

    def __init__(self, frame: "TxFrame", rows: RowIndices):
        self.frame = frame
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TransactionRecord]:
        return self.iter_records()

    def iter_records(self) -> Iterator[TransactionRecord]:
        """Materialise the view's rows as canonical records (compat path)."""
        record = self.frame.record
        for index in self.rows:
            yield record(index)

    def time_window(self, start: float, end: float) -> "TxView":
        """Sub-view of rows with ``start <= timestamp < end`` (zero-copy)."""
        return self.frame.time_window(start, end, rows=self.rows)

    def chain_view(self, chain: ChainId) -> "TxView":
        """Sub-view of this view's rows that belong to ``chain``."""
        code = _CHAIN_CODES[chain]
        chain_codes = self.frame.chain_code
        if isinstance(self.rows, range) and len(self.rows) == len(self.frame):
            return self.frame.chain_view(chain)
        selected = array("q")
        if len(self.rows):
            indices = _index_ndarray(self.rows)
            matched = indices[gather_np(chain_codes, indices) == code]
            selected.frombytes(matched.tobytes())
        return TxView(self.frame, selected)

    def min_timestamp(self) -> Optional[float]:
        if not len(self.rows):
            return None
        return float(gather_np(self.frame.timestamp, self.rows).min())

    def max_timestamp(self) -> Optional[float]:
        if not len(self.rows):
            return None
        return float(gather_np(self.frame.timestamp, self.rows).max())


class TxFrame:
    """Columnar store of canonical transaction records.

    The frame is append-only.  Columns are exposed as public attributes for
    the analysis engine's accumulators (``chain_code``, ``timestamp``,
    ``type_code``, ``sender_code``, ...); string pools translate codes back
    to strings at finalisation time, off the per-row hot path.
    """

    __slots__ = (
        "chain_code",
        "transaction_id",
        "block_height",
        "timestamp",
        "type_code",
        "sender_code",
        "receiver_code",
        "contract_code",
        "amount",
        "currency_code",
        "issuer_code",
        "fee",
        "success",
        "error_code",
        "_meta_runs",
        "types",
        "accounts",
        "currencies",
        "errors",
        "_chain_rows",
        "_chain_bounds",
        "_timestamps_sorted",
        "_tx_ids_nd",
        "meta_strings",
        "_projected",
    )

    def __init__(self) -> None:
        self.chain_code = array("b")
        self.transaction_id: List[str] = []
        self.block_height = array("q")
        self.timestamp = array("d")
        self.type_code = array("i")
        self.sender_code = array("i")
        self.receiver_code = array("i")
        self.contract_code = array("i")
        self.amount = array("d")
        self.currency_code = array("i")
        self.issuer_code = array("i")
        self.fee = array("d")
        self.success = array("b")
        self.error_code = array("i")
        #: Metadata storage: the plain list, then any still-unparsed
        #: :class:`LazyMetadata` blocks (see the ``metadata`` property).
        self._meta_runs: List[Any] = [[]]
        #: ``type`` strings (action names, operation kinds, transaction types).
        self.types = StringPool()
        #: Account names: senders, receivers, contracts and issuers share one
        #: pool because on-chain the same address appears in several roles.
        self.accounts = StringPool()
        self.currencies = StringPool()
        self.errors = StringPool()
        self._chain_rows: Dict[int, array] = {}
        self._chain_bounds: Dict[int, Tuple[float, float]] = {}
        self._timestamps_sorted = True
        self._tx_ids_nd: Optional[Tuple[int, Any]] = None
        #: The strings projected text codes index (see :meth:`projected`).
        self.meta_strings = StringPool()
        self._projected: Optional[Dict[str, array]] = None

    # -- metadata ------------------------------------------------------------------
    @property
    def metadata(self) -> List[Optional[Mapping[str, Any]]]:
        """Per-row metadata as one plain list.

        Internally the column is a plain list followed by the runs extended
        onto the frame since it was last read: unparsed
        :class:`LazyMetadata` blocks from the binary chunk decoder.  The
        common case — no pending run — returns the list directly, so every
        existing consumer keeps C-level list indexing.  The first access
        after a lazy extend parses the pending blocks onto the end of that
        same list (O(new rows), never a re-copy of the rows already there);
        a frame whose metadata is never read never pays the parse.

        The returned list is the frame's own storage for the frame's whole
        lifetime: callers may append through it, but rows of a later lazy
        extend only reach a captured reference at the next read of this
        property — capture at use time (accumulators re-bind per scan, which
        already guarantees this).
        """
        runs = self._meta_runs
        flat = runs[0]
        if len(runs) > 1:
            # Parse every pending block before touching the list: a malformed
            # block raises here and leaves the column as it was.
            parsed = [run.materialise() for run in runs[1:]]
            for items in parsed:
                flat.extend(items)
            del runs[1:]
        return flat

    def _extend_metadata(self, values: Any) -> None:
        """Extend the metadata column from payload data.

        A still-unparsed :class:`LazyMetadata` block is adopted as-is — no
        parse, no per-dict copy (chunk-decoded dicts are freshly built by
        the decoder and never mutated in place by the frame).  Anything
        else is copied: a payload's dicts may still be another frame's rows.
        """
        if isinstance(values, LazyMetadata) and not values.loaded:
            self._meta_runs.append(values)
            return
        self.metadata.extend([dict(meta) if meta else None for meta in values])

    def projected(self) -> Dict[str, Any]:
        """The :data:`~repro.common.projection.PROJECTED_KEYS` columns of every
        row, as ndarray views (text codes index :attr:`meta_strings`).

        Memoised like :meth:`transaction_ids_ndarray`: rows a payload brought
        with their columns (a v3 chunk, a frame's slice) were adopted by
        :meth:`extend_from_payload`; any others — appended records, v1/v2
        chunk rows — are projected from :attr:`metadata` here, once.
        """
        return {key: as_ndarray(column) for key, column in self._projected_arrays().items()}

    def _projected_rows(self) -> int:
        return len(next(iter(self._projected.values()))) if self._projected else 0

    def _projected_arrays(self) -> Dict[str, array]:
        from repro.common.projection import project_metadata

        filled = self._projected_rows()
        if self._projected is None or filled < len(self):
            self._adopt_projection(project_metadata(self.metadata[filled:]))
        return self._projected

    def _adopt_projection(self, projection) -> None:
        """Append a run's projected columns, remapping text codes into
        :attr:`meta_strings` (``-1`` stays ``-1``)."""
        import numpy as np

        from repro.common.projection import PROJECTED_KEYS, PROJECTED_TYPECODES

        if self._projected is None:
            self._projected = {
                key: array(PROJECTED_TYPECODES[kind]) for key, kind in PROJECTED_KEYS.items()
            }
        remap = np.asarray(self.meta_strings.intern_many(projection.strings) + [-1])
        for key, kind in PROJECTED_KEYS.items():
            codes = np.asarray(projection.columns[key])
            if kind != "flag":
                codes = remap[codes]
            column = self._projected[key]
            column.frombytes(codes.astype(np.dtype(column.typecode), copy=False).tobytes())

    # -- writing -------------------------------------------------------------------
    def _register_row(self, chain_code: int, timestamp: float, row: int) -> None:
        """Shared per-row bookkeeping: sort flag, chain index, time bounds."""
        if self._timestamps_sorted and row and timestamp < self.timestamp[row - 1]:
            self._timestamps_sorted = False
        rows = self._chain_rows.get(chain_code)
        if rows is None:
            rows = self._chain_rows[chain_code] = array("q")
        rows.append(row)
        bounds = self._chain_bounds.get(chain_code)
        if bounds is None:
            self._chain_bounds[chain_code] = (timestamp, timestamp)
        else:
            low, high = bounds
            if timestamp < low or timestamp > high:
                self._chain_bounds[chain_code] = (
                    min(low, timestamp),
                    max(high, timestamp),
                )

    def append(self, record: TransactionRecord) -> None:
        """Append one canonical record (amortised O(1)).

        A non-empty ``metadata`` that is a plain ``dict`` is adopted, not
        copied: the frame keeps that very object as the row's metadata and
        never writes to it, so the caller must not either.  Any other
        mapping is copied into a dict.
        """
        chain_code = _CHAIN_CODES[record.chain]
        row = len(self.timestamp)
        timestamp = record.timestamp
        self._register_row(chain_code, timestamp, row)
        self.chain_code.append(chain_code)
        self.transaction_id.append(record.transaction_id)
        self.block_height.append(record.block_height)
        self.timestamp.append(timestamp)
        self.type_code.append(self.types.intern(record.type))
        self.sender_code.append(self.accounts.intern(record.sender))
        self.receiver_code.append(self.accounts.intern(record.receiver))
        self.contract_code.append(self.accounts.intern(record.contract))
        self.amount.append(record.amount)
        self.currency_code.append(self.currencies.intern(record.currency))
        self.issuer_code.append(self.accounts.intern(record.issuer))
        self.fee.append(record.fee)
        self.success.append(1 if record.success else 0)
        self.error_code.append(self.errors.intern(record.error_code))
        metadata = record.metadata
        self.metadata.append(
            None if not metadata else metadata if metadata.__class__ is dict else dict(metadata)
        )

    def _append_batch(self, batch: List[TransactionRecord]) -> None:
        """Append ``batch`` column by column; row for row what :meth:`append` does.

        Records are tuples, so the batch transposes into its fifteen columns
        with one flattening pass and one strided slice per field, and a column
        grows by one ``array`` built from a whole list (which, unlike
        ``array.extend`` of a list, sizes itself once).  The four account
        roles are interned through one interleaved pass so the pool assigns
        codes in the row-major order per-row appends would (sender, receiver,
        contract, issuer of row 0, then of row 1, ...).  Metadata dicts are
        adopted as :meth:`append` adopts them.
        """
        width = len(TransactionRecord._fields)
        cells = list(flatten.from_iterable(batch))
        if len(cells) != width * len(batch):
            raise ValueError("TxFrame.extend takes TransactionRecord tuples")
        (
            chains, transaction_ids, block_heights, timestamps, types,
            senders, receivers, contracts, amounts, currencies, issuers,
            fees, successes, error_codes, metadata,
        ) = (cells[field::width] for field in range(width))  # fmt: skip
        if self._timestamps_sorted and (
            (len(self.timestamp) and timestamps[0] < self.timestamp[-1])
            or not all(map(le, timestamps, islice(timestamps, 1, None)))
        ):
            self._timestamps_sorted = False
        # Per-chain row indexes and time bounds, one single-chain run at a time.
        start = len(self.timestamp)
        offset = 0
        for chain, run in groupby(chains):
            chain_code = _CHAIN_CODES[chain]
            size = len(list(run))
            self.chain_code.frombytes(bytes((chain_code,)) * size)
            rows = self._chain_rows.get(chain_code)
            if rows is None:
                rows = self._chain_rows[chain_code] = array("q")
            rows.extend(range(start + offset, start + offset + size))
            run_timestamps = timestamps[offset : offset + size]
            low, high = min(run_timestamps), max(run_timestamps)
            bounds = self._chain_bounds.get(chain_code)
            if bounds is not None:
                low, high = min(bounds[0], low), max(bounds[1], high)
            self._chain_bounds[chain_code] = (low, high)
            offset += size
        accounts: List[str] = [""] * (4 * len(batch))
        accounts[0::4], accounts[1::4] = senders, receivers
        accounts[2::4], accounts[3::4] = contracts, issuers
        account_codes = self.accounts.intern_many(accounts)
        self.transaction_id.extend(transaction_ids)
        self.metadata.extend(
            [
                None if not meta else meta if meta.__class__ is dict else dict(meta)
                for meta in metadata
            ]
        )
        for column, values in (
            (self.block_height, block_heights),
            (self.timestamp, timestamps),
            (self.type_code, self.types.intern_many(types)),
            (self.sender_code, account_codes[0::4]),
            (self.receiver_code, account_codes[1::4]),
            (self.contract_code, account_codes[2::4]),
            (self.amount, amounts),
            (self.currency_code, self.currencies.intern_many(currencies)),
            (self.issuer_code, account_codes[3::4]),
            (self.fee, fees),
            (self.success, list(map(bool, successes))),
            (self.error_code, self.errors.intern_many(error_codes)),
        ):
            column.extend(array(column.typecode, values))

    def extend(self, records: Iterable[TransactionRecord]) -> int:
        """Append a stream of records; returns the number appended.

        This is the ingest entry point for the workload generators'
        ``stream_records()`` output — nothing is materialised besides the
        columns themselves and one :data:`EXTEND_BATCH_ROWS` batch of record
        references.  Rows drawn before a failing source raised are kept, as
        they were when every record was appended on its own.  A record's
        metadata ``dict`` is adopted, as :meth:`append` adopts it.
        """
        source = iter(records)
        count = 0
        while True:
            batch: List[TransactionRecord] = []
            try:
                batch.extend(islice(source, EXTEND_BATCH_ROWS))
            finally:
                if batch:
                    self._append_batch(batch)
                    count += len(batch)
            if len(batch) < EXTEND_BATCH_ROWS:
                return count

    @classmethod
    def from_records(cls, records: Iterable[TransactionRecord]) -> "TxFrame":
        frame = cls()
        frame.extend(records)
        return frame

    @classmethod
    def with_pools(
        cls,
        types: StringPool,
        accounts: StringPool,
        currencies: StringPool,
        errors: StringPool,
    ) -> "TxFrame":
        """Empty frame adopting the given pool *objects* (shared, not copied).

        Pools are append-only, so several frames can safely share one set:
        codes a payload remaps into any of them stay valid in all of them.
        This is the out-of-core worker seam — every chunk frame a worker
        rehydrates shares the store's global pools, which keeps the codes in
        exported accumulator state identical across chunks, workers and the
        merging parent without shipping any pool strings per chunk.
        """
        frame = cls()
        frame.types = types
        frame.accounts = accounts
        frame.currencies = currencies
        frame.errors = errors
        return frame

    @classmethod
    def concat(cls, frames: Iterable["TxFrame"]) -> "TxFrame":
        """Concatenate frames into a new frame, remapping string pools.

        Rows keep the order of the input frames; each frame's interned codes
        are translated into the combined frame's pools, so the result is
        indistinguishable from having appended every record to one frame.
        """
        combined = cls()
        for frame in frames:
            combined.extend_from_payload(frame.to_payload(arrays=True))
        return combined

    # -- reading -------------------------------------------------------------------
    def ndarray(self, name: str):
        """Zero-copy, read-only ndarray view of one numeric column.

        ``name`` is any column in ``_NUMERIC_COLUMNS``.  The view aliases
        the column's current buffer; appending to the frame may reallocate
        that buffer, so take views at bind time and never across appends
        (see :func:`as_ndarray`).
        """
        if name not in self._NUMERIC_COLUMNS:
            raise KeyError(f"{name!r} is not a numeric column")
        return as_ndarray(getattr(self, name))

    def transaction_ids_ndarray(self):
        """Object-dtype ndarray of the transaction-id column (cached).

        The id column is a plain Python list (high cardinality — interning
        would be pure overhead), so unlike :meth:`ndarray` this is a pointer
        *copy*, not a view.  It exists for kernels that compare or gather
        ids a block at a time (the ``tx_stats`` run counter): one slice or
        fancy-indexing call replaces a per-row loop.  The copy is built
        lazily on first use, so every accumulator scanning the same frame —
        and every chain of an out-of-core chunk — shares one build.  The column is
        append-only, so growing the frame fills only the new tail of a
        buffer that grows amortised; the result is a frame-length view of that buffer.
        """
        import numpy as np

        length = len(self.transaction_id)
        filled, buffer = self._tx_ids_nd or (0, np.empty(0, dtype=object))
        if filled < length:
            if len(buffer) < length:
                # A first build is sized exactly; regrowth over-allocates.
                grown = np.empty(max(length, len(buffer) * 3 // 2), dtype=object)
                grown[:filled] = buffer[:filled]
                buffer = grown
            ids = self.transaction_id
            buffer[filled:length] = ids[filled:] if filled else ids  # no list copy
            self._tx_ids_nd = (length, buffer)
        return buffer[:length]

    @property
    def timestamps_sorted(self) -> bool:
        """Whether rows were appended in non-decreasing timestamp order."""
        return self._timestamps_sorted

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self) -> Iterator[TransactionRecord]:
        return self.iter_records()

    def chain(self, row: int) -> ChainId:
        return CHAIN_ORDER[self.chain_code[row]]

    def record(self, row: int) -> TransactionRecord:
        """Materialise one row as a canonical record (compat path)."""
        metadata = self.metadata[row]
        return TransactionRecord(
            chain=CHAIN_ORDER[self.chain_code[row]],
            transaction_id=self.transaction_id[row],
            block_height=self.block_height[row],
            timestamp=self.timestamp[row],
            type=self.types.value(self.type_code[row]),
            sender=self.accounts.value(self.sender_code[row]),
            receiver=self.accounts.value(self.receiver_code[row]),
            contract=self.accounts.value(self.contract_code[row]),
            amount=self.amount[row],
            currency=self.currencies.value(self.currency_code[row]),
            issuer=self.accounts.value(self.issuer_code[row]),
            fee=self.fee[row],
            success=bool(self.success[row]),
            error_code=self.errors.value(self.error_code[row]),
            metadata=dict(metadata) if metadata else {},
        )

    def iter_records(self, rows: Optional[RowIndices] = None) -> Iterator[TransactionRecord]:
        record = self.record
        for index in rows if rows is not None else range(len(self)):
            yield record(index)

    def all_rows(self) -> TxView:
        return TxView(self, range(len(self)))

    def chains(self) -> List[ChainId]:
        """The chains present in the frame, in canonical order."""
        return [CHAIN_ORDER[code] for code in sorted(self._chain_rows)]

    def chain_view(self, chain: ChainId) -> TxView:
        """Snapshot view of one chain's rows at the current frame length.

        The column buffers are shared (never copied); only the per-chain
        row-index list is snapshotted, so later appends to the frame never
        change what an existing view covers — the same semantics a ``range``
        view of a single-chain frame has.
        """
        code = _CHAIN_CODES[chain]
        rows = self._chain_rows.get(code)
        if rows is None:
            return TxView(self, range(0))
        if len(rows) == len(self):
            # Single-chain frame: a plain range iterates faster than an array.
            return TxView(self, range(len(self)))
        return TxView(self, rows[:])

    def chain_bounds(self, chain: ChainId) -> Optional[Tuple[float, float]]:
        """(min, max) timestamp of one chain's rows, tracked at append time."""
        return self._chain_bounds.get(_CHAIN_CODES[chain])

    def chain_duration(self, chain: ChainId) -> float:
        bounds = self.chain_bounds(chain)
        if bounds is None:
            return 0.0
        return bounds[1] - bounds[0]

    def min_timestamp(self) -> Optional[float]:
        if not self._chain_bounds:
            return None
        return min(low for low, _ in self._chain_bounds.values())

    def max_timestamp(self) -> Optional[float]:
        if not self._chain_bounds:
            return None
        return max(high for _, high in self._chain_bounds.values())

    def time_window(
        self,
        start: float,
        end: float,
        rows: Optional[RowIndices] = None,
    ) -> TxView:
        """View of rows with ``start <= timestamp < end``.

        When timestamps are appended in non-decreasing order (the common case
        for generated workloads and height-ordered crawls) the window is
        located by bisection and returned as a ``range`` — zero copies.
        Otherwise rows are filtered into a fresh index array (still sharing
        every column buffer).
        """
        timestamps = self.timestamp
        if rows is None:
            if self._timestamps_sorted:
                lo = bisect_left(timestamps, start)
                hi = bisect_left(timestamps, end, lo=lo)
                return TxView(self, range(lo, hi))
            rows = range(len(self))
        selected = array("q")
        if len(rows):
            indices = _index_ndarray(rows)
            block = gather_np(timestamps, indices)
            matched = indices[(block >= start) & (block < end)]
            selected.frombytes(matched.tobytes())
        return TxView(self, selected)

    # -- serialisation -------------------------------------------------------------
    _NUMERIC_COLUMNS = tuple(NUMERIC_TYPECODES)

    def to_payload(
        self, rows: Optional[RowIndices] = None, *, arrays: bool = False
    ) -> Dict[str, Any]:
        """Columnar payload for (a slice of) the frame.

        Used by the collection layer to chunk-compress frames directly: the
        payload keeps the columnar layout (one sequence per column plus the
        string pools), which both compresses better than per-record dicts and
        skips record materialisation entirely.

        With ``arrays=True`` the numeric columns are copied as ``array.array``
        buffers instead of plain lists.  Array payloads are not JSON-
        serialisable; they are what the binary chunk encoder consumes (raw
        machine bytes per column).  Both forms are accepted by
        :meth:`from_payload` / :meth:`extend_from_payload`.
        """
        from repro.common.projection import Projection

        contiguous = (
            range(0, len(self))
            if rows is None
            else (rows if isinstance(rows, range) and rows.step == 1 else None)
        )

        def take(column: array) -> Any:
            if contiguous is not None:
                sliced = column[contiguous.start : contiguous.stop]
                return sliced if arrays else list(sliced)
            # Index-array gather: one C fancy-indexing call per column, never
            # a per-element Python copy.
            gathered = gather_np(column, rows)
            if not arrays:
                return gathered.tolist()
            sliced = array(column.typecode)
            sliced.frombytes(gathered.tobytes())
            return sliced

        columns = {name: take(getattr(self, name)) for name in self._NUMERIC_COLUMNS}
        projected = {key: take(column) for key, column in self._projected_arrays().items()}
        if contiguous is not None:
            lo, hi = contiguous.start, contiguous.stop
            transaction_ids = self.transaction_id[lo:hi]
            metadata = [meta if meta else None for meta in self.metadata[lo:hi]]
        else:
            transaction_ids = list(map(self.transaction_id.__getitem__, rows))
            metadata = list(map(self.metadata.__getitem__, rows))
        return {
            "columns": columns,
            "transaction_id": transaction_ids,
            "metadata": metadata,
            "projected": Projection(projected, self.meta_strings.values),
            "pools": {
                "types": self.types.values,
                "accounts": self.accounts.values,
                "currencies": self.currencies.values,
                "errors": self.errors.values,
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TxFrame":
        """Rebuild a frame from :meth:`to_payload` output.

        Extending a *fresh* frame re-interns the payload's pools in order,
        so every code maps to itself — which, crucially for the parallel
        execution layer, guarantees the rebuilt frame's string pools are
        code-compatible with the frame the payload was taken from.
        """
        frame = cls()
        frame.extend_from_payload(payload)
        return frame

    def _register_rows(self, chain_codes, timestamps, offset: int) -> None:
        """Bulk twin of :meth:`_register_row` for rows appended at ``offset``:
        sort flag, per-chain row indexes and timestamp bounds, from the
        appended rows' own ``chain_codes`` / ``timestamps`` ndarrays."""
        import numpy as np

        if self._timestamps_sorted:
            self._timestamps_sorted = bool(
                (not offset or timestamps[0] >= self.timestamp[offset - 1])
                and np.all(timestamps[1:] >= timestamps[:-1])
            )
        # One mask per known chain, not ``np.unique``: without an index or
        # count output that imports ``numpy.ma`` (numpy 2.x) for three codes.
        for code in range(len(CHAIN_ORDER)):
            mask = chain_codes == code
            if not mask.any():
                continue
            indices = np.nonzero(mask)[0].astype(np.int64)
            if offset:
                indices = indices + offset
            rows = self._chain_rows.get(code)
            if rows is None:
                rows = self._chain_rows[code] = array("q")
            rows.frombytes(indices.tobytes())
            chain_ts = timestamps[mask]
            low, high = float(chain_ts.min()), float(chain_ts.max())
            bounds = self._chain_bounds.get(code)
            if bounds is not None:
                low, high = min(bounds[0], low), max(bounds[1], high)
            self._chain_bounds[code] = (low, high)

    def extend_from_payload(self, payload: Mapping[str, Any]) -> int:
        """Append a payload's rows, remapping pool codes into this frame.

        Bulk column appends with C-level code remapping, then incremental
        bookkeeping — no per-row Python loop over the numeric columns.
        """
        import numpy as np

        def code_table(pool: StringPool, values: Sequence[str]):
            codes = [pool.intern(value) for value in values]
            return np.asarray(codes, dtype=np.int64)

        pools = payload["pools"]
        type_map = code_table(self.types, pools["types"])
        account_map = code_table(self.accounts, pools["accounts"])
        currency_map = code_table(self.currencies, pools["currencies"])
        error_map = code_table(self.errors, pools["errors"])
        count = len(payload["transaction_id"])
        if not count:
            return 0
        columns = payload["columns"]
        offset = len(self)

        def column_nd(name: str):
            data = columns[name]
            typecode = getattr(self, name).typecode
            dtype = np.dtype(typecode)
            if isinstance(data, np.ndarray):
                return data.astype(dtype, copy=False)
            if isinstance(data, array) and data.typecode == typecode:
                return as_ndarray(data)
            return np.asarray(data, dtype=dtype)

        def append_nd(name: str, values) -> None:
            column = getattr(self, name)
            column.frombytes(
                values.astype(np.dtype(column.typecode), copy=False).tobytes()
            )

        chain_codes = column_nd("chain_code")
        timestamps = column_nd("timestamp")
        append_nd("chain_code", chain_codes)
        append_nd("block_height", column_nd("block_height"))
        append_nd("timestamp", timestamps)
        append_nd("type_code", type_map[column_nd("type_code")])
        append_nd("sender_code", account_map[column_nd("sender_code")])
        append_nd("receiver_code", account_map[column_nd("receiver_code")])
        append_nd("contract_code", account_map[column_nd("contract_code")])
        append_nd("amount", column_nd("amount"))
        append_nd("currency_code", currency_map[column_nd("currency_code")])
        append_nd("issuer_code", account_map[column_nd("issuer_code")])
        append_nd("fee", column_nd("fee"))
        append_nd("success", column_nd("success"))
        append_nd("error_code", error_map[column_nd("error_code")])
        self.transaction_id.extend(payload["transaction_id"])
        self._extend_metadata(payload["metadata"])
        projection = payload.get("projected")
        if projection is not None and self._projected_rows() == offset:
            self._adopt_projection(projection)
        self._register_rows(chain_codes, timestamps, offset)
        return count


FrameLike = Union[TxFrame, TxView]


def view_of(source: FrameLike) -> TxView:
    """Normalise a frame-or-view into a view over its rows."""
    if isinstance(source, TxFrame):
        return source.all_rows()
    return source
