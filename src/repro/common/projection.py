"""The metadata keys figures read, as typed columns: the one projection.

Three of the paper's findings read seven keys of the free-form per-row
metadata.  :func:`project_metadata` turns them into columns, so scans read
codes and never parse or walk a dict: frames project the rows they were
given as records (``TxFrame.projected``), and v3 chunks store the columns
beside the rest of each row's metadata (:func:`split_residue` /
:func:`merge_residue`).  Only code that scans or encodes rows imports this.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

#: The metadata keys figures read, projected into typed columns so that no
#: scan parses metadata: key -> kind.  A ``flag`` column holds ``bool(value)``
#: as int8, a ``text`` column the int32 code of ``str(value)`` in the
#: projection's strings, a ``name`` column the code of the value only if it
#: is a ``str`` (its figure compares it with an account name); ``-1`` is
#: "absent".  Adding a key is a chunk-format change (``docs/architecture.md``).
PROJECTED_KEYS: Dict[str, str] = {
    "buyer": "text",  # WhaleEx trades (wash trading)
    "category": "text",  # Tezos operation category
    "executed": "flag",  # XRP offers that crossed
    "inline": "flag",  # EOS inline actions (airdrop refunds)
    "seller": "text",
    "symbol": "text",
    "transfer_to": "name",  # EOS token recipient (airdrop deposits)
}
PROJECTED_TYPECODES = {"flag": "b", "text": "i", "name": "i"}

#: The type a column gives back: only a value of it leaves the stored JSON.
_PROJECTED_EXACT = {"flag": bool, "text": str, "name": str}


class Projection(NamedTuple):
    """:data:`PROJECTED_KEYS` columns of a run of rows and their strings."""

    columns: Dict[str, Any]
    strings: List[str]


def project_metadata(dicts: Sequence[Optional[Dict[str, Any]]]) -> Projection:
    """The :data:`PROJECTED_KEYS` columns (ndarrays) of per-row metadata.

    Used for records, for v1/v2 chunk rows and by the v3 encoder, so kernels
    reading columns see what references reading dicts see.  Strings are
    pooled in row-major first-seen order: runs projected one by one and
    pooled in order give the pool of one projection.
    """
    import numpy as np

    rows = list(dicts)
    found: Dict[str, List[int]] = {key: [] for key in PROJECTED_KEYS}
    holder = {key: found[key].append for key in PROJECTED_KEYS}.get
    for row, meta in enumerate(rows):
        if meta:
            # A row's own few keys, rather than one probe per projected key.
            for key in meta:
                append = holder(key)
                if append is not None:
                    append(row)
    columns: Dict[str, Any] = {}
    strings: List[str] = []  # key-major first-seen order, until sorted below
    codes: Dict[str, int] = {}
    first: List[int] = []  # each string's first row-major (row, key) position
    for index, (key, kind) in enumerate(PROJECTED_KEYS.items()):
        where = found[key]
        values = list(map(dict.__getitem__, map(rows.__getitem__, where), repeat(key)))
        if kind == "flag":
            columns[key] = np.full(len(rows), -1, np.int8)
            columns[key][where] = list(map(bool, values))
            continue
        if kind == "text":
            values = list(map(str, values))
        else:
            named = [isinstance(value, str) for value in values]
            where, values = list(compress(where, named)), list(compress(values, named))
        # Built in reverse, so each distinct string ends on its first row.
        for text, row in dict(zip(reversed(values), reversed(where))).items():
            position = row * len(PROJECTED_KEYS) + index
            if text not in codes:
                codes[text] = len(strings)
                strings.append(text)
                first.append(position)
            first[codes[text]] = min(first[codes[text]], position)
        columns[key] = np.full(len(rows), -1, np.int32)
        columns[key][where] = list(map(codes.__getitem__, values))
    order = sorted(range(len(strings)), key=first.__getitem__)
    remap = np.full(len(strings) + 1, -1, np.int32)  # remap[-1]: absent stays -1
    remap[order] = np.arange(len(strings), dtype=np.int32)
    for key, kind in PROJECTED_KEYS.items():
        if kind != "flag":
            columns[key] = remap[columns[key]]
    return Projection(columns, [strings[code] for code in order])


def split_residue(dicts: Sequence[Optional[Dict]], projection: Projection) -> List[Optional[Dict]]:
    """The rows' metadata without the projected keys that re-insert exactly
    (``projection`` is theirs); a row left without keys is ``{}``."""
    import numpy as np

    residue = list(dicts)
    for key, kind in PROJECTED_KEYS.items():
        exact = _PROJECTED_EXACT[kind]
        for row in np.flatnonzero(np.asarray(projection.columns[key]) >= 0).tolist():
            meta = residue[row]
            if meta[key].__class__ is exact:
                if meta is dicts[row]:  # copied once, on the first key it drops
                    meta = residue[row] = dict(meta)
                del meta[key]
    return residue


def merge_residue(residue: List[Optional[Dict]], projection: Projection) -> List[Optional[Dict]]:
    """Invert :func:`split_residue` in place; a key the residue kept wins,
    and a touched row's keys are sorted (as a v2 chunk's JSON gives them)."""
    import numpy as np

    touched = set()
    for key, kind in PROJECTED_KEYS.items():
        column = np.asarray(projection.columns[key])
        rows = np.flatnonzero(column >= 0)
        value_of = bool if kind == "flag" else projection.strings.__getitem__
        for row, value in zip(rows.tolist(), map(value_of, column[rows].tolist())):
            meta = residue[row] = residue[row] or {}
            if key not in meta:
                meta[key] = value
                touched.add(row)
    for row in touched:
        residue[row] = dict(sorted(residue[row].items()))
    return residue
