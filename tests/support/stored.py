"""What a store gives back of a row's metadata: the oracle round-trip tests
compare with.

A chunk keeps, of each row's metadata, the keys figures read as columns
(``PROJECTED_KEYS``) and the few others its JSON may hold (``RESIDUE_KEYS``);
it drops every other key at encode, and gives the kept keys back sorted.  The
restriction is written from those two constants alone, not through the
encoder's ``split_residue``, so a test built on it does not share the code it
checks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.projection import PROJECTED_KEYS, RESIDUE_KEYS
from repro.common.records import TransactionRecord

#: Every metadata key a chunk gives back.
STORED_KEYS = frozenset(PROJECTED_KEYS) | RESIDUE_KEYS


def stored_metadata(metadata: Optional[Dict]) -> Optional[Dict]:
    """``metadata`` restricted to :data:`STORED_KEYS`, keys sorted; ``None``
    when it keeps no key (how a decoded chunk's metadata column holds such a
    row)."""
    kept = {key: metadata[key] for key in sorted(metadata or ()) if key in STORED_KEYS}
    return kept or None


def stored_record(record: TransactionRecord) -> TransactionRecord:
    """``record`` as a store gives it back (a record's empty metadata is ``{}``)."""
    return record._replace(metadata=stored_metadata(record.metadata) or {})


def stored_records(records: Iterable[TransactionRecord]) -> List[TransactionRecord]:
    """Each of ``records`` as a store gives it back."""
    return [stored_record(record) for record in records]
