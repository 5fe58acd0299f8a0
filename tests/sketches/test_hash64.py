"""``hash64_batch`` is the vectorized twin of ``hash64``, value for value.

The sketch-mode kernels feed HyperLogLogs from the batch hash column while
the row-step reference hashes one id at a time; persisted sketches from
either must merge, so the two implementations have to agree on every
string — including the ones the vectorized slice hasher special-cases.
"""

from __future__ import annotations

from array import array
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import sketches
from repro.common.sketches import hash64, hash64_batch

#: Ids that stress the NUL-joined buffer: empty strings (zero-length
#: segments), embedded NULs (the separator), multi-byte UTF-8.
_ids = st.one_of(
    st.just(""),
    st.text(max_size=12),
    st.text(alphabet="\x00ab", max_size=6),
    st.text(alphabet="é漢🙂x", max_size=6),
)


def _reference(values) -> array:
    return array("Q", map(hash64, values))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_ids, max_size=40))
def test_batch_hash_equals_reference(values):
    assert hash64_batch(values) == _reference(values)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(_ids, min_size=1, max_size=40), slice_size=st.integers(1, 7))
def test_batch_hash_equals_reference_across_slices(values, slice_size):
    """Inputs longer than the hashing slice: every slice boundary, and a
    NUL-bearing slice falling back to the reference loop beside clean ones."""
    with mock.patch.object(sketches, "_HASH_SLICE", slice_size):
        assert hash64_batch(values) == _reference(values)


def test_batch_hash_beyond_the_real_slice_size():
    values = [f"tx-{index:07d}" for index in range(sketches._HASH_SLICE + 3)]
    values[5] = ""
    values[-1] = "with\x00nul"  # lands in the second slice only
    assert hash64_batch(values) == _reference(values)
    assert hash64_batch([]) == array("Q")
