"""Property: each persisted JSON document is judged alike by its command and by fsck.

Arbitrary bytes, arbitrary JSON and near-valid documents (one field
replaced by arbitrary JSON, or dropped) are written to each of the three
document paths: a store's ``manifest.json``, a pipeline's ``meta.json`` and
a dataset cache's ``meta.json``.  The manifest and pipeline-meta readers —
and the commands that open through them — let only ``CollectionError``
escape; the dataset cache takes every refusal as a miss (``cached_store``
is ``None``); and ``run_fsck`` is unclean exactly when a reader refuses (a
manifest that names a chunk the disk lacks is damage fsck reports too).
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli.dataset import META_NAME, cached_store, read_cache_meta
from repro.collection.store import MANIFEST_NAME, POOL_NAMES, FrameStore, read_manifest
from repro.common.errors import CollectionError
from repro.pipeline import Pipeline, run_fsck
from repro.pipeline.core import PIPELINE_META_NAME, read_pipeline_meta

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

MANIFEST_KINDS = {"manifest_unreadable", "manifest_version", "partial_assembly", "manifest_entry_incomplete"}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=10,
)

ENTRY = {
    "file": "frame-chunk-000000.v3.bin",
    "rows": 1,
    "compressed_bytes": 10,
    "raw_bytes": 20,
    "heights": {"eos": [1, 1]},
    "times": {"eos": [1.0, 1.0]},
    "chain_rows": {"eos": 1},
    "pools": {name: [] for name in POOL_NAMES},
}
MANIFEST = {"version": 2, "chunk_rows": 5, "row_count": 1, "chunks": [ENTRY]}
ANALYSIS = {"oracle_rates": [["USD", "rIssuer", 0.5]], "clusters": {"rAlice": "exchange"}}
#: The crawl and batch cursors the commands read as ints.
CURSORS = {"next_batch_index": 3, "crawled_head_eos": 10, "missing_heights_eos": [4, 5]}
PIPELINE_META = {"version": 1, **ANALYSIS, **CURSORS}
CACHE_META = {"version": 1, "scenario": "tiny", "seed": 7, "rows": 0, **ANALYSIS}


def _near(document: dict) -> st.SearchStrategy:
    """``document`` with one key set to arbitrary JSON or dropped."""
    keys = st.sampled_from(sorted(document) + ["extra"])
    return st.tuples(keys, JSON, st.booleans()).map(
        lambda change: {
            key: value for key, value in {**document, change[0]: change[1]}.items()
            if not (change[2] and key == change[0])
        }
    )


def _near_manifest() -> st.SearchStrategy:
    entries = _near(ENTRY).map(lambda entry: dict(MANIFEST, chunks=[entry]))
    return st.one_of(_near(MANIFEST), entries)


def _content(documents: st.SearchStrategy) -> st.SearchStrategy:
    """Bytes to write: raw bytes, arbitrary JSON or a near-valid document."""
    return st.one_of(
        st.binary(max_size=24),
        st.one_of(JSON, documents).map(lambda document: json.dumps(document).encode()),
    )


def _refusal(reader, path):
    try:
        reader(path)
    except CollectionError as error:
        return error
    return None


def _write(path: str, content: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(content)


@SETTINGS
@given(_content(_near_manifest()))
def test_a_manifest_is_refused_by_open_and_flagged_by_fsck_alike(content):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, MANIFEST_NAME)
        _write(path, content)
        refusal = _refusal(read_manifest, path)
        report = run_fsck(root)
        flagged = [issue.kind for issue in report.issues if issue.kind in MANIFEST_KINDS]
        if refusal is None:
            # What fsck may still find is a chunk the manifest names and the
            # disk lacks: damage behind the document, which open truncates.
            assert flagged == []
            assert report.clean == (not json.loads(content)["chunks"])
        elif refusal.kind == "manifest_entry_incomplete":
            # The entry's chunk is missing too, which fsck names first.
            assert not report.clean
        else:
            assert flagged == [refusal.kind]
        try:
            FrameStore.open(root)
        except CollectionError:
            pass


@SETTINGS
@given(_content(_near(PIPELINE_META)))
def test_a_pipeline_meta_is_refused_by_the_pipeline_and_flagged_by_fsck_alike(content):
    with tempfile.TemporaryDirectory() as root:
        FrameStore(directory=os.path.join(root, "frames"))._write_manifest()
        path = os.path.join(root, PIPELINE_META_NAME)
        _write(path, content)
        refusal = _refusal(read_pipeline_meta, path)
        report = run_fsck(root)
        assert report.clean == (refusal is None)
        if refusal is not None:
            assert [issue.kind for issue in report.issues] == ["meta_unreadable"]
            assert refusal.kind == "meta_unreadable"
        try:
            Pipeline(root)
        except CollectionError as error:
            assert refusal is not None and str(error) == str(refusal)
        else:
            assert refusal is None


@pytest.mark.parametrize(
    "key, value",
    [
        ("next_batch_index", "x"),
        ("next_batch_index", 1.5),
        ("next_batch_index", True),
        ("crawled_head_xrp", None),
        ("missing_heights_eos", 4),
        ("missing_heights_eos", [4, "5"]),
    ],
)
def test_a_cursor_the_commands_read_as_an_int_must_be_one(key, value):
    with tempfile.TemporaryDirectory() as root:
        FrameStore(directory=os.path.join(root, "frames"))._write_manifest()
        path = os.path.join(root, PIPELINE_META_NAME)
        _write(path, json.dumps({**PIPELINE_META, key: value}).encode())
        refusal = _refusal(read_pipeline_meta, path)
        assert refusal is not None and refusal.kind == "meta_unreadable"
        assert repr(key) in str(refusal)
        assert [issue.kind for issue in run_fsck(root).issues] == ["meta_unreadable"]


@SETTINGS
@given(_content(_near(CACHE_META)))
def test_a_dataset_cache_meta_is_a_miss_exactly_when_fsck_flags_it(content):
    with tempfile.TemporaryDirectory() as cache_root:
        directory = os.path.join(cache_root, "tiny-seed7")
        FrameStore(directory=directory)._write_manifest()
        path = os.path.join(directory, META_NAME)
        _write(path, content)
        refusal = _refusal(read_cache_meta, path)
        report = run_fsck(directory)
        assert report.clean == (refusal is None)
        if refusal is not None:
            assert refusal.kind == "meta_unreadable"
            assert cached_store("tiny", 7, cache_root) is None
