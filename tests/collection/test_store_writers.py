"""A store's bytes depend on its rows and its chunk cut, not on its writer.

The same generated rows go into a store three ways: ``add_frame`` of a
resident frame, ``add_records`` of the record stream and the one-window
``build_store``.  Each chunk carries only the strings its rows use, in the
order a fresh frame of those rows interns them, so all three write the same
chunk files and the same manifest — including where the whole frame's pools
hold strings a chunk never references.
"""

from __future__ import annotations

import itertools
import pathlib
from functools import partial

import numpy as np
import pytest

from repro.cli import build
from repro.collection.store import POOL_NAMES, FrameStore
from repro.common.columns import TxFrame
from repro.common.projection import PROJECTED_KEYS
from repro.pipeline.live import scenario_generators
from repro.scenarios import registry

from tests.collection.test_generate import _windowed_scenario

#: 5,137 EOS, 639 Tezos and 702 XRP rows.
SCENARIO = _windowed_scenario(windows=1)
EOS_ROWS = 5_137

#: Pool name -> the code columns that index it.
POOL_COLUMNS = {
    "types": ("type_code",),
    "accounts": ("sender_code", "receiver_code", "contract_code", "issuer_code"),
    "currencies": ("currency_code",),
    "errors": ("error_code",),
}


def _streams():
    return [generator.stream_records() for generator in scenario_generators(SCENARIO).values()]


def _store_bytes(directory) -> dict:
    paths = sorted(directory.glob("frame-chunk-*"))
    assert paths, f"no chunk files in {directory}"
    return {path.name: path.read_bytes() for path in paths + [directory / "manifest.json"]}


def _framed(directory: str, chunk_rows: int) -> FrameStore:
    frame = TxFrame()
    for stream in _streams():
        frame.extend(stream)
    store = FrameStore(chunk_rows=chunk_rows, directory=directory)
    store.add_frame(frame)
    return store


def _written_three_ways(tmp_path, monkeypatch, chunk_rows: int) -> list:
    framed = _framed(str(tmp_path / "frame"), chunk_rows)
    streamed = FrameStore(chunk_rows=chunk_rows, directory=str(tmp_path / "records"))
    streamed.add_records(itertools.chain(*_streams()))
    streamed.flush()
    monkeypatch.setitem(registry._REGISTRY, SCENARIO.name, lambda seed: SCENARIO)
    monkeypatch.setattr(build, "FrameStore", partial(FrameStore, chunk_rows=chunk_rows))
    built = build.build_store(SCENARIO.name, 7, str(tmp_path / "cache"))
    return [pathlib.Path(store.directory) for store in (framed, streamed, built.store)]


@pytest.mark.parametrize(
    "chunk_rows", [1_000, EOS_ROWS], ids=["cuts-inside-chains", "a-cut-on-the-chain-boundary"]
)
def test_every_writer_writes_the_same_bytes(tmp_path, monkeypatch, chunk_rows):
    framed, streamed, built = _written_three_ways(tmp_path, monkeypatch, chunk_rows)
    expected = _store_bytes(framed)
    assert _store_bytes(streamed) == expected
    assert _store_bytes(built) == expected
    store = FrameStore.open(str(framed))
    assert store.chain_row_counts() == {"eos": EOS_ROWS, "tezos": 639, "xrp": 702}
    assert store.chunk_row_counts()[-1] < chunk_rows  # a ragged tail
    if chunk_rows == EOS_ROWS:
        assert store.chain_row_counts(stop=1) == {"eos": EOS_ROWS}


def test_a_chunk_carries_exactly_the_strings_its_rows_use(tmp_path):
    store = FrameStore.open(_framed(str(tmp_path), 1_000).directory)
    assert store.committed_chunk_count > 2
    for index in range(store.committed_chunk_count):
        payload = store.chunk_payload(index)
        for name in POOL_NAMES:
            codes = np.concatenate(
                [np.asarray(payload["columns"][column]) for column in POOL_COLUMNS[name]]
            )
            used = set(np.unique(codes).tolist())
            assert used == set(range(len(payload["pools"][name]))), (index, name)
        projection = payload["projected"]
        codes = np.concatenate(
            [np.asarray(projection.columns[key]) for key, kind in PROJECTED_KEYS.items() if kind != "flag"]
        )
        used = set(np.unique(codes[codes >= 0]).tolist())
        assert used == set(range(len(projection.strings))), (index, "projected strings")
