"""Streaming generation holds a block, not the history.

The chain simulators are archive nodes by default — ``generate()`` and
``stream_block_batches`` leave every height servable over RPC — but the
consumers that hand blocks on and never read the chain again
(``stream_records()``, ``pending_batches``) prune as they go, and a cold
build streams its rows into the store a chunk at a time, so the peak of a
cold build is one chunk plus one block, not the dataset.  Asserted
structurally (what each chain still holds) and with ``tracemalloc`` against
retaining twins.

Flatness across window lengths is deliberately *not* asserted: ledger state
(accounts, the order book) and the EIDOS-surge block size legitimately grow.
"""

from __future__ import annotations

import tracemalloc
from collections import deque
from dataclasses import replace
from functools import partial

import pytest

from repro.cli import build
from repro.collection.endpoints import EndpointProfile
from repro.collection.store import FrameStore
from repro.common.columns import TxFrame
from repro.eos.rpc import EosRpcEndpoint
from repro.pipeline import Pipeline, pending_batches, stream_block_batches
from repro.pipeline.live import scenario_generators
from repro.scenarios import get_scenario, registry
from repro.tezos.rpc import TezosRpcEndpoint
from repro.xrp.rpc import XrpRpcEndpoint

CHAINS = ("eos", "tezos", "xrp")
BATCH_SECONDS = 6 * 3600.0
ENDPOINTS = {"eos": EosRpcEndpoint, "tezos": TezosRpcEndpoint, "xrp": XrpRpcEndpoint}


def _cut():
    """An 8-day cut of the ``live_tail`` scenario (84,061 rows)."""
    scenario = get_scenario("live_tail", seed=7)
    return replace(
        scenario,
        **{name: replace(getattr(scenario, name), end_date="2019-11-05") for name in CHAINS},
    )


def _generators() -> dict:
    """Fresh generators over the 8-day cut."""
    return scenario_generators(_cut())


def _chain(generator):
    return generator.ledger if hasattr(generator, "ledger") else generator.chain


def _held(generators: dict) -> dict:
    return {name: len(_chain(generator).blocks) for name, generator in generators.items()}


def _assert_serves_every_height(name: str, generator, first: int) -> None:
    chain = _chain(generator)
    profile = EndpointProfile(name="archive", requests_per_second=1e6, burst=1e6)
    endpoint = ENDPOINTS[name](chain, profile=profile)
    head = endpoint.head_height(0.0)
    assert head == chain.head().height > first
    for height in range(first, head + 1):
        assert endpoint.fetch_block(height, 0.0).height == height


class TestStreamingConsumersPrune:
    @pytest.mark.parametrize("name", CHAINS)
    def test_frame_extend_leaves_only_the_head(self, name):
        generator = _generators()[name]
        frame = TxFrame()
        frame.extend(generator.stream_records())
        chain = _chain(generator)
        assert len(frame) > 0
        assert len(chain.blocks) == 1 and chain.head().height == frame.block_height[-1]

    @pytest.mark.parametrize("name", CHAINS)
    def test_store_add_records_leaves_only_the_head(self, name, tmp_path):
        generator = _generators()[name]
        store = FrameStore(chunk_rows=5_000, directory=str(tmp_path))
        store.add_records(generator.stream_records())
        store.flush()
        assert store.row_count > 0
        assert len(_chain(generator).blocks) == 1

    def test_pending_batches_prune_fresh_and_across_a_durable_prefix(self, tmp_path):
        generators = _generators()
        pipeline = Pipeline(str(tmp_path / "pipe"))
        batches = pending_batches(pipeline, generators, BATCH_SECONDS)
        for expected in range(3):
            index, _end, blocks, skip_rows = next(batches)
            # Handed on: the chains hold their heads (the merge's look-ahead).
            assert (index, skip_rows) == (expected, 0)
            assert max(_held(generators).values()) <= 1, _held(generators)
            pipeline.ingest_blocks(blocks)
        durable = pipeline.store.row_count

        # A later session replays the stream and skips the durable batches;
        # the skipped ones must not pile up in the chains either.
        resumed = Pipeline(str(tmp_path / "pipe"))
        generators = _generators()
        batches = pending_batches(resumed, generators, BATCH_SECONDS)
        index, _end, blocks, skip_rows = next(batches)
        assert (index, skip_rows, resumed.store.row_count) == (3, 0, durable)
        assert max(_held(generators).values()) <= 1, _held(generators)
        resumed.ingest_blocks(blocks)
        for _index, _end, blocks, _skip in batches:
            assert max(_held(generators).values()) <= 1, _held(generators)
            resumed.ingest_blocks(blocks)
        assert _held(generators) == dict.fromkeys(CHAINS, 1)
        assert resumed.store.row_count > durable


class TestRetentionStaysTheDefault:
    def test_generate_serves_every_height_over_rpc(self):
        for name, generator in _generators().items():
            blocks = generator.generate()
            assert _chain(generator).blocks[-len(blocks):] == blocks
            _assert_serves_every_height(name, generator, blocks[0].height)

    def test_drained_block_batches_serve_every_height_over_rpc(self):
        generators = _generators()
        first = {}
        for _end, blocks in stream_block_batches(generators, BATCH_SECONDS):
            for block in blocks:
                first.setdefault(block.chain.value, block.height)
        for name, generator in generators.items():
            _assert_serves_every_height(name, generator, first[name])


def _traced_peak(consume) -> int:
    tracemalloc.start()
    try:
        consume()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestTracedPeak:
    @pytest.mark.parametrize("name", CHAINS)
    def test_streaming_peak_is_at_most_half_of_the_retaining_twin(self, name):
        """Measured when written: EOS 1.3 / 26.5 MB, Tezos 0.27 / 2.59, XRP 2.56 / 8.78."""
        streaming, retaining = _generators()[name], _generators()[name]
        streamed = _traced_peak(lambda: deque(streaming.stream_records(), maxlen=0))
        retained = _traced_peak(retaining.generate)
        assert streamed <= 0.5 * retained, (name, streamed, retained)

    def test_cold_build_peak_is_one_chunk_not_the_dataset(self, tmp_path, monkeypatch):
        """The one-window ``build_store`` against its resident twin (every
        chain extended onto one frame, then ``add_frame``), both cutting
        10,000-row chunks, so that one chunk is an eighth of the cut.
        Measured when written: 10.3 / 38.7 MB."""
        chunk_rows = 10_000
        scenario = _cut()
        monkeypatch.setitem(registry._REGISTRY, "live_tail-cut", lambda seed: scenario)
        monkeypatch.setattr(build, "FrameStore", partial(FrameStore, chunk_rows=chunk_rows))

        def resident() -> None:
            frame = TxFrame()
            for generator in scenario_generators(scenario).values():
                frame.extend(generator.stream_records())
            FrameStore(chunk_rows=chunk_rows, directory=str(tmp_path / "resident")).add_frame(frame)

        streamed = _traced_peak(lambda: build.build_store("live_tail-cut", 7, str(tmp_path)))
        retained = _traced_peak(resident)
        assert streamed <= 0.5 * retained, (streamed, retained)
