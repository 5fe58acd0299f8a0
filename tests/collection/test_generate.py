"""Window-sharded dataset generation: parallel in time, canonical in bytes.

``generate_sharded`` splits each chain's observation window into whole-day
sub-windows, generates every ``(chain, window)`` shard in its own process
into its own store, and assembles the shards into one canonical store.
These tests pin the determinism contract:

* worker count never changes a byte of the assembled store;
* a single-window sharded run equals the one-window ``build_store``
  stream exactly;
* window configs continue heights/levels/ledger indices precisely and
  keep id ranges disjoint;
* ``FrameStore.assemble`` refuses unflushed shards and keeps row/pool
  bookkeeping intact without decompressing chunk data.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.collection.generate import (
    ID_STRIDE,
    chain_window_configs,
    generate_sharded,
    window_day_offsets,
)
from repro.collection.store import CHUNK_FORMAT_V1, CHUNK_FORMAT_V2, CHUNK_FORMAT_V3, FrameStore
from repro.common import faults
from repro.common.errors import CollectionError
from repro.eos.workload import EosWorkloadConfig
from repro.scenarios import PaperScenario
from repro.tezos.workload import TezosWorkloadConfig
from repro.xrp.workload import XrpWorkloadConfig

from tests.fixtures import V1_STORE_ROWS, V2_STORE_ROWS, copy_v1_store, copy_v2_store


def _windowed_scenario(seed: int = 7, windows: int = 2) -> PaperScenario:
    """Four days around the EIDOS launch, split into generation windows."""
    window = {"start_date": "2019-10-30", "end_date": "2019-11-03"}
    return PaperScenario(
        name="gen-tiny",
        eos=EosWorkloadConfig(
            transactions_per_day=80, blocks_per_day=4, user_account_count=20,
            seed=seed, **window
        ),
        tezos=TezosWorkloadConfig(
            blocks_per_day=4, baker_count=8, user_account_count=30,
            seed=seed + 1, **window
        ),
        xrp=XrpWorkloadConfig(
            transactions_per_day=100, ledgers_per_day=4,
            ordinary_account_count=15, spam_accounts_per_wave=5,
            seed=seed + 2, **window
        ),
        generation_windows=windows,
    )


def _directory_bytes(directory):
    """Every file under ``directory`` with its exact content bytes."""
    snapshot = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                snapshot[os.path.relpath(path, directory)] = handle.read()
    return snapshot


class TestWindowDayOffsets:
    def test_covers_whole_span_monotonically(self):
        for days, windows in ((14, 1), (14, 3), (30, 8), (5, 5)):
            offsets = window_day_offsets(days, windows)
            assert offsets[0] == 0 and offsets[-1] == days
            assert len(offsets) == windows + 1
            assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_more_windows_than_days_rejected(self):
        with pytest.raises(CollectionError):
            window_day_offsets(3, 4)


class TestChainWindowConfigs:
    def test_windows_continue_dates_heights_and_ids(self):
        scenario = _windowed_scenario(windows=2)
        specs = chain_window_configs(scenario)
        assert [spec.chain for spec in specs] == [
            "eos", "eos", "tezos", "tezos", "xrp", "xrp"
        ]
        assert [spec.index for spec in specs] == list(range(6))
        by_chain = {}
        for spec in specs:
            by_chain.setdefault(spec.chain, []).append(spec.config)
        for chain, configs in by_chain.items():
            # Dates tile the original window exactly.
            assert configs[0].start_date == "2019-10-30"
            assert configs[0].end_date == configs[1].start_date == "2019-11-01"
            assert configs[1].end_date == "2019-11-03"
        eos0, eos1 = by_chain["eos"]
        assert eos1.start_height == eos0.start_height + 2 * eos0.blocks_per_day
        assert (eos0.transaction_id_offset, eos1.transaction_id_offset) == (
            0, ID_STRIDE
        )
        tez0, tez1 = by_chain["tezos"]
        assert tez1.start_level == tez0.start_level + 2 * tez0.blocks_per_day
        assert tez1.operation_id_offset == ID_STRIDE
        xrp0, xrp1 = by_chain["xrp"]
        # +1 on top of the day continuation: window 0's bootstrap closes
        # one rate-seeding ledger.
        assert xrp1.start_index == xrp0.start_index + 2 * xrp0.ledgers_per_day + 1
        assert xrp1.transaction_id_offset == ID_STRIDE


class TestGenerateSharded:
    def test_single_window_equals_serial_stream(self, tmp_path, monkeypatch):
        from repro.cli.build import build_store
        from repro.scenarios import registry

        scenario = _windowed_scenario(windows=1)
        monkeypatch.setitem(registry._REGISTRY, scenario.name, lambda seed: scenario)
        dataset = generate_sharded(scenario, str(tmp_path / "store"), workers=1)
        serial = build_store(scenario.name, 7, str(tmp_path / "serial"))
        serial_frame = serial.store.to_frame()
        stored = FrameStore.open(str(tmp_path / "store")).to_frame()
        assert dataset.rows == len(serial_frame)
        assert stored.to_payload() == serial_frame.to_payload()
        rates = {
            (currency, issuer): rate
            for currency, issuer, rate in dataset.oracle_rates
        }
        for currency, issuer in serial.oracle.known_assets():
            assert rates[(currency, issuer)] == serial.oracle.rate(
                currency, issuer
            )

    def test_worker_count_never_changes_a_byte(self, tmp_path):
        scenario = _windowed_scenario(windows=2)
        solo_dir, pool_dir = str(tmp_path / "solo"), str(tmp_path / "pool")
        solo = generate_sharded(scenario, solo_dir, workers=1)
        pool = generate_sharded(scenario, pool_dir, workers=3)
        assert solo.rows == pool.rows
        assert solo.shard_count == pool.shard_count == 6
        assert _directory_bytes(solo_dir) == _directory_bytes(pool_dir)
        assert solo.oracle_rates == pool.oracle_rates
        assert solo.clusters == pool.clusters

    def test_windowed_ids_are_disjoint_and_heights_continuous(self, tmp_path):
        from repro.common.records import ChainId

        scenario = _windowed_scenario(windows=2)
        generate_sharded(scenario, str(tmp_path), workers=1)
        frame = FrameStore.open(str(tmp_path)).to_frame()
        for chain in ChainId:
            rows = frame.chain_view(chain).rows
            assert len(rows)
            heights = [frame.block_height[row] for row in rows]
            # Window 1 continues window 0's height range exactly.
            assert heights == sorted(heights), chain
            ids = [frame.transaction_id[row] for row in rows]
            if chain is ChainId.EOS:
                # EOS action rows share their transaction's id in one
                # contiguous run; collapsing runs leaves transaction-level
                # ids, which must never collide across windows.
                ids = [tx_id for tx_id, _run in itertools.groupby(ids)]
            assert len(ids) == len(set(ids)), chain

    def test_shard_directories_are_consumed(self, tmp_path):
        generate_sharded(_windowed_scenario(windows=2), str(tmp_path), workers=1)
        leftovers = [
            name for name in os.listdir(str(tmp_path)) if name.startswith("shard-")
        ]
        assert leftovers == []


class TestAssemble:
    def _shard(self, directory, records_frame, chunk_rows=40):
        store = FrameStore(chunk_rows=chunk_rows, directory=str(directory))
        store.add_frame(records_frame)
        store.flush()
        return store

    def _shard_in(self, chunk_format, directory, records_frame) -> str:
        """A flushed shard: a fixture archive (v1, v2), or the frame written (v3)."""
        if chunk_format == CHUNK_FORMAT_V1:
            return copy_v1_store(directory)
        if chunk_format == CHUNK_FORMAT_V2:
            return copy_v2_store(directory)
        self._shard(directory, records_frame)
        return str(directory)

    def test_rejects_crashed_shard_without_manifest(self, tmp_path, eos_records):
        from repro.common.columns import TxFrame

        shard_dir = tmp_path / "shard"
        self._shard(shard_dir, TxFrame.from_records(eos_records[:50]))
        # Simulate a shard whose generator died before committing: the
        # chunk file exists but the manifest (the commit point) does not.
        os.remove(shard_dir / "manifest.json")
        with pytest.raises(CollectionError):
            FrameStore.assemble(str(tmp_path / "out"), [str(shard_dir)])

    @pytest.mark.parametrize(
        "chunk_format", [CHUNK_FORMAT_V1, CHUNK_FORMAT_V2, CHUNK_FORMAT_V3]
    )
    def test_crash_mid_assemble_leaves_a_rejected_target(
        self, tmp_path, eos_records, tezos_records, chunk_format
    ):
        """An assembly that dies between chunk moves must never be mistaken
        for a complete store — for either chunk serialisation format."""
        from repro.common.columns import TxFrame

        shard_dirs = [
            self._shard_in(
                chunk_format, tmp_path / f"in-{index}", TxFrame.from_records(rows)
            )
            for index, rows in enumerate([eos_records[:200], tezos_records[:200]])
        ]
        target = str(tmp_path / "out")
        plan = faults.FaultPlan.parse("store.assemble:mode=crash:nth=3")
        with faults.use_plan(plan):
            with pytest.raises(faults.InjectedCrash):
                FrameStore.assemble(target, shard_dirs, chunk_rows=40)
        assert plan.total_fires == 1
        # Chunks really did move before the crash (a partial assembly)...
        assert any(name.startswith("frame-chunk-") for name in os.listdir(target))
        # ...and the target refuses to open rather than serving a prefix.
        with pytest.raises(CollectionError, match="partial assembly"):
            FrameStore.open(target)

    @pytest.mark.parametrize(
        "chunk_format", [CHUNK_FORMAT_V1, CHUNK_FORMAT_V2, CHUNK_FORMAT_V3]
    )
    def test_completed_assembly_opens_clean(self, tmp_path, eos_records, chunk_format):
        from repro.common.columns import TxFrame

        shard_dir = self._shard_in(
            chunk_format, tmp_path / "in", TxFrame.from_records(eos_records[:120])
        )
        rows = {CHUNK_FORMAT_V1: V1_STORE_ROWS, CHUNK_FORMAT_V2: V2_STORE_ROWS}.get(
            chunk_format, 120
        )
        target = str(tmp_path / "out")
        FrameStore.assemble(target, [shard_dir], chunk_rows=40)
        reopened = FrameStore.open(target)
        assert reopened.row_count == len(reopened.to_frame()) == rows

    def test_assembled_store_equals_concatenated_frames(
        self, tmp_path, eos_records, tezos_records, xrp_records
    ):
        from repro.common.columns import TxFrame

        slices = [eos_records[:300], tezos_records[:300], xrp_records[:300]]
        shard_dirs = []
        for index, rows in enumerate(slices):
            shard_dir = tmp_path / f"in-{index}"
            self._shard(shard_dir, TxFrame.from_records(rows))
            shard_dirs.append(str(shard_dir))
        combined = FrameStore.assemble(str(tmp_path / "out"), shard_dirs)
        expected = TxFrame.from_records([row for rows in slices for row in rows])
        assert combined.row_count == len(expected)
        reopened = FrameStore.open(str(tmp_path / "out"))
        assert reopened.to_frame().to_payload() == expected.to_payload()
        assert reopened.chain_row_counts() == {
            "eos": 300, "tezos": 300, "xrp": 300
        }
