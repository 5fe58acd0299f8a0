"""Checkpoint persistence and the accumulator snapshot/restore contract.

Two layers are covered:

* :class:`CheckpointStore` / :class:`PipelineCheckpoint` — the snapshot is
  one state entry: atomic durable persistence, corruption / truncation /
  foreign-format degradation (every single-bit flip of the file included),
  signature gating, and the inertness of a leftover pickle checkpoint;
* the snapshot/restore contract of **every** accumulator across all nine
  analysis modules: scanning a row prefix, exporting the pre-finalize
  state through the codec, restoring it in a "new session" into freshly
  bound accumulators and scanning the suffix must equal one serial pass.
"""

from __future__ import annotations

import io
import json
import os
import pickle

import pytest

from repro.analysis.accounts import (
    AccountActivityAccumulator,
    SenderCountsAccumulator,
    SenderReceiverPairsAccumulator,
)
from repro.analysis.airdrop import AirdropAccumulator, BoomerangClaimsAccumulator
from repro.analysis.classify import (
    CategoryDistributionAccumulator,
    ContractBreakdownAccumulator,
    TezosCategoryAccumulator,
    TypeDistributionAccumulator,
)
from repro.analysis.clustering import (
    AccountClusterer,
    ClusterCountsAccumulator,
    StaticAccountClusterer,
)
from repro.analysis.engine import AnalysisEngine, TxStatsAccumulator
from repro.analysis.parallel import fold_states
from repro.analysis.statecache import ENTRY_MAGIC, decode_entry, encode_entry
from repro.analysis.flows import ValueFlowAccumulator
from repro.analysis.governance import GovernanceOpsAccumulator
from repro.analysis.report import FIGURE3_CATEGORIZERS, full_report
from repro.analysis.throughput import ThroughputSeriesAccumulator
from repro.analysis.value import (
    ExchangeRateOracle,
    FailureCodeAccumulator,
    XrpDecompositionAccumulator,
)
from repro.analysis.washtrading import TradeExtractionAccumulator, WashTradeAccumulator
from repro.cli import main as cli_main
from repro.common import statecodec
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from repro.pipeline import Pipeline
from repro.pipeline.checkpoint import (
    CheckpointStore,
    PipelineCheckpoint,
    decode_snapshot,
)

from tests.support.reports import assert_reports_identical


@pytest.fixture(scope="module")
def combined_frame(eos_records, tezos_records, xrp_records):
    return TxFrame.from_records(eos_records + tezos_records + xrp_records)


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _scan_without_finalize(accumulators, frame, rows):
    """Drive a scan manually — snapshots must capture pre-finalize state."""
    consumers = [accumulator.bind_batch(frame) for accumulator in accumulators]
    for consume in consumers:
        consume(rows)


def _checkpoint_cycle(factory, frame, split):
    """Scan [0, split), snapshot via the codec, restore, scan [split, n)."""
    prefix = factory()
    _scan_without_finalize(prefix, frame, range(0, split))
    # Pre-finalize snapshot: export → codec bytes → decode → restore.
    blob = statecodec.encode(
        [accumulator.export_state() for accumulator in prefix]
    )
    signatures = [accumulator.config_signature() for accumulator in prefix]
    payloads = statecodec.decode(blob)
    base = factory()
    consumers = [accumulator.bind_batch(frame) for accumulator in base]
    for target, signature, payload in zip(base, signatures, payloads):
        assert target.config_signature() == signature
        target.restore_state(payload)
    suffix = range(split, len(frame))
    for consume in consumers:
        consume(suffix)
    return {accumulator.name: accumulator.finalize() for accumulator in base}


def _serial(factory, frame):
    result = AnalysisEngine(factory()).run(frame)
    return {name: result[name] for name in result.keys()}


class TestSnapshotRestoreContract:
    """Prefix snapshot + suffix scan == one pass, for every accumulator."""

    SPLIT_FRACTIONS = (0.33, 0.8)

    def _check(self, factory, combined_frame):
        serial = _serial(factory, combined_frame)
        for fraction in self.SPLIT_FRACTIONS:
            split = int(len(combined_frame) * fraction)
            cycled = _checkpoint_cycle(factory, combined_frame, split)
            assert cycled.keys() == serial.keys()
            for name in serial:
                assert cycled[name] == serial[name], name

    def test_tx_stats(self, combined_frame):
        self._check(lambda: [TxStatsAccumulator()], combined_frame)

    def test_type_distribution(self, combined_frame):
        self._check(lambda: [TypeDistributionAccumulator()], combined_frame)

    def test_category_distribution(self, combined_frame):
        self._check(lambda: [CategoryDistributionAccumulator()], combined_frame)

    def test_tezos_category_distribution(self, combined_frame):
        self._check(lambda: [TezosCategoryAccumulator()], combined_frame)

    def test_contract_breakdown(self, combined_frame):
        self._check(
            lambda: [ContractBreakdownAccumulator("eosio.token")], combined_frame
        )

    def test_throughput_series(self, combined_frame):
        bounds = combined_frame.chain_bounds(ChainId.EOS)
        self._check(
            lambda: [
                ThroughputSeriesAccumulator(
                    key_columns=FIGURE3_CATEGORIZERS[ChainId.EOS],
                    start=bounds[0],
                    end=bounds[1],
                )
            ],
            combined_frame,
        )

    def test_account_activity(self, combined_frame):
        self._check(
            lambda: [
                AccountActivityAccumulator("sender", 10),
                AccountActivityAccumulator("receiver", 10),
            ],
            combined_frame,
        )

    def test_sender_receiver_pairs(self, combined_frame):
        self._check(lambda: [SenderReceiverPairsAccumulator()], combined_frame)

    def test_sender_counts(self, combined_frame):
        self._check(lambda: [SenderCountsAccumulator()], combined_frame)

    def test_xrp_decomposition(self, combined_frame, xrp_oracle):
        self._check(
            lambda: [XrpDecompositionAccumulator(xrp_oracle)], combined_frame
        )

    def test_failure_codes(self, combined_frame):
        self._check(lambda: [FailureCodeAccumulator()], combined_frame)

    def test_wash_trading(self, combined_frame):
        self._check(
            lambda: [WashTradeAccumulator(), TradeExtractionAccumulator()],
            combined_frame,
        )

    def test_airdrop(self, combined_frame):
        self._check(
            lambda: [AirdropAccumulator(), BoomerangClaimsAccumulator()],
            combined_frame,
        )

    def test_cluster_counts(self, combined_frame, xrp_clusterer):
        self._check(
            lambda: [ClusterCountsAccumulator(xrp_clusterer, "sender")],
            combined_frame,
        )

    def test_governance_ops(self, combined_frame):
        self._check(lambda: [GovernanceOpsAccumulator()], combined_frame)

    def test_value_flows_exact(self, combined_frame, xrp_oracle, xrp_clusterer):
        # Prefix merge + suffix scan replays the serial row order exactly,
        # so even the float sums match bit-for-bit (unlike shard merging).
        self._check(
            lambda: [ValueFlowAccumulator(xrp_clusterer, xrp_oracle)],
            combined_frame,
        )


class TestConfigSignatures:
    def test_configuration_changes_signature(self, xrp_oracle):
        assert (
            AccountActivityAccumulator("sender", 10).config_signature()
            != AccountActivityAccumulator("sender", 5).config_signature()
        )
        assert (
            AccountActivityAccumulator("sender", 10).config_signature()
            != AccountActivityAccumulator("receiver", 10).config_signature()
        )
        richer = ExchangeRateOracle(
            {(c, i): xrp_oracle.rate(c, i) for c, i in xrp_oracle.known_assets()}
        )
        assert (
            XrpDecompositionAccumulator(xrp_oracle).config_signature()
            == XrpDecompositionAccumulator(richer).config_signature()
        )
        drifted = ExchangeRateOracle({("USD", "issuer"): 2.0})
        assert (
            XrpDecompositionAccumulator(xrp_oracle).config_signature()
            != XrpDecompositionAccumulator(drifted).config_signature()
        )

    def test_throughput_signature_ignores_end_but_not_start(self):
        categorizer = FIGURE3_CATEGORIZERS[ChainId.EOS]
        base = ThroughputSeriesAccumulator(
            key_columns=categorizer, start=100.0, end=200.0
        )
        extended = ThroughputSeriesAccumulator(
            key_columns=categorizer, start=100.0, end=900.0
        )
        shifted = ThroughputSeriesAccumulator(
            key_columns=categorizer, start=50.0, end=900.0
        )
        assert base.config_signature() == extended.config_signature()
        assert base.config_signature() != shifted.config_signature()

    def test_static_clusterer_signature_tracks_mapping(self):
        a = StaticAccountClusterer({"r1": "Huobi"})
        b = StaticAccountClusterer({"r1": "Huobi"})
        c = StaticAccountClusterer({"r1": "Kraken"})
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()


def _scanned_accumulators(frame):
    accumulators = [TxStatsAccumulator(), TypeDistributionAccumulator()]
    AnalysisEngine(accumulators).run(frame)
    return accumulators


def _restored_results(checkpoint, chain_value, frame):
    """Fold one chain's saved states into fresh bound accumulators."""
    accumulators = [TxStatsAccumulator(), TypeDistributionAccumulator()]
    for accumulator in accumulators:
        accumulator.bind_batch(frame)
    fold_states(
        {chain_value: checkpoint.states[chain_value]}, {chain_value: accumulators}
    )
    return [accumulator.finalize() for accumulator in accumulators]


def _snapshot_bytes(store):
    with open(store.path, "rb") as handle:
        return handle.read()


class TestCheckpointStore:
    def _capture(self, combined_frame):
        return PipelineCheckpoint.capture(
            len(combined_frame), {"eos": _scanned_accumulators(combined_frame)}
        )

    def test_save_load_round_trip(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        checkpoint = self._capture(combined_frame)
        store.save(checkpoint)
        loaded = store.load()
        assert loaded is not None
        assert loaded.watermark_rows == len(combined_frame)
        assert loaded.signatures == checkpoint.signatures
        assert loaded.states == checkpoint.states
        assert _restored_results(loaded, "eos", combined_frame) == _restored_results(
            checkpoint, "eos", combined_frame
        )

    def test_snapshot_contains_no_pickle(self, tmp_path, combined_frame):
        """The durable format is a state entry over the closed codec."""
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        blob = _snapshot_bytes(store)
        assert blob.startswith(ENTRY_MAGIC)
        # The chunk-entry reader sees the same states the snapshot reader does.
        assert decode_entry(blob) == decode_snapshot(blob).states

    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointStore(str(tmp_path)).load() is None

    def test_corrupt_checkpoint_degrades_to_none(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        with open(store.path, "wb") as handle:
            handle.write(b"\x80garbage")
        assert store.load() is None

    def test_truncated_checkpoint_degrades_to_none(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        with open(store.path, "rb") as handle:
            blob = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        assert store.load() is None

    def test_flipped_byte_degrades_to_none_or_mismatch(self, tmp_path, combined_frame):
        """Arbitrary corruption mid-file is ``None``, always — no "or mismatch"."""
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        blob = bytearray(_snapshot_bytes(store))
        blob[len(blob) // 3] ^= 0xFF
        with open(store.path, "wb") as handle:
            handle.write(bytes(blob))
        assert store.load() is None

    def test_every_bit_flip_and_truncation_is_none(self, tmp_path, combined_frame):
        """Exhaustive, not sampled: one checksum covers every byte.

        ``load`` is a file read plus :func:`decode_snapshot`, so the sweep
        drives the decoder directly; the private format this replaced let
        flips of the watermark integer through with wrong figures.
        """
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        blob = _snapshot_bytes(store)
        assert decode_snapshot(blob) is not None
        damaged = bytearray(blob)
        for offset in range(len(blob)):
            for bit in range(8):
                damaged[offset] ^= 1 << bit
                assert decode_snapshot(bytes(damaged)) is None, (offset, bit)
                damaged[offset] ^= 1 << bit
        for length in range(len(blob)):
            assert decode_snapshot(blob[:length]) is None, length
        assert decode_snapshot(blob + b"\x00") is None
        with open(store.path, "wb") as handle:
            handle.write(blob + b"\x00")
        assert store.load() is None

    def test_version_skew_degrades_to_none(self, tmp_path, combined_frame):
        """The parent's private format and a foreign entry magic are misses."""
        store = CheckpointStore(str(tmp_path))
        checkpoint = self._capture(combined_frame)
        payloads = [payload for _qualname, payload in checkpoint.states["eos"]]
        old_format = statecodec.encode(
            {
                "format": "repro-checkpoint",
                "version": 3,
                "watermark_rows": checkpoint.watermark_rows,
                "chains": {"eos": statecodec.encode(payloads)},
                "checksums": {"eos": 0},
                "signatures": {"eos": list(checkpoint.signatures["eos"])},
            }
        )
        assert old_format.startswith(statecodec.MAGIC)
        store.save(checkpoint)
        current = _snapshot_bytes(store)
        foreign_magic = ENTRY_MAGIC[:-1] + b"\x7f" + current[len(ENTRY_MAGIC) :]
        for blob in (old_format, foreign_magic):
            with open(store.path, "wb") as handle:
                handle.write(blob)
            assert store.load() is None
        # And a chunk entry (no watermark beside the states) is no checkpoint.
        assert decode_snapshot(encode_entry(checkpoint.states)) is None

    def test_save_is_atomic(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        assert not any(tmp_path.glob("*.tmp"))

    def test_save_and_load_report_timings(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        assert store.last_save_seconds > 0.0
        store.load()
        assert store.last_load_seconds > 0.0

    def test_clear(self, tmp_path, combined_frame):
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        store.clear()
        assert store.load() is None

    def test_compatible_with_gates_on_signatures(self, combined_frame):
        checkpoint = self._capture(combined_frame)
        fresh = [TxStatsAccumulator(), TypeDistributionAccumulator()]
        assert checkpoint.compatible_with("eos", fresh)
        assert not checkpoint.compatible_with("tezos", fresh)
        assert not checkpoint.compatible_with("eos", [TxStatsAccumulator()])
        assert not checkpoint.compatible_with(
            "eos", [TypeDistributionAccumulator(), TxStatsAccumulator()]
        )

    def test_signatures_survive_the_codec_round_trip(self, tmp_path, combined_frame):
        """Decoded signatures still gate compatibility (tuple identity)."""
        store = CheckpointStore(str(tmp_path))
        store.save(self._capture(combined_frame))
        loaded = store.load()
        fresh = [TxStatsAccumulator(), TypeDistributionAccumulator()]
        assert loaded.compatible_with("eos", fresh)
        assert not loaded.compatible_with("eos", list(reversed(fresh)))


#: Where PR-3-era pipelines pickled their checkpoint.  Nothing in ``src/``
#: knows the name any more: a leftover is outside input and must stay inert.
LEGACY_PICKLE_NAME = "checkpoint.pkl"


class _CreatesFileWhenUnpickled:
    """Unpickling an instance creates ``marker`` — proof the bytes were loaded."""

    def __init__(self, marker: str):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


class TestLegacyMigration:
    """A version-1 ``checkpoint.pkl`` left in the directory is never opened."""

    def test_corrupt_legacy_degrades_to_none(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        (tmp_path / LEGACY_PICKLE_NAME).write_bytes(
            b"\x80\x04 definitely not a checkpoint"
        )
        assert store.load() is None

    def test_snapshot_shadows_a_stale_legacy_file(self, tmp_path, combined_frame):
        """A leftover pickle beside a snapshot changes nothing and is kept."""
        store = CheckpointStore(str(tmp_path))
        checkpoint = PipelineCheckpoint.capture(
            len(combined_frame), {"eos": _scanned_accumulators(combined_frame)}
        )
        store.save(checkpoint)
        stale = tmp_path / LEGACY_PICKLE_NAME
        stale.write_bytes(b"stale garbage that would fail to unpickle")
        loaded = store.load()
        assert loaded is not None
        assert loaded.signatures == checkpoint.signatures
        assert stale.exists()

    def test_hostile_legacy_pickle_is_inert(self, tmp_path, eos_records):
        """update() rescans past a booby-trapped pickle; fsck tolerates it."""
        data = tmp_path / "pipe"
        marker = tmp_path / "unpickled.marker"
        pipeline = Pipeline(str(data), chunk_rows=1_000)
        pipeline.ingest_records(iter(eos_records[:2_500]))
        (data / LEGACY_PICKLE_NAME).write_bytes(
            pickle.dumps(_CreatesFileWhenUnpickled(str(marker)))
        )
        assert not os.path.exists(pipeline.checkpoints.path)

        expected = full_report(pipeline.frame)
        report, stats = Pipeline(str(data)).update()
        assert not stats.used_checkpoint
        assert stats.rows_scanned == stats.rows_total == 2_500
        assert_reports_identical(report, expected)
        # The rescan committed a snapshot; the leftover is shadowed for good.
        assert os.path.exists(pipeline.checkpoints.path)
        follow_up, follow_stats = Pipeline(str(data)).update()
        assert follow_stats.incremental and follow_stats.rows_scanned == 0
        assert_reports_identical(follow_up, expected)
        assert cli_main(["fsck", str(data)], out=io.StringIO()) == 0
        assert not marker.exists()
        # The trap is armed: loading the leftover *would* have fired it.
        pickle.loads((data / LEGACY_PICKLE_NAME).read_bytes()).close()
        assert marker.exists()


class TestSketchModeCheckpoint:
    """A checkpoint written in the removed sketch statistics mode never folds.

    A sketch-mode pipeline directory from before the mode was removed holds
    a ``("sketch", "hll", …)`` term in every chain's ``tx_stats`` signature.
    No accumulator's signature carries one now, so ``update`` rescans every
    chain from row zero and prints exact figures.
    """

    def test_sketch_signature_forces_full_rescan_with_exact_figures(
        self, tmp_path, eos_records, tezos_records, xrp_records
    ):
        data = str(tmp_path / "pipe")
        pipeline = Pipeline(data, chunk_rows=1_000)
        pipeline.ingest_records(
            iter(eos_records[:1_500] + tezos_records[:1_500] + xrp_records[:1_500])
        )
        pipeline.update()
        saved = pipeline.checkpoints.load()
        for chain, signatures in saved.signatures.items():
            saved.signatures[chain] = [
                signature + (("sketch", "hll", 14, 65_536),)
                if signature[1] == TxStatsAccumulator.name
                else signature
                for signature in signatures
            ]
        pipeline.checkpoints.save(saved)
        expected = full_report(pipeline.frame)

        out = io.StringIO()
        assert cli_main(["update", "--data", data, "--json"], out=out) == 0
        printed = json.loads(out.getvalue())
        stanza = printed.pop("_update")
        assert not stanza["incremental"]
        assert sorted(stanza["chains_rescanned"]) == sorted(saved.signatures)
        # Every chain folds from chunk zero, all from the chunk-state entries
        # the first update wrote: nothing is scanned twice.
        assert stanza["rows_total"] == 4_500 and stanza["rows_scanned"] == 0
        assert printed == json.loads(json.dumps(expected.to_dict(), sort_keys=True))

