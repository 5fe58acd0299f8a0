"""Incremental update identity: K-batch ingestion == one serial batch run.

The acceptance bar of the incremental pipeline: for every registered
accumulator and the full figure report, the report after ingesting a
workload in K batches (K ∈ {1, 2, 7, ragged}) and updating after each is
bit-for-bit the chunk engine's report over the same store and equals a
single-pass :func:`~repro.analysis.report.full_report` over the same rows
(Figure 12's value sums within rounding) — and each update scans only the
chunks past its checkpoint.
"""

from __future__ import annotations

import shutil

import pytest

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache
from repro.analysis.value import ExchangeRateOracle
from repro.common.columns import TxFrame
from repro.common.records import ChainId
from repro.pipeline import (
    Pipeline,
    frozen_analysis_config,
    pending_batches,
    run_fsck,
    scenario_generators,
)
from repro.pipeline.checkpoint import PipelineCheckpoint
from repro.scenarios import get_scenario

from tests.support.reports import assert_reports_identical, assert_update_identical


@pytest.fixture(scope="module")
def all_records(eos_records, tezos_records, xrp_records):
    return eos_records + tezos_records + xrp_records


@pytest.fixture(scope="module")
def xrp_oracle(xrp_generator):
    return ExchangeRateOracle.from_orderbook(xrp_generator.ledger.orderbook)


@pytest.fixture(scope="module")
def xrp_clusterer(xrp_generator):
    return AccountClusterer(xrp_generator.ledger.accounts)


def _splits(total, count):
    """``count`` contiguous near-equal split points over ``total`` rows."""
    base, extra = divmod(total, count)
    sizes = [base + (1 if index < extra else 0) for index in range(count)]
    boundaries = []
    position = 0
    for size in sizes:
        position += size
        boundaries.append(position)
    return boundaries


def _pipeline(root, records, oracle=None, clusterer=None, chunk_rows=50_000):
    """A pipeline at ``root`` whose analysis config is frozen from ``records``."""
    pipeline = Pipeline(str(root), chunk_rows=chunk_rows)
    if oracle is not None and not pipeline.has_analysis_config():
        addresses = {r.sender for r in records} | {r.receiver for r in records}
        pipeline.set_analysis_config(
            oracle, StaticAccountClusterer.from_clusterer(clusterer, sorted(addresses))
        )
    return pipeline


def _ingest_in_batches(root, records, boundaries, oracle, clusterer):
    """Grow the store batch by batch, updating the checkpoint after each."""
    pipeline = _pipeline(root, records, oracle, clusterer)
    report = stats = None
    position = 0
    for boundary in boundaries:
        pipeline.ingest_records(records[position:boundary])
        position = boundary
        report, stats = pipeline.update()
    return pipeline, report, stats


def _expected(pipeline, records):
    """The batch oracle.  An update adds one Figure 12 subtotal per chunk,
    so its value sums are compared to it within rounding
    (:func:`~tests.support.reports.assert_update_identical`)."""
    return full_report(TxFrame.from_records(records), *pipeline.analysis_config())


class TestBatchIdentity:
    @pytest.mark.parametrize("batches", [1, 2, 7])
    def test_equal_batches(
        self, tmp_path, all_records, xrp_oracle, xrp_clusterer, batches
    ):
        boundaries = _splits(len(all_records), batches)
        pipeline, report, stats = _ingest_in_batches(
            tmp_path, all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        assert_update_identical(report, pipeline, _expected(pipeline, all_records))
        if batches > 1:
            assert stats.rows_scanned == boundaries[-1] - boundaries[-2]
            assert not stats.chains_rescanned

    def test_ragged_batches(self, tmp_path, all_records, xrp_oracle, xrp_clusterer):
        total = len(all_records)
        # Deliberately uneven: a tiny batch, a huge one, single rows, a tail.
        boundaries = sorted(
            {1, 7, total // 2, total // 2 + 1, total - 3, total - 2, total}
        )
        pipeline, report, _ = _ingest_in_batches(
            tmp_path, all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        assert_update_identical(report, pipeline, _expected(pipeline, all_records))

    def test_chains_appearing_mid_stream(
        self, tmp_path, all_records, xrp_oracle, xrp_clusterer
    ):
        # The concatenated stream is per-chain contiguous, so early batches
        # are EOS-only and the other chains appear in later batches — a new
        # chain's first update must scan all of its rows, never less.
        boundaries = _splits(len(all_records), 5)
        pipeline, report, _ = _ingest_in_batches(
            tmp_path, all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        assert set(report.chains) == {ChainId.EOS, ChainId.TEZOS, ChainId.XRP}
        assert_update_identical(report, pipeline, _expected(pipeline, all_records))

    def test_no_new_rows_is_cheap_and_identical(
        self, tmp_path, all_records, xrp_oracle, xrp_clusterer
    ):
        pipeline = _pipeline(tmp_path, all_records, xrp_oracle, xrp_clusterer)
        pipeline.ingest_records(all_records)
        report1, _ = pipeline.update()
        report2, stats = pipeline.update()
        assert stats.rows_scanned == 0
        assert stats.incremental
        assert_reports_identical(report2, report1)

    def test_unchanged_chains_carry_their_blob_forward(
        self, tmp_path, eos_records, tezos_records, xrp_records, xrp_oracle, xrp_clusterer
    ):
        """Rows landing on one chain must not re-scan the other two.

        (The name predates the one state format: nothing is carried as a
        blob any more; the identity half of the test is what stays.)
        """
        records = eos_records + tezos_records + xrp_records
        split = len(xrp_records) // 2
        pipeline = _pipeline(tmp_path, records, xrp_oracle, xrp_clusterer)
        pipeline.ingest_records(eos_records + tezos_records + xrp_records[:split])
        pipeline.update()
        pipeline.ingest_records(xrp_records[split:])  # only XRP advances
        report, stats = pipeline.update()
        assert stats.rows_scanned == len(xrp_records) - split
        assert not stats.chains_rescanned
        expected = _expected(pipeline, records)
        assert_update_identical(report, pipeline, expected)
        # And the new checkpoint drives later updates correctly.
        follow_up, follow_stats = Pipeline(str(tmp_path)).update()
        assert follow_stats.rows_scanned == 0
        assert_reports_identical(follow_up, report)


class TestParallelCatchUp:
    """``update(workers=2)`` fans out any scan of more than one chunk."""

    @staticmethod
    def _session(root, oracle, clusterer, records) -> Pipeline:
        return _pipeline(root, records, oracle, clusterer, chunk_rows=5_000)

    def test_sharded_catch_up_matches_serial(
        self, tmp_path, all_records, xrp_oracle, xrp_clusterer
    ):
        """A cold update with no checkpoint fans out as chunk tasks."""
        position = 0
        for boundary in _splits(len(all_records), 3):
            session = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
            session.ingest_records(iter(all_records[position:boundary]))
            position = boundary
        cold = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        report, stats = cold.update(workers=2)
        assert stats.workers == 2
        assert not stats.used_checkpoint
        expected = full_report(cold.frame, *cold.analysis_config())
        assert_reports_identical(report, expected, exact_flows=False)

    def test_parallel_then_serial_updates_compose(
        self, tmp_path, all_records, xrp_oracle, xrp_clusterer
    ):
        """A parallel catch-up's checkpoint feeds later deltas."""
        split = len(all_records) * 2 // 3
        first = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        first.ingest_records(iter(all_records[:split]))
        cold = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        _, cold_stats = cold.update(workers=2)
        assert cold_stats.workers == 2
        resumed = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        resumed.ingest_records(iter(all_records[split:]))
        # The delta past the checkpoint is one chunk or more: one runs
        # in-process, more fan out like any other scan.
        delta_chunks = resumed.store.committed_chunk_count - cold.store.committed_chunk_count
        report, stats = resumed.update(workers=2)
        assert stats.workers == (2 if delta_chunks > 1 else 0)
        assert stats.incremental
        assert stats.rows_scanned == len(all_records) - split
        expected = full_report(resumed.frame, *resumed.analysis_config())
        assert_reports_identical(report, expected, exact_flows=False)

        serial = self._session(tmp_path / "serial", xrp_oracle, xrp_clusterer, all_records)
        serial.ingest_records(iter(all_records[:split]))
        serial.update()
        serial.ingest_records(iter(all_records[split:]))
        serial_report, serial_stats = serial.update()
        assert serial_stats.workers == 0
        assert serial_report.to_dict() == report.to_dict()


def _damage_checkpoint(pipeline, damage) -> None:
    """Rewrite the committed checkpoint with ``damage(checkpoint)`` applied."""
    checkpoint = pipeline.checkpoints.load()
    damage(checkpoint)
    pipeline.checkpoints.save(checkpoint)


class TestFallbacks:
    def test_out_of_order_history_forces_chain_rescan(self, tmp_path, eos_records):
        """Rows older than the checkpointed series anchor trigger a rescan.

        The throughput accumulator's bin grid is anchored at the chain's
        minimum timestamp; ingesting even older history shifts the anchor,
        the config signature changes, and the update falls back to a full
        rescan of the chain — still result-identical.  The chunk-state
        entries are keyed to the old signature too, so they miss.
        """
        cutoff = eos_records[0].timestamp + 1
        later = [r for r in eos_records if r.timestamp > cutoff]
        earlier = [r for r in eos_records if r.timestamp <= cutoff]
        assert earlier and later
        pipeline = Pipeline(str(tmp_path))
        pipeline.ingest_records(later)
        pipeline.update()
        pipeline.ingest_records(earlier)  # older rows arrive late
        report, stats = pipeline.update()
        assert stats.chains_rescanned == [ChainId.EOS.value]
        assert stats.rows_scanned == len(eos_records)
        expected = full_report(TxFrame.from_records(later + earlier))
        assert_update_identical(report, pipeline, expected)

    def test_oracle_drift_forces_xrp_rescan(self, tmp_path, xrp_records, xrp_clusterer):
        half = len(xrp_records) // 2
        pipeline = _pipeline(
            tmp_path, xrp_records, ExchangeRateOracle({("USD", "gate"): 1.5}), xrp_clusterer
        )
        pipeline.ingest_records(xrp_records[:half])
        pipeline.update()
        oracle_b = ExchangeRateOracle({("USD", "gate"): 2.5})
        pipeline.set_analysis_config(oracle_b, pipeline.analysis_config()[1])
        pipeline.ingest_records(xrp_records[half:])
        report, stats = pipeline.update()
        assert stats.chains_rescanned == [ChainId.XRP.value]
        assert stats.rows_scanned == len(xrp_records)
        assert_update_identical(report, pipeline, _expected(pipeline, xrp_records))

    def test_garbage_chain_payloads_degrade_to_chain_rescan(self, tmp_path, eos_records):
        """States that line up but carry nonsense payloads must rescan.

        Signatures and qualnames can match while the per-accumulator
        payloads are hostile: restore_state raises, the update rebuilds the
        chain's accumulators and folds it from chunk zero — here all from
        the chunk-state entries the first update wrote, so nothing is
        scanned — and the figures still come out identical to a batch run.
        """
        pipeline = Pipeline(str(tmp_path), chunk_rows=2_000)
        pipeline.ingest_records(eos_records)
        pipeline.update()
        chain = ChainId.EOS.value

        def garbage(checkpoint):
            checkpoint.states[chain] = [
                (qualname, {"wrong": "shape"}) for qualname, _ in checkpoint.states[chain]
            ]

        _damage_checkpoint(pipeline, garbage)
        report, stats = pipeline.update()
        assert stats.chains_rescanned == [chain]
        assert stats.rows_scanned == 0
        expected = full_report(TxFrame.from_records(eos_records))
        assert_update_identical(report, pipeline, expected)

    @pytest.mark.parametrize("damage", ["qualname", "length"])
    def test_states_that_do_not_fit_rescan_one_chain(
        self, tmp_path, eos_records, tezos_records, damage
    ):
        """``StateMismatch`` (raised before any state is touched) is a rescan.

        File-level rot never gets this far — the entry checksum covers every
        byte of ``checkpoint.snap`` (``TestSnapshotRot`` below, and the
        exhaustive sweep in ``test_checkpoint.py``).  With the chunk-state
        cache cleared the rescan decodes every chunk below the watermark.
        """
        records = eos_records + tezos_records
        pipeline = Pipeline(str(tmp_path), chunk_rows=2_000)
        pipeline.ingest_records(records)
        pipeline.update()
        chain = ChainId.EOS.value

        def mismatch(checkpoint):
            if damage == "qualname":
                _, payload = checkpoint.states[chain][0]
                checkpoint.states[chain][0] = ("SomeOtherAccumulator", payload)
            else:
                checkpoint.states[chain].pop()

        _damage_checkpoint(pipeline, mismatch)
        ChunkStateCache.for_store(pipeline.frames_dir).clear()
        report, stats = pipeline.update()
        assert stats.chains_rescanned == [chain]
        # Every chain folds from chunk zero again: with no entry left, every
        # chunk is scanned.
        assert stats.rows_scanned == len(records)
        assert_update_identical(report, pipeline, full_report(TxFrame.from_records(records)))

    def test_a_finalize_bug_surfaces_from_a_restored_checkpoint_too(
        self, tmp_path, eos_records, monkeypatch
    ):
        """Only *restoring* bad state degrades to a rescan; a bug does not.

        No payload column is consumed later than its restore, so nothing
        after it is wrapped: a figure whose ``finalize`` raises fails the
        update whether its state was just scanned or came out of a
        checkpoint (where a rescan used to swallow it).
        """
        from repro.analysis import report as report_module
        from repro.analysis.engine import Accumulator, FigureSpec

        class Boom(RuntimeError):
            pass

        class BrokenFigure(Accumulator):
            name = "broken"
            armed = False

            def bind(self, frame):
                self._rows = 0

                def step(row):
                    self._rows += 1

                return step

            def export_state(self):
                return {"rows": self._rows}

            def restore_state(self, payload):
                self._rows += payload["rows"]

            def finalize(self):
                if BrokenFigure.armed:
                    raise Boom("finalize bug")
                return self._rows

        spec = FigureSpec(
            name=BrokenFigure.name,
            chains=(ChainId.EOS,),
            factory=lambda chain, config: BrokenFigure(),
        )
        monkeypatch.setattr(
            report_module, "FIGURES", report_module.FIGURES + (spec,)
        )
        split = len(eos_records) * 2 // 3
        pipeline = Pipeline(str(tmp_path / "pipe"))
        pipeline.ingest_records(eos_records[:split])
        _, stats = pipeline.update()  # commits a checkpoint holding the figure
        assert not stats.used_checkpoint
        pipeline.ingest_records(eos_records[split:])
        BrokenFigure.armed = True
        with pytest.raises(Boom):
            pipeline.update()  # restored checkpoint + delta scan
        # And from scratch: no checkpoint, no chunk-state entry.
        shutil.copytree(pipeline.root, tmp_path / "scratch")
        scratch = Pipeline(str(tmp_path / "scratch"))
        scratch.checkpoints.clear()
        ChunkStateCache.for_store(scratch.frames_dir).clear()
        with pytest.raises(Boom):
            scratch.update()
        BrokenFigure.armed = False
        report, stats = pipeline.update()
        # The failed update scanned the delta and wrote its entry before
        # finalize raised: the retry folds it and scans nothing.
        assert stats.incremental and stats.rows_scanned == 0
        assert report.chains[ChainId.EOS]["broken"] == len(eos_records)

    def test_shrunken_store_discards_the_checkpoint(self, tmp_path, eos_records):
        """A checkpoint whose watermark runs past the store is never folded."""
        half = len(eos_records) // 2
        pipeline = Pipeline(str(tmp_path / "full"))
        pipeline.ingest_records(eos_records)
        pipeline.update()
        smaller = Pipeline(str(tmp_path / "half"))
        smaller.ingest_records(eos_records[:half])
        shutil.copy(pipeline.checkpoints.path, smaller.checkpoints.path)
        report, stats = smaller.update()
        assert not stats.used_checkpoint and stats.watermark_before == 0
        assert stats.rows_scanned == half
        expected = full_report(TxFrame.from_records(eos_records[:half]))
        assert_update_identical(report, smaller, expected)

    def test_watermark_off_a_chunk_boundary_discards_the_checkpoint(
        self, tmp_path, eos_records
    ):
        """States over rows ``[0, w)`` with ``w`` inside a chunk cannot be
        followed by whole chunks: the update folds from chunk zero."""
        pipeline = Pipeline(str(tmp_path), chunk_rows=2_000)
        pipeline.ingest_records(eos_records[:3_000])
        pipeline.update()
        saved = pipeline.checkpoints.load()
        pipeline.checkpoints.save(
            PipelineCheckpoint(2_500, saved.states, saved.signatures)
        )
        pipeline.ingest_records(eos_records[3_000:])
        report, stats = pipeline.update()
        assert not stats.used_checkpoint and stats.watermark_before == 0
        assert not stats.chains_rescanned
        # The first update's entries still fold: only the new chunks scan.
        assert stats.rows_scanned == len(eos_records) - 3_000
        expected = full_report(TxFrame.from_records(eos_records))
        assert_update_identical(report, pipeline, expected)


def _lower_stored_watermark(path):
    """Clear one set bit of the watermark integer inside ``checkpoint.snap``.

    The codec writes ``watermark_rows`` as its key string, an int64 tag and
    eight little-endian bytes.  Returns ``(stored, lowered)``.
    """
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    key = b"watermark_rows"
    at = blob.index(key) + len(key) + 1
    stored = int.from_bytes(blob[at : at + 8], "little")
    bit = stored.bit_length() - 2  # below the top bit: lowered stays > 0
    while not stored >> bit & 1:
        bit -= 1
    blob[at + bit // 8] ^= 1 << (bit % 8)
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    return stored, stored ^ (1 << bit)


class TestSnapshotRot:
    def test_a_flipped_watermark_bit_never_changes_a_figure(self, tmp_path):
        pipeline = Pipeline(str(tmp_path / "pipe"))
        generators = scenario_generators(get_scenario("live_tail", seed=7))
        pipeline.set_analysis_config(*frozen_analysis_config(generators))
        batches = pending_batches(pipeline, generators, 6 * 3600.0)
        for _ in range(4):
            _index, _end, blocks, skip_rows = next(batches)
            pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
            pipeline.update()
        stored, lowered = _lower_stored_watermark(pipeline.checkpoints.path)
        assert 0 < lowered < stored == pipeline.store.row_count
        fsck = run_fsck(pipeline.root)
        _index, _end, blocks, skip_rows = next(batches)
        pipeline.ingest_blocks(blocks, skip_rows=skip_rows)
        report, stats = pipeline.update()
        expected = full_report(pipeline.frame, *pipeline.analysis_config())
        assert_update_identical(report, pipeline, expected)
        # Unreadable, so folded from chunk zero: the four earlier chunks
        # from the entries their updates wrote, the new one from its scan.
        assert not stats.used_checkpoint
        assert stats.rows_scanned == stats.rows_total - stored
        assert [issue.kind for issue in fsck.issues] == ["checkpoint_unreadable"]
        # The rescan overwrote the rotted snapshot: incremental again.
        _, stats = Pipeline(pipeline.root).update()
        assert stats.incremental and stats.rows_scanned == 0
