"""Incremental update identity: K-batch ingestion == one serial batch run.

The acceptance bar of the incremental pipeline: for every registered
accumulator and the full figure report, the state after ingesting a
workload in K batches (K ∈ {1, 2, 7, ragged}) equals a single-pass
:func:`~repro.analysis.report.full_report` over the same rows — and the
incremental path scans only the delta.
"""

from __future__ import annotations

import pytest

from repro.analysis.clustering import AccountClusterer, StaticAccountClusterer
from repro.analysis.report import full_report
from repro.analysis.value import ExchangeRateOracle
from repro.common.columns import TxFrame
from repro.common.errors import AnalysisError
from repro.common.records import ChainId
from repro.pipeline import (
    Pipeline,
    frozen_analysis_config,
    incremental_report,
    pending_batches,
    run_fsck,
    scenario_generators,
)
from repro.scenarios import get_scenario

from tests.support.reports import assert_reports_identical


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


def _ingest_in_batches(records, boundaries, oracle, clusterer):
    """Grow a frame batch by batch, updating the checkpoint after each."""
    frame = TxFrame()
    checkpoint = None
    report = stats = None
    position = 0
    for boundary in boundaries:
        frame.extend(records[position:boundary])
        position = boundary
        report, checkpoint, stats = incremental_report(
            frame, checkpoint, oracle=oracle, clusterer=clusterer
        )
    return frame, report, stats


class TestBatchIdentity:
    @pytest.mark.parametrize("batches", [1, 2, 7])
    def test_equal_batches(self, all_records, xrp_oracle, xrp_clusterer, batches):
        boundaries = _splits(len(all_records), batches)
        frame, report, stats = _ingest_in_batches(
            all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        expected = full_report(frame, oracle=xrp_oracle, clusterer=xrp_clusterer)
        assert_reports_identical(report, expected, exact_flows=True)
        if batches > 1:
            assert stats.rows_scanned == boundaries[-1] - boundaries[-2]
            assert not stats.chains_rescanned

    def test_ragged_batches(self, all_records, xrp_oracle, xrp_clusterer):
        total = len(all_records)
        # Deliberately uneven: a tiny batch, a huge one, single rows, a tail.
        boundaries = sorted(
            {1, 7, total // 2, total // 2 + 1, total - 3, total - 2, total}
        )
        frame, report, _ = _ingest_in_batches(
            all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        expected = full_report(frame, oracle=xrp_oracle, clusterer=xrp_clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_chains_appearing_mid_stream(self, all_records, xrp_oracle, xrp_clusterer):
        # The concatenated stream is per-chain contiguous, so early batches
        # are EOS-only and the other chains appear in later batches — a new
        # chain's first update must scan all of its rows, never less.
        boundaries = _splits(len(all_records), 5)
        frame, report, _ = _ingest_in_batches(
            all_records, boundaries, xrp_oracle, xrp_clusterer
        )
        expected = full_report(frame, oracle=xrp_oracle, clusterer=xrp_clusterer)
        assert set(report.chains) == {ChainId.EOS, ChainId.TEZOS, ChainId.XRP}
        assert_reports_identical(report, expected, exact_flows=True)

    def test_no_new_rows_is_cheap_and_identical(
        self, all_records, xrp_oracle, xrp_clusterer
    ):
        frame = TxFrame.from_records(all_records)
        report1, checkpoint, _ = incremental_report(
            frame, None, oracle=xrp_oracle, clusterer=xrp_clusterer
        )
        report2, _, stats = incremental_report(
            frame, checkpoint, oracle=xrp_oracle, clusterer=xrp_clusterer
        )
        assert stats.rows_scanned == 0
        assert stats.incremental
        assert_reports_identical(report2, report1, exact_flows=True)

    def test_unchanged_chains_carry_their_blob_forward(
        self, eos_records, tezos_records, xrp_records, xrp_oracle, xrp_clusterer
    ):
        """Rows landing on one chain must not re-scan the other two.

        (The name predates the one state format: nothing is carried as a
        blob any more; the identity half of the test is what stays.)
        """
        split = len(xrp_records) // 2
        frame = TxFrame.from_records(
            eos_records + tezos_records + xrp_records[:split]
        )
        _, checkpoint, _ = incremental_report(
            frame, None, oracle=xrp_oracle, clusterer=xrp_clusterer
        )
        frame.extend(xrp_records[split:])  # only XRP advances
        report, new_checkpoint, stats = incremental_report(
            frame, checkpoint, oracle=xrp_oracle, clusterer=xrp_clusterer
        )
        assert stats.rows_scanned == len(xrp_records) - split
        assert not stats.chains_rescanned
        expected = full_report(frame, oracle=xrp_oracle, clusterer=xrp_clusterer)
        assert_reports_identical(report, expected, exact_flows=True)
        # And the new checkpoint drives later updates correctly.
        follow_up, _, follow_stats = incremental_report(
            frame, new_checkpoint, oracle=xrp_oracle, clusterer=xrp_clusterer
        )
        assert follow_stats.rows_scanned == 0
        assert_reports_identical(follow_up, expected, exact_flows=True)


class TestParallelCatchUp:
    """``update(workers=2)`` fans out only a catch-up with no checkpoint."""

    @staticmethod
    def _session(root, oracle, clusterer, records) -> Pipeline:
        pipeline = Pipeline(str(root), chunk_rows=5_000)
        if not pipeline.has_analysis_config():
            addresses = {r.sender for r in records} | {r.receiver for r in records}
            pipeline.set_analysis_config(
                oracle, StaticAccountClusterer.from_clusterer(clusterer, sorted(addresses))
            )
        return pipeline

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
        """A parallel catch-up's checkpoint feeds later (serial) deltas."""
        split = len(all_records) * 2 // 3
        first = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        first.ingest_records(iter(all_records[:split]))
        cold = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        _, cold_stats = cold.update(workers=2)
        assert cold_stats.workers == 2
        resumed = self._session(tmp_path, xrp_oracle, xrp_clusterer, all_records)
        resumed.ingest_records(iter(all_records[split:]))
        # With a usable checkpoint the delta is scanned in-process, whatever
        # worker count was asked for.
        report, stats = resumed.update(workers=2)
        assert stats.workers == 0
        assert stats.incremental
        assert stats.rows_scanned == len(all_records) - split
        expected = full_report(resumed.frame, *resumed.analysis_config())
        assert_reports_identical(report, expected, exact_flows=False)


class TestFallbacks:
    def test_out_of_order_history_forces_chain_rescan(self, eos_records):
        """Rows older than the checkpointed series anchor trigger a rescan.

        The throughput accumulator's bin grid is anchored at the chain's
        minimum timestamp; ingesting even older history shifts the anchor,
        the config signature changes, and the incremental reporter falls
        back to a full rescan of the chain — still result-identical.
        """
        cutoff = eos_records[0].timestamp + 1
        later = [r for r in eos_records if r.timestamp > cutoff]
        earlier = [r for r in eos_records if r.timestamp <= cutoff]
        assert earlier and later
        frame = TxFrame.from_records(later)
        _, checkpoint, _ = incremental_report(frame, None)
        frame.extend(earlier)  # older rows arrive late
        report, _, stats = incremental_report(frame, checkpoint)
        assert stats.chains_rescanned == [ChainId.EOS.value]
        assert stats.rows_scanned == len(frame)
        expected = full_report(frame)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_oracle_drift_forces_xrp_rescan(self, xrp_records, xrp_clusterer):
        frame = TxFrame.from_records(xrp_records[: len(xrp_records) // 2])
        oracle_a = ExchangeRateOracle({("USD", "gate"): 1.5})
        _, checkpoint, _ = incremental_report(
            frame, checkpoint=None, oracle=oracle_a, clusterer=xrp_clusterer
        )
        frame.extend(xrp_records[len(xrp_records) // 2 :])
        oracle_b = ExchangeRateOracle({("USD", "gate"): 2.5})
        report, _, stats = incremental_report(
            frame, checkpoint, oracle=oracle_b, clusterer=xrp_clusterer
        )
        assert stats.chains_rescanned == [ChainId.XRP.value]
        expected = full_report(frame, oracle=oracle_b, clusterer=xrp_clusterer)
        assert_reports_identical(report, expected, exact_flows=True)

    def test_garbage_chain_payloads_degrade_to_chain_rescan(self, eos_records):
        """States that line up but carry nonsense payloads must rescan.

        Signatures and qualnames can match while the per-accumulator
        payloads are hostile: restore_state raises, the reporter rebuilds
        the chain's accumulators, and the figures still come out identical
        to a batch run.
        """
        frame = TxFrame.from_records(eos_records)
        _, checkpoint, _ = incremental_report(frame, None)
        chain = ChainId.EOS.value
        checkpoint.states[chain] = [
            (qualname, {"wrong": "shape"}) for qualname, _ in checkpoint.states[chain]
        ]
        report, _, stats = incremental_report(frame, checkpoint)
        assert stats.chains_rescanned == [chain]
        assert stats.rows_scanned == len(frame)
        expected = full_report(frame)
        assert_reports_identical(report, expected, exact_flows=True)

    @pytest.mark.parametrize("damage", ["qualname", "length"])
    def test_states_that_do_not_fit_rescan_one_chain(
        self, eos_records, tezos_records, damage
    ):
        """``StateMismatch`` (raised before any state is touched) is a rescan.

        File-level rot never gets this far — the entry checksum covers every
        byte of ``checkpoint.snap`` (``TestSnapshotRot`` below, and the
        exhaustive sweep in ``test_checkpoint.py``).
        """
        frame = TxFrame.from_records(eos_records + tezos_records)
        _, checkpoint, _ = incremental_report(frame, None)
        chain = ChainId.EOS.value
        if damage == "qualname":
            _, payload = checkpoint.states[chain][0]
            checkpoint.states[chain][0] = ("SomeOtherAccumulator", payload)
        else:
            checkpoint.states[chain].pop()
        report, _, stats = incremental_report(frame, checkpoint)
        assert stats.chains_rescanned == [chain]
        assert stats.rows_scanned == len(eos_records)
        assert_reports_identical(report, full_report(frame), exact_flows=True)

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
        with pytest.raises(Boom):
            incremental_report(pipeline.frame, None)  # and from scratch
        BrokenFigure.armed = False
        report, stats = pipeline.update()
        assert stats.incremental and stats.rows_scanned == len(eos_records) - split
        assert report.chains[ChainId.EOS]["broken"] == len(eos_records)

    def test_shrunken_frame_rejected(self, eos_records):
        frame = TxFrame.from_records(eos_records)
        _, checkpoint, _ = incremental_report(frame, None)
        smaller = TxFrame.from_records(eos_records[: len(eos_records) // 2])
        with pytest.raises(AnalysisError):
            incremental_report(smaller, checkpoint)


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
        assert_reports_identical(report, expected, exact_flows=True)
        assert not stats.incremental and stats.rows_scanned == stats.rows_total
        assert [issue.kind for issue in fsck.issues] == ["checkpoint_unreadable"]
        # The rescan overwrote the rotted snapshot: incremental again.
        _, stats = Pipeline(pipeline.root).update()
        assert stats.incremental and stats.rows_scanned == 0
