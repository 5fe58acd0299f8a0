"""Live tailing: timed batches, the watch loop, and resume-across-sessions."""

from __future__ import annotations

import pytest

from repro.analysis.report import full_report
from repro.common.clock import SimulationClock
from repro.common.errors import CollectionError
from repro.eos.workload import EosWorkloadConfig
from repro.pipeline import (
    LiveTailRunner,
    Pipeline,
    frozen_analysis_config,
    scenario_generators,
    stream_block_batches,
)
from repro.scenarios import PaperScenario, get_scenario
from repro.scenarios.registry import scenario_names
from repro.tezos.workload import TezosWorkloadConfig
from repro.xrp.workload import XrpWorkloadConfig

from tests.support.reports import assert_reports_identical

BATCH_SECONDS = 6 * 3600.0


def _tiny_scenario(seed: int = 7) -> PaperScenario:
    """Three dense days — enough batches to tail, cheap to generate."""
    window = {"start_date": "2019-10-30", "end_date": "2019-11-02"}
    return PaperScenario(
        name="live-tiny",
        eos=EosWorkloadConfig(
            transactions_per_day=200, blocks_per_day=8, user_account_count=30,
            seed=seed, **window
        ),
        tezos=TezosWorkloadConfig(
            blocks_per_day=8, baker_count=8, user_account_count=40,
            seed=seed + 1, **window
        ),
        xrp=XrpWorkloadConfig(
            transactions_per_day=300, ledgers_per_day=8, ordinary_account_count=30,
            spam_accounts_per_wave=10, seed=seed + 2, **window
        ),
    )


class TestStreamBlockBatches:
    def test_batches_cover_every_block_in_time_order(self):
        scenario = _tiny_scenario()
        batches = list(
            stream_block_batches(scenario_generators(scenario), BATCH_SECONDS)
        )
        assert batches
        blocks = [block for _, batch in batches for block in batch]
        timestamps = [block.timestamp for block in blocks]
        assert timestamps == sorted(timestamps)
        expected = sum(
            len(generator.generate())
            for generator in scenario_generators(scenario).values()
        )
        assert len(blocks) == expected
        for end, batch in batches:
            for block in batch:
                assert end - BATCH_SECONDS <= block.timestamp < end

    def test_deterministic(self):
        scenario = _tiny_scenario()
        first = list(stream_block_batches(scenario_generators(scenario), BATCH_SECONDS))
        second = list(stream_block_batches(scenario_generators(scenario), BATCH_SECONDS))
        assert [(end, [b.height for b in batch]) for end, batch in first] == [
            (end, [b.height for b in batch]) for end, batch in second
        ]

    def test_rejects_non_positive_batch(self):
        with pytest.raises(CollectionError):
            next(stream_block_batches(scenario_generators(_tiny_scenario()), 0))

    def test_live_tail_scenario_registered(self):
        assert "live_tail" in scenario_names()
        scenario = get_scenario("live_tail", seed=3)
        assert scenario.eos.seed == 3


class TestLiveTailRunner:
    def test_ticks_converge_to_batch_report(self, tmp_path):
        scenario = _tiny_scenario()
        pipeline = Pipeline(str(tmp_path), chunk_rows=2000)
        clock = SimulationClock(0.0)
        runner = LiveTailRunner(
            pipeline, scenario, batch_seconds=BATCH_SECONDS, clock=clock
        )
        updates = list(runner.run())
        assert len(updates) >= 8
        # The clock followed the batch boundaries.
        assert clock.now == updates[-1].virtual_time
        # Every tick past the first scanned only its delta.
        for update in updates[1:]:
            assert update.stats.rows_scanned <= update.rows_ingested
            assert not update.stats.chains_rescanned
        # The final live report equals a from-scratch batch run with the
        # same frozen analysis companions.
        oracle, clusterer = pipeline.analysis_config()
        expected = full_report(pipeline.frame, oracle=oracle, clusterer=clusterer)
        assert_reports_identical(updates[-1].report, expected, exact_flows=True)

    def test_resume_across_sessions_matches_uninterrupted(self, tmp_path):
        scenario = _tiny_scenario()
        # Uninterrupted run.
        solo_root = tmp_path / "solo"
        solo = Pipeline(str(solo_root), chunk_rows=2000)
        solo_updates = list(
            LiveTailRunner(solo, scenario, batch_seconds=BATCH_SECONDS).run()
        )
        # Interrupted after 3 batches, resumed in a new "session".  Resume
        # is row-driven (the durable store decides), no cursor needed.
        split_root = tmp_path / "split"
        first = Pipeline(str(split_root), chunk_rows=2000)
        list(
            LiveTailRunner(first, scenario, batch_seconds=BATCH_SECONDS).run(
                max_batches=3
            )
        )
        assert int(first.meta["next_batch_index"]) == 3
        del first
        second = Pipeline(str(split_root), chunk_rows=2000)
        resumed = list(
            LiveTailRunner(second, scenario, batch_seconds=BATCH_SECONDS).run()
        )
        assert resumed[0].batch_index == 3
        assert_reports_identical(
            resumed[-1].report, solo_updates[-1].report, exact_flows=True
        )

    def test_crash_between_chunk_commit_and_meta_write_no_duplicates(
        self, tmp_path
    ):
        """The crash window the meta cursor cannot see must not double-ingest.

        A session that committed a batch's chunk but died before any meta
        write leaves a stale ``next_batch_index``; the resumed runner must
        trust the durable row count instead and skip the committed rows.
        """
        scenario = _tiny_scenario()
        root = str(tmp_path)
        pipeline = Pipeline(root, chunk_rows=2000)
        list(
            LiveTailRunner(pipeline, scenario, batch_seconds=BATCH_SECONDS).run(
                max_batches=2
            )
        )
        rows_after_two = pipeline.store.row_count
        # Simulate the crash: rewind the meta cursor as if the second
        # batch's meta write never happened (its chunk IS committed).
        pipeline.set_meta(next_batch_index=1)
        del pipeline
        reopened = Pipeline(root, chunk_rows=2000)
        resumed = list(
            LiveTailRunner(reopened, scenario, batch_seconds=BATCH_SECONDS).run(
                max_batches=1
            )
        )
        assert resumed[0].batch_index == 2  # not a replay of batch 1
        frame = reopened.frame
        ids = list(frame.transaction_id)
        assert reopened.store.row_count > rows_after_two
        # No row appears twice per (chain, id, height) identity.
        seen = list(zip(frame.chain_code, ids, frame.block_height, frame.type_code))
        solo = Pipeline(str(tmp_path / "solo"), chunk_rows=2000)
        list(
            LiveTailRunner(solo, scenario, batch_seconds=BATCH_SECONDS).run(
                max_batches=3
            )
        )
        assert len(seen) == solo.store.row_count

    def test_analysis_config_frozen_once(self, tmp_path):
        scenario = _tiny_scenario()
        pipeline = Pipeline(str(tmp_path), chunk_rows=2000)
        runner = LiveTailRunner(pipeline, scenario, batch_seconds=BATCH_SECONDS)
        list(runner.run(max_batches=1))
        rates_after_one = pipeline.meta["oracle_rates"]
        list(
            LiveTailRunner(pipeline, scenario, batch_seconds=BATCH_SECONDS).run(
                max_batches=2
            )
        )
        assert pipeline.meta["oracle_rates"] == rates_after_one

    def test_frozen_config_matches_fresh_generators(self):
        scenario = _tiny_scenario()
        oracle_a, clusterer_a = frozen_analysis_config(scenario_generators(scenario))
        oracle_b, clusterer_b = frozen_analysis_config(scenario_generators(scenario))
        assert oracle_a.signature() == oracle_b.signature()
        assert clusterer_a.signature() == clusterer_b.signature()
