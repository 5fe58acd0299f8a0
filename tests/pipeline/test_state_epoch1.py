"""Accumulator state written before the epoch bump (``tests/fixtures/state_epoch1``).

The fixture is a pipeline directory whose ``checkpoint.snap`` and
``frames/cache/*.state`` entries were written by the last state-epoch-1
commit.  Whatever this commit makes of that state, the figures it reports
over the directory must equal a from-scratch ``full_report`` of its rows.
"""

from __future__ import annotations

import os

from repro.analysis.report import full_report
from repro.pipeline import Pipeline

from tests.fixtures import STATE_EPOCH1_CHUNKS, STATE_EPOCH1_ROWS, copy_state_epoch1
from tests.support.reports import assert_reports_identical


def _cache_entries(root):
    cache_dir = os.path.join(root, "frames", "cache")
    return {
        name: open(os.path.join(cache_dir, name), "rb").read()
        for name in sorted(os.listdir(cache_dir))
    }


def test_fixture_shape(tmp_path):
    root = copy_state_epoch1(tmp_path / "pipe")
    pipeline = Pipeline(root)
    assert pipeline.store.row_count == STATE_EPOCH1_ROWS
    assert pipeline.store.committed_chunk_count == STATE_EPOCH1_CHUNKS
    assert set(pipeline.store.chain_row_counts()) == {"eos", "tezos", "xrp"}
    assert pipeline.has_analysis_config()
    assert os.path.exists(pipeline.checkpoints.path)
    assert len(_cache_entries(root)) == STATE_EPOCH1_CHUNKS


def test_update_over_old_state_equals_full_report(tmp_path):
    root = copy_state_epoch1(tmp_path / "pipe")
    pipeline = Pipeline(root)
    report, stats = pipeline.update()
    assert stats.rows_total == STATE_EPOCH1_ROWS
    expected = full_report(pipeline.frame, *pipeline.analysis_config())
    assert_reports_identical(report, expected, exact_flows=True)
