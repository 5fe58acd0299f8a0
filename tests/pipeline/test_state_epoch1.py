"""Accumulator state written before the epoch bump (``tests/fixtures/state_epoch1``).

The fixture is a pipeline directory whose ``checkpoint.snap`` and
``frames/cache/*.state`` entries were written by the last state-epoch-1
commit (``tx_stats`` state = the packed transaction-id set).
Old state is a clean miss: the snapshot loads as ``None`` (one full rescan),
every entry fails the magic check — never decoded as the wrong shape, never
a traceback — and is named by a chunk checksum, not by the store's key
chain, so nothing looks it up: the rescan writes each chunk's entry under
its chained name beside it.  The figures equal a from-scratch
``full_report`` of the rows.
"""

from __future__ import annotations

import os

from repro.analysis.parallel import parallel_report_from_store
from repro.analysis.report import full_report
from repro.analysis.statecache import ChunkStateCache, decode_entry
from repro.cli import main
from repro.pipeline import Pipeline, run_fsck

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
    assert pipeline.checkpoints.load() is None
    report, stats = pipeline.update()
    assert not stats.used_checkpoint and not stats.incremental
    assert stats.rows_total == stats.rows_scanned == STATE_EPOCH1_ROWS
    expected = full_report(pipeline.frame, *pipeline.analysis_config())
    assert_reports_identical(report, expected, exact_flows=True)
    # The rescan committed a snapshot this commit reads: incremental again.
    report, stats = Pipeline(root).update()
    assert stats.incremental and stats.rows_scanned == 0
    assert_reports_identical(report, expected, exact_flows=True)


def test_old_cache_entries_miss_once_and_new_ones_are_written_beside_them(tmp_path):
    root = copy_state_epoch1(tmp_path / "pipe")
    pipeline = Pipeline(root)
    oracle, clusterer = pipeline.analysis_config()
    old = _cache_entries(root)
    assert all(decode_entry(blob) is None for blob in old.values())
    expected = full_report(pipeline.frame, oracle, clusterer)
    for hits, misses in ((0, STATE_EPOCH1_CHUNKS), (STATE_EPOCH1_CHUNKS, 0)):
        cache = ChunkStateCache.for_store(pipeline.frames_dir)
        report = parallel_report_from_store(
            pipeline.frames_dir, oracle, clusterer, workers=0, cache=cache
        )
        assert (cache.hits, cache.misses) == (hits, misses)
        assert_reports_identical(report, expected, exact_flows=False)
    new = _cache_entries(root)
    written = {name: blob for name, blob in new.items() if name not in old}
    assert len(written) == STATE_EPOCH1_CHUNKS  # one generation, chained names
    assert all(new[name] == old[name] for name in old)  # never read, never rewritten
    assert all(decode_entry(blob) is not None for blob in written.values())


def test_fsck_flags_the_old_snapshot_and_repair_leaves_an_updatable_directory(
    tmp_path, capsys
):
    root = copy_state_epoch1(tmp_path / "pipe")
    found = run_fsck(root)
    assert [issue.kind for issue in found.issues].count("checkpoint_unreadable") == 1
    repaired = run_fsck(root, repair=True)
    assert all(issue.repair == "quarantined" for issue in repaired.issues)
    assert not os.path.exists(os.path.join(root, "checkpoint.snap"))
    assert run_fsck(root).issues == []
    assert main(["update", "--data", root, "--json"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error:" not in captured.err
    assert "full rescan" in captured.err
