"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from repro.cli import load_or_generate, main
from repro.eos.workload import EosWorkloadConfig
from repro.scenarios import PaperScenario, register_scenario
from repro.tezos.workload import TezosWorkloadConfig
from repro.xrp.workload import XrpWorkloadConfig

from tests.fixtures import V1_STORE_CHUNKS
from tests.support import child_env, run_child

TINY_SCENARIO = "cli-tiny"


def _tiny_scenario(seed: int = 7) -> PaperScenario:
    """Four days around the EIDOS launch, small enough for per-test runs."""
    return PaperScenario(
        name="cli-tiny",
        eos=EosWorkloadConfig(
            start_date="2019-10-30",
            end_date="2019-11-03",
            transactions_per_day=60,
            blocks_per_day=4,
            user_account_count=20,
            seed=seed,
        ),
        tezos=TezosWorkloadConfig(
            start_date="2019-10-30",
            end_date="2019-11-03",
            blocks_per_day=4,
            baker_count=8,
            user_account_count=30,
            seed=seed + 1,
        ),
        xrp=XrpWorkloadConfig(
            start_date="2019-10-30",
            end_date="2019-11-03",
            transactions_per_day=80,
            ledgers_per_day=4,
            ordinary_account_count=15,
            spam_accounts_per_wave=5,
            seed=seed + 2,
        ),
    )


register_scenario(TINY_SCENARIO, _tiny_scenario, overwrite=True)


def _run(argv) -> tuple:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestListAndScenario:
    def test_list_names_every_scenario(self):
        code, output = _run(["list"])
        assert code == 0
        for name in ("paper", "medium", "small", "eidos_flood", TINY_SCENARIO):
            assert name in output

    def test_scenario_details(self):
        code, output = _run(["scenario", TINY_SCENARIO])
        assert code == 0
        assert "transactions_per_day" in output
        assert "scale factors" in output

    def test_unknown_scenario_exits_nonzero(self, capsys):
        code, _ = _run(["report", "--scale", "no-such-scenario"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestReport:
    def test_serial_report(self):
        code, output = _run(["report", "--scale", TINY_SCENARIO])
        assert code == 0
        assert "Summary of findings" in output
        # Without --cache the build goes to a scratch directory, writing each
        # chunk's state as it commits it: the report folds, decodes nothing.
        assert "out-of-core chunk engine (in-process)" in output
        assert "/ 0 miss(es)" in output

    def test_parallel_report_matches_serial_summary(self, tmp_path, capsys):
        """``--workers 2`` *is* ``--out-of-core --workers 2``: the chunk engine."""
        base = ["report", "--scale", TINY_SCENARIO, "--cache", str(tmp_path)]
        code_serial, serial = _run(base)
        code_parallel, parallel = _run(base + ["--workers", "2"])
        assert code_serial == code_parallel == 0
        assert _summary_lines(serial) == _summary_lines(parallel)
        assert "out-of-core chunk engine (2 workers)" in parallel
        capsys.readouterr()
        code_workers, workers_json = _run(base + ["--workers", "2", "--json"])
        workers_info = capsys.readouterr().err
        code_ooc, ooc_json = _run(base + ["--workers", "2", "--out-of-core", "--json"])
        ooc_info = capsys.readouterr().err
        assert code_workers == code_ooc == 0
        assert workers_json == ooc_json
        for info in (workers_info, ooc_info):
            assert "out-of-core chunk engine (2 workers)" in info

    def test_workers_without_cache_builds_into_a_scratch_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", None)
        base = ["report", "--scale", TINY_SCENARIO, "--json"]
        code, serial = _run(base)
        code_workers, workers = _run(base + ["--workers", "2"])
        assert code == code_workers == 0
        assert workers == serial
        assert "out-of-core chunk engine (2 workers)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # the scratch store is gone

    def test_json_output_is_pure_json(self):
        """In --json mode stdout carries only the payload (pipe-friendly)."""
        code, output = _run(["report", "--scale", TINY_SCENARIO, "--json"])
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"eos", "tezos", "xrp"}
        assert "type_distribution" in payload["xrp"]

    def test_cache_skips_generation_and_is_identical(self, tmp_path):
        cache = str(tmp_path)
        code_first, first = _run(
            ["report", "--scale", TINY_SCENARIO, "--cache", cache]
        )
        code_second, second = _run(
            ["report", "--scale", TINY_SCENARIO, "--cache", cache]
        )
        assert code_first == code_second == 0
        assert "(generated in" in first
        assert "(cache in" in second
        assert _summary_lines(first) == _summary_lines(second)

    def test_stale_cache_chunks_cleaned_on_open(self, tmp_path):
        """Leftover chunk files must not leak rows into a rehydrated dataset.

        The frame store's manifest is the commit point: a chunk file the
        manifest never committed (here: a stale leftover from an older
        layout) is cleaned on open, so the cache stays valid — no
        regeneration, no phantom rows.
        """
        import shutil

        generated = load_or_generate(TINY_SCENARIO, 7, cache_root=str(tmp_path))
        directory = tmp_path / f"{TINY_SCENARIO}-seed7"
        chunks = sorted(directory.glob("frame-chunk-*.bin"))
        shutil.copy(chunks[0], directory / "frame-chunk-999999.bin")
        reloaded = load_or_generate(TINY_SCENARIO, 7, cache_root=str(tmp_path))
        assert reloaded.from_cache is True  # uncommitted chunk cleaned, not trusted
        assert list(reloaded.frame) == list(generated.frame)
        assert not (directory / "frame-chunk-999999.bin").exists()

    def test_cached_dataset_round_trips_frame(self, tmp_path):
        generated = load_or_generate(TINY_SCENARIO, 7, cache_root=str(tmp_path))
        cached = load_or_generate(TINY_SCENARIO, 7, cache_root=str(tmp_path))
        assert generated.from_cache is False
        assert cached.from_cache is True
        assert list(cached.frame) == list(generated.frame)
        for currency, issuer in generated.oracle.known_assets():
            assert cached.oracle.rate(currency, issuer) == generated.oracle.rate(
                currency, issuer
            )


class TestUnusableCacheMeta:
    """A ``meta.json`` or manifest the cache cannot trust is a miss, never a crash."""

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated",
            "not_an_object",
            "another_seed",
            "manifest_truncated",
            "manifest_not_an_object",
            "oracle_missing",
            "oracle_malformed",
            "clusters_missing",
            "clusters_malformed",
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--out-of-core"]], ids=["resident", "ooc"])
    def test_damaged_meta_regenerates_the_same_report(
        self, tmp_path, capsys, damage, flags
    ):
        base = ["report", "--scale", TINY_SCENARIO, "--cache", str(tmp_path), "--json"]
        code, fresh = _run(base + flags)
        assert code == 0
        meta_path = tmp_path / f"{TINY_SCENARIO}-seed7" / "meta.json"
        manifest_path = meta_path.with_name("manifest.json")
        if damage == "truncated":  # what an in-place writer leaves when it dies
            meta_path.write_bytes(meta_path.read_bytes()[:100])
        elif damage == "not_an_object":
            meta_path.write_text("[1]")
        elif damage == "manifest_truncated":
            manifest_path.write_bytes(manifest_path.read_bytes()[:100])
        elif damage == "manifest_not_an_object":
            manifest_path.write_text("[1]")
        elif damage.startswith(("oracle_", "clusters_")):
            # Version, scenario, seed and rows still match: only the frozen
            # analysis companions are unusable.
            meta = json.loads(meta_path.read_text())
            field = "oracle_rates" if damage.startswith("oracle_") else "clusters"
            if damage.endswith("_missing"):
                del meta[field]
            else:
                meta[field] = [["XRP"]] if field == "oracle_rates" else [1, 2]
            meta_path.write_text(json.dumps(meta))
        else:  # a directory copied from another run, row count and all
            rows = json.loads(meta_path.read_text())["rows"]
            assert _run(base + ["--seed", "8"])[0] == 0
            other = json.loads((tmp_path / f"{TINY_SCENARIO}-seed8" / "meta.json").read_text())
            assert other["seed"] == 8
            meta_path.write_text(json.dumps(dict(other, rows=rows)))
        capsys.readouterr()
        code, again = _run(base + flags)
        assert code == 0 and again == fresh
        assert "(generated in" in capsys.readouterr().err
        code, third = _run(base + flags)
        assert code == 0 and third == fresh
        assert "(cache in" in capsys.readouterr().err
        assert not meta_path.with_name("meta.json.tmp").exists()

    def test_rebuild_starts_from_an_empty_state_cache(self, tmp_path, capsys):
        """Entries keyed to the replaced chunks must not outlive a rebuild."""
        base = ["report", "--scale", TINY_SCENARIO, "--cache", str(tmp_path), "--json"]
        directory = tmp_path / f"{TINY_SCENARIO}-seed7"
        assert _run(base)[0] == 0 and _run(base)[0] == 0  # build, then warm
        chunks = len(list(directory.glob("frame-chunk-*.bin")))
        assert len(list((directory / "cache").iterdir())) == chunks > 0
        meta_path = directory / "meta.json"
        meta_path.write_bytes(meta_path.read_bytes()[:100])
        capsys.readouterr()
        assert _run(base)[0] == 0
        info = capsys.readouterr().err
        assert "(generated in" in info
        # The rebuild writes its own entries as it commits the chunks.
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in info
        assert len(list((directory / "cache").iterdir())) == chunks
        code, fsck = _run(["fsck", str(directory)])
        assert code == 0 and "clean: no damage found" in fsck
        assert _run(base)[0] == 0
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in capsys.readouterr().err


def _entry_mtimes(cache_dir) -> dict:
    return {path.name: path.stat().st_mtime_ns for path in cache_dir.iterdir()}


class TestCacheHitSelectsTheChunkEngine:
    """A dataset-cache hit is folded by the chunk engine whatever the flags."""

    def test_every_route_prints_the_same_report(self, tmp_path, capsys):
        # Cold (one stream) against warm (folded chunk states) is an identity.
        root = tmp_path / "default"
        directory = root / "small-seed7"

        def run(*flags, cache=root):
            code, payload = _run(
                [
                    "report", "--scale", "small", "--cache", str(cache), "--json",
                    *flags,
                ]  # fmt: skip
            )
            assert code == 0
            return payload, capsys.readouterr().err

        cold, info = run()
        assert "(generated in" in info and "chunk engine (in-process)" in info
        chunks = len(list(directory.glob("frame-chunk-*.bin")))
        assert chunks > 1
        # The build scanned each chunk as it committed it: the report after
        # it is all hits, and so is the next one, which rewrites no entry.
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in info
        written = _entry_mtimes(directory / "cache")
        assert len(written) == chunks

        first, info = run()
        assert first == cold
        assert "(cache in" in info and "chunk engine (in-process)" in info
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in info
        assert _entry_mtimes(directory / "cache") == written

        uncached, info = run("--no-cache")
        assert uncached == cold and "state cache" not in info
        pooled, info = run("--out-of-core", "--workers", "2")
        assert pooled == cold
        assert "out-of-core chunk engine (2 workers)" in info
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in info
        single, info = run("--out-of-core", "--workers", "1")
        assert single == cold and "out-of-core chunk engine (in-process)" in info
        assert _entry_mtimes(directory / "cache") == written

        streamed, info = run("--out-of-core", "--workers", "1", cache=tmp_path / "ooc")
        assert streamed == cold
        assert "(generated in" in info
        assert f"state cache {chunks} hit(s) / 0 miss(es)" in info

        # A miss with --no-cache: the build writes no entry and the report
        # reads none, so each chunk is scanned once.
        unkept, info = run("--no-cache", cache=tmp_path / "unkept")
        assert unkept == cold and "state cache" not in info
        unkept_cache = tmp_path / "unkept" / "small-seed7" / "cache"
        assert not unkept_cache.exists() or not _entry_mtimes(unkept_cache)

    def test_a_warm_hit_decodes_no_chunk(self, tmp_path, monkeypatch):
        from repro.collection.store import FrameStore

        base = ["report", "--scale", TINY_SCENARIO, "--cache", str(tmp_path), "--json"]
        assert _run(base)[0] == 0
        code, folded = _run(base)  # populates the state cache
        assert code == 0

        def decoded(self, *args, **kwargs):
            raise AssertionError("a chunk was decoded")

        monkeypatch.setattr(FrameStore, "chunk_payload", decoded)
        monkeypatch.setattr(FrameStore, "to_frame", decoded)
        assert _run(base) == (0, folded)
        with pytest.raises(AssertionError, match="a chunk was decoded"):
            _run(base + ["--no-cache"])


class TestRetiredSurface:
    """Sub-commands and flags that no longer exist are argparse errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--scale", TINY_SCENARIO],
            ["report", "--scale", TINY_SCENARIO, "--shards", "2"],
            ["ingest", "--data", "unused", "--shards", "2"],
            ["update", "--data", "unused", "--shards", "2"],
            ["watch", "--data", "unused", "--shards", "2"],
            ["migrate-store", "unused", "--format", "v1"],
            ["report", "--scale", TINY_SCENARIO, "--stats", "sketch"],
            ["ingest", "--data", "unused", "--stats", "exact"],
            ["update", "--data", "unused", "--stats", "sketch"],
            ["watch", "--data", "unused", "--stats", "sketch"],
            ["soak", "--data", "unused", "--stats", "sketch"],
        ],
        ids=[
            "bench",
            "report--shards",
            "ingest--shards",
            "update--shards",
            "watch--shards",
            "migrate-store--format",
            "report--stats",
            "ingest--stats",
            "update--stats",
            "watch--stats",
            "soak--stats",
        ],
    )
    def test_retired_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "invalid choice" in err

    def test_migrate_store_rewrites_v1_chunks_once(self, v1_store_dir):
        code, out = _run(["migrate-store", v1_store_dir])
        assert code == 0
        assert f"Migrated {V1_STORE_CHUNKS} of {V1_STORE_CHUNKS} chunk(s)" in out
        code, out = _run(["migrate-store", v1_store_dir])
        assert code == 0
        assert "Nothing to migrate" in out and "already v2" in out


def _summary_lines(output: str):
    lines = output.splitlines()
    start = next(
        index for index, line in enumerate(lines) if "Summary of findings" in line
    )
    return lines[start:]


class TestPipelineCommands:
    """The incremental front door: ingest | update | watch."""

    def test_ingest_then_update_then_resume(self, tmp_path):
        data = str(tmp_path / "pipe")
        code, out = _run(
            ["ingest", "--data", data, "--scale", TINY_SCENARIO, "--batches", "3"]
        )
        assert code == 0
        assert "Ingested 3 batch(es)" in out
        code, out = _run(["update", "--data", data])
        assert code == 0
        assert "full rescan" in out  # first update has no checkpoint
        assert "Summary of findings" in out
        # Second ingest appends only the next batches; update is incremental.
        code, out = _run(["ingest", "--data", data, "--batches", "2"])
        assert code == 0
        assert "Ingested 2 batch(es)" in out
        code, out = _run(["update", "--data", data])
        assert code == 0
        assert "(incremental)" in out

    def test_ingest_on_a_non_empty_pipeline_decodes_no_committed_chunk(
        self, tmp_path, monkeypatch
    ):
        """``ingest`` never reads the frame, so it must not rehydrate one."""
        from repro.collection.store import FrameStore, StoredFrameChunk

        data = str(tmp_path / "pipe")
        assert _run(
            ["ingest", "--data", data, "--scale", TINY_SCENARIO, "--batches", "3"]
        )[0] == 0

        def decoded(self, *args, **kwargs):
            raise AssertionError("ingest decoded a committed chunk")

        with monkeypatch.context() as patched:
            patched.setattr(FrameStore, "to_frame", decoded)
            patched.setattr(StoredFrameChunk, "payload", decoded)
            code, out = _run(["ingest", "--data", data, "--batches", "1"])
        assert code == 0
        assert "Ingested 1 batch(es)" in out
        code, out = _run(["fsck", data])
        assert code == 0 and "clean: no damage found" in out

    def test_update_json_payload(self, tmp_path):
        data = str(tmp_path / "pipe")
        assert _run(["ingest", "--data", data, "--scale", TINY_SCENARIO])[0] == 0
        code, out = _run(["update", "--data", data, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"eos", "tezos", "xrp", "_update"}
        assert payload["_update"]["rows_scanned"] == payload["_update"]["rows_total"]

    def test_ingest_exhausts_stream(self, tmp_path):
        data = str(tmp_path / "pipe")
        assert _run(["ingest", "--data", data, "--scale", TINY_SCENARIO])[0] == 0
        code, out = _run(["ingest", "--data", data])
        assert code == 0
        assert "Nothing to ingest" in out

    def test_pipeline_pins_scenario_settings(self, tmp_path):
        data = str(tmp_path / "pipe")
        assert _run(
            ["ingest", "--data", data, "--scale", TINY_SCENARIO, "--batches", "1"]
        )[0] == 0
        code, _ = _run(["ingest", "--data", data, "--scale", "small"])
        assert code == 2  # pinned settings mismatch is a clean CLI error

    @pytest.mark.parametrize("content", ['{"version": 1, "oracle', "[]"])
    def test_unreadable_pipeline_meta_is_a_clean_error(
        self, tmp_path, capsys, content
    ):
        data = str(tmp_path / "pipe")
        assert _run(
            ["ingest", "--data", data, "--scale", TINY_SCENARIO, "--batches", "1"]
        )[0] == 0
        meta_path = tmp_path / "pipe" / "meta.json"
        meta_path.write_text(content)
        capsys.readouterr()
        for command, extra in (
            ("ingest", ["--batches", "1"]),
            ("update", []),
            ("watch", ["--batches", "1"]),
        ):
            code, _ = _run([command, "--data", data, *extra])
            assert code == 2
            error = capsys.readouterr().err
            assert error.startswith("error: pipeline meta") and str(meta_path) in error
        assert meta_path.read_text() == content  # never reset silently

    @pytest.mark.parametrize(
        "field, value",
        [("oracle_rates", [["XRP"]]), ("clusters", [1, 2]), ("oracle_rates", None)],
        ids=["oracle_malformed", "clusters_malformed", "oracle_missing"],
    )
    def test_malformed_analysis_config_is_a_clean_error(
        self, tmp_path, capsys, field, value
    ):
        """A parsable meta whose frozen oracle or cluster map does not decode."""
        data = str(tmp_path / "pipe")
        assert _run(
            ["ingest", "--data", data, "--scale", TINY_SCENARIO, "--batches", "1"]
        )[0] == 0
        meta_path = tmp_path / "pipe" / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert "oracle_rates" in meta and "clusters" in meta
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        content = json.dumps(meta)
        meta_path.write_text(content)
        capsys.readouterr()
        for command, extra in (("update", []), ("ingest", ["--batches", "1"])):
            code, _ = _run([command, "--data", data, *extra])
            assert code == 2
            error = capsys.readouterr().err
            assert error.startswith("error: pipeline meta") and str(meta_path) in error
            assert field in error
        assert meta_path.read_text() == content  # never reset silently

    def test_update_on_a_mistyped_data_path_creates_nothing(self, tmp_path, capsys):
        typo = str(tmp_path / "TYPO")
        code, _ = _run(["update", "--data", typo])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists(typo)
        # An existing but never-ingested directory is still the old error.
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _ = _run(["update", "--data", str(empty)])
        assert code == 2
        assert "not an initialised pipeline" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "watch"])
    @pytest.mark.parametrize("blocked", ["data", "frames"])
    def test_data_path_that_is_a_file_is_an_error(
        self, tmp_path, capsys, command, blocked
    ):
        """``--data FILE``, or a directory whose ``frames`` is a file: exit 2."""
        data = tmp_path / "pipe"
        if blocked == "frames":
            data.mkdir()
        in_the_way = data if blocked == "data" else data / "frames"
        in_the_way.write_text("not a directory")
        code, _ = _run(
            [command, "--data", str(data), "--scale", TINY_SCENARIO, "--batches", "1"]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert error.startswith("error:") and str(in_the_way) in error
        assert "Traceback" not in error
        assert in_the_way.read_text() == "not a directory"
        assert os.listdir(tmp_path) == ["pipe"]
        if blocked == "frames":
            assert os.listdir(data) == ["frames"]

    def test_watch_prints_live_updates_and_resumes(self, tmp_path):
        data = str(tmp_path / "pipe")
        code, out = _run(
            [
                "watch",
                "--data",
                data,
                "--scale",
                TINY_SCENARIO,
                "--batches",
                "2",
                "--batch-hours",
                "12",
            ]
        )
        assert code == 0
        assert "batch 0:" in out and "batch 1:" in out
        assert "Summary of findings" in out
        # Resuming continues at batch 2 without re-ingesting.
        code, out = _run(["watch", "--data", data, "--batches", "1"])
        assert code == 0
        assert "batch 2:" in out and "batch 0:" not in out

    def test_watch_incremental_matches_batch_report(self, tmp_path):
        from repro.analysis.report import full_report
        from repro.pipeline import Pipeline

        data = str(tmp_path / "pipe")
        code, _ = _run(["watch", "--data", data, "--scale", TINY_SCENARIO])
        assert code == 0
        pipeline = Pipeline(data)
        report, stats = pipeline.update()
        assert stats.rows_scanned == 0  # everything already covered
        oracle, clusterer = pipeline.analysis_config()
        expected = full_report(pipeline.frame, oracle=oracle, clusterer=clusterer)
        assert report.summary().to_rows() == expected.summary().to_rows()


TINY_WINDOWED = "cli-tiny-windowed"


def _tiny_windowed_scenario(seed: int = 7) -> PaperScenario:
    """The tiny scenario split into two generation windows."""
    base = _tiny_scenario(seed)
    import dataclasses

    return dataclasses.replace(
        base, name=TINY_WINDOWED, generation_windows=2
    )


register_scenario(TINY_WINDOWED, _tiny_windowed_scenario, overwrite=True)


class TestOutOfCore:
    """The chunk engine's CLI front door: report --out-of-core."""

    def test_report_out_of_core_is_accepted_and_changes_nothing(self, capsys):
        base = ["report", "--scale", TINY_SCENARIO, "--json"]
        code, plain = _run(base)
        code_ooc, ooc = _run(base + ["--out-of-core"])
        assert code == code_ooc == 0
        assert ooc == plain
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["report", "--help"])
        assert "--out-of-core" not in capsys.readouterr().out

    def test_report_out_of_core_matches_serial_summary(self, tmp_path):
        cache = str(tmp_path)
        code_serial, serial = _run(
            ["report", "--scale", TINY_SCENARIO, "--cache", cache]
        )
        code_ooc, ooc = _run(
            [
                "report", "--scale", TINY_SCENARIO, "--cache", cache,
                "--workers", "2", "--out-of-core",
            ]
        )
        assert code_serial == code_ooc == 0
        assert "out-of-core chunk engine (2 workers)" in ooc
        assert _summary_lines(serial) == _summary_lines(ooc)

    def test_windowed_scenario_report_via_sharded_generation(self, tmp_path):
        """A generation_windows>1 scenario generates shard-parallel into the
        cache and reports out-of-core without materialising the frame."""
        cache = str(tmp_path)
        code_first, first = _run(
            [
                "report", "--scale", TINY_WINDOWED, "--cache", cache,
                "--out-of-core", "--gen-workers", "2",
            ]
        )
        code_again, again = _run(
            ["report", "--scale", TINY_WINDOWED, "--cache", cache, "--out-of-core"]
        )
        assert code_first == code_again == 0
        assert "(generated in" in first
        assert "(cache in" in again
        assert _summary_lines(first) == _summary_lines(again)

    def test_ensure_store_round_trips_cache(self, tmp_path):
        from repro.cli import ensure_store

        built = ensure_store(TINY_WINDOWED, 7, str(tmp_path), gen_workers=1)
        cached = ensure_store(TINY_WINDOWED, 7, str(tmp_path))
        assert built.from_cache is False
        assert cached.from_cache is True
        assert cached.rows == built.rows > 0
        for currency, issuer in built.oracle.known_assets():
            assert cached.oracle.rate(currency, issuer) == built.oracle.rate(
                currency, issuer
            )


class TestEveryCommandFromAColdInterpreter:
    """One ``python -m repro`` child per sub-command, on ``live_tail``.

    Each command's module imports its own layers, so a forgotten import is
    a ``NameError`` on that command alone — invisible to the in-process
    tests above, which share one ``sys.modules`` that some earlier test has
    already filled.
    """

    @pytest.fixture(scope="class")
    def pipeline_dir(self, tmp_path_factory):
        data = str(tmp_path_factory.mktemp("smoke") / "pipeline")
        done = run_child(
            ["-m", "repro", "ingest", "--data", data, "--scale", "live_tail", "--batches", "2"]
        )
        assert done.returncode == 0, done.stderr
        assert "Ingested 2 batch(es)" in done.stdout
        return data

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(["list"], "live_tail", id="list"),
            pytest.param(["scenario", "live_tail"], "scale factors", id="scenario"),
            pytest.param(
                ["report", "--scale", "live_tail", "--cache", "CACHE"],
                "(cache in",
                id="report",
            ),
            pytest.param(
                ["report", "--scale", "live_tail", "--cache", "CACHE", "--out-of-core"],
                "out-of-core chunk engine",
                id="report-out-of-core",
            ),
            pytest.param(
                ["migrate-store", "CACHE/live_tail-seed7"],
                "Nothing to migrate",
                id="migrate-store",
            ),
            pytest.param(
                ["cache", "stat", "CACHE/live_tail-seed7"],
                "Chunk-state cache at",
                id="cache-stat",
            ),
            pytest.param(
                ["cache", "clear", "CACHE/live_tail-seed7"],
                "chunk-state cache file(s)",
                id="cache-clear",
            ),
            pytest.param(
                ["ingest", "--data", "DATA", "--batches", "1"],
                "Ingested 1 batch(es)",
                id="ingest",
            ),
            pytest.param(["update", "--data", "DATA"], "Update scanned", id="update"),
            pytest.param(
                ["watch", "--data", "DATA", "--batches", "1"],
                "Watching scenario 'live_tail'",
                id="watch",
            ),
            pytest.param(
                ["soak", "--data", "SOAK", "--scale", "live_tail", "--days", "1", "--no-oracle"],
                "gates: fsck=clean",
                id="soak",
            ),
            pytest.param(["fsck", "DATA"], "clean: no damage found", id="fsck"),
        ],
    )
    def test_command_exits_zero_and_prints(
        self, live_tail_cache, pipeline_dir, tmp_path, argv, expected
    ):
        places = {"CACHE": live_tail_cache, "DATA": pipeline_dir, "SOAK": str(tmp_path)}
        for name, path in places.items():
            argv = [arg.replace(name, path) for arg in argv]
        done = run_child(["-m", "repro", *argv])
        assert done.returncode == 0, done.stderr
        assert expected in done.stdout

    @pytest.mark.parametrize("argv", [["list"], ["update", "--data", "DATA"]], ids=["list", "update"])
    def test_closed_pipe_is_no_traceback(self, pipeline_dir, argv):
        """``repro … | head -1``: handled once, in ``repro/__main__.py``."""
        argv = [arg.replace("DATA", pipeline_dir) for arg in argv]
        child = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", *argv],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first_line = child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) in (0, 1)  # 0: all written before the close
        assert first_line and b"Traceback" not in stderr

    def test_unread_pipe_exits_one_silently(self):
        """The deterministic form: the read end is gone before the first write."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                env=child_env(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == b""
