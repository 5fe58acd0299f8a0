"""Self-check of the benchmark harness: ``python -m pytest bench -q``.

Not part of tier-1 (``pyproject.toml`` pins ``testpaths = ["tests"]``).  It
drives ``run.py`` with the smallest sample counts the harness allows
(``--seconds 1``; about two minutes in all) and checks the
harness against ``BENCHMARK.json``, not the speed of anything.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3


def run_py(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--seed", str(SEED),
         "--seconds", "1", *args],
        capture_output=True, text=True, cwd=REPO,
    )  # fmt: skip


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "all.json"
    done = run_py("--all", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_within_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declared[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = [e for e in declared["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert 1 <= declared["run_seconds"] <= 60


def test_every_workload_reports_every_declared_metric(declared, document):
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        for workload in declared["workloads"]:
            runs = [
                run
                for run in document["runs"]
                if run["workload"] == workload["name"] and run["trace"] == trace
            ]
            assert len(runs) == 1, (workload["name"], trace)
            run = runs[0]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            assert set(run["metrics"]) == {entry["name"] for entry in declared[section]}
            for entry in declared[section]:
                metric = run["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert isinstance(metric["value"], (int, float))
                if section == "end_to_end":
                    assert metric["value"] > 0, entry["name"]
            assert run["env"]["kernels"] == "numpy" and run["env"]["nproc"] >= 1


def test_each_workload_enters_the_layers_it_exists_for(document):
    entered = {
        "cold_build": ["generate.xrp.rows_per_s", "columns.extend.rows_per_s",
                       "chunkformat.encode.rows_per_s", "store.add_frame.rows_per_s",
                       "engine.resident_scan.rows_per_s"],
        "warm_report": ["chunkformat.decode.rows_per_s", "store.to_frame.rows_per_s",
                        "engine.first_scan.rows_per_s", "engine.rescan.rows_per_s"],
        "ooc_cached": ["parallel.chunk_scan.rows_per_s", "statecache.populate.busy_s",
                       "statecache.fold.busy_s", "statecache.bytes"],
        "ingest_update": ["pipeline.ingest.rows_per_s", "pipeline.update.p50_s",
                          "checkpoint.bytes", "loadgen.busy_s"],
    }  # fmt: skip
    for run in document["runs"]:
        if run["trace"]:
            for name in entered[run["workload"]]:
                assert run["metrics"][name]["value"] > 0, (run["workload"], name)
            # ...and bypasses the others' mechanisms.
            if run["workload"] != "cold_build":
                assert run["metrics"]["generate.busy_s"]["value"] == 0
            if run["workload"] == "ooc_cached":
                # One report of a cycle misses every chunk, three hit every one.
                assert run["metrics"]["statecache.hit_ratio"]["value"] == 0.75
            if run["workload"] == "ingest_update":
                assert run["metrics"]["pipeline.update.scanned_ratio"]["value"] == 1.0


def test_peak_memory_is_the_childs_own_and_not_the_harnesses(document):
    # The harness has held a whole dataset by the time it starts a child;
    # a child's figure must not be seeded with that (see spawn.py).
    rss = {
        run["workload"]: run["metrics"]["peak_rss_mb"]["value"]
        for run in document["runs"]
        if not run["trace"]
    }
    assert rss["ooc_cached"] < rss["warm_report"] < rss["cold_build"]


def test_span_files_parse_and_nest(declared, document):
    for workload in declared["workloads"]:
        path = os.path.join(
            REPO, "bench_out", "results", f"{workload['name']}-seed{SEED}-trace1.spans.jsonl"
        )
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans)
        for span in spans:
            assert span["workload"] == workload["name"]
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]
            assert span["self"] >= 0 and span["busy"] >= span["self"]
            assert isinstance(span["iteration"], int) and NAME.match(span["name"])


def test_last_stdout_line_is_the_result_object(document, declared):
    # After ``document`` so the two never compete for the cores.
    done = run_py("--workload", "warm_report", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {entry["name"] for entry in declared["end_to_end"]}
