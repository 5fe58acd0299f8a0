"""The repo benchmark: ``python bench/run.py --workload NAME --seed N``.

One run builds its inputs from the seed inside ``bench_out/``, measures one
workload for ``--seconds`` with a single closed-loop client, checks every
output against a ``full_report`` oracle and prints, as the last line of
standard output, one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: the cost
of the commands a user waits for (``python -m repro ...`` children,
interpreter start-up and imports included) — each child's own CPU seconds,
scaled to the speed the box ran at meanwhile, and peak memory, with the
measured seconds and the wall clock beside them in the result file;
:class:`benchenv.Timed` says why CPU seconds, :class:`benchenv.BoxSpeed` why
scaled, and :mod:`spawn` how a child's memory is told apart from the
harness's.
``--trace 1`` replays the same workload in-process through each layer's
public functions, records spans (``bench_out/results/*.spans.jsonl``) and
reports the per-layer metrics.  ``--all`` runs every workload, each in a
fresh process, and writes one document for ``bench/compare.py``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import benchenv
import ingest_loop
from benchenv import SCALE, BoxSpeed, Child, Stopwatch, Timed
from spans import Tracer

#: An ``ooc_cached`` cycle is one report over a cleared chunk-state cache
#: and this many over the cache it leaves behind.
HITS_PER_CYCLE = 3


@dataclass
class Inputs:
    """What set-up leaves behind for the timed operations."""

    seed: int
    cache_root: str
    store_dir: str
    rows: int
    chunks: int
    store_bytes: int
    #: ``full_report`` over the freshly generated frame, rendered.
    oracle: str


@dataclass
class Outcome:
    """What one measured workload hands back to :func:`main`."""

    attempted: int = 0
    failed: int = 0
    #: One entry per timed operation that came out right.
    ops: List[Timed] = field(default_factory=list)
    #: Largest resident set of the children that ran them.
    rss_mb: float = 0.0
    #: Further per-operation readings for the result file and the layers.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Bytes and rows of the store this workload's operations wrote.
    store_bytes: int = 0
    store_rows: int = 0
    #: Values that must repeat exactly between two runs at one seed.
    counts: Dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: FAILED {what}", file=sys.stderr)
        return ok


# -- set-up -----------------------------------------------------------------------------
def build_inputs(seed: int, cache_root: str) -> Inputs:
    """Generate the dataset into a CLI cache directory and compute the oracle."""
    from repro.analysis.report import full_report
    from repro.cli import load_or_generate
    from repro.collection.store import FrameStore

    dataset = load_or_generate(SCALE, seed, cache_root=cache_root, gen_workers=1)
    oracle = benchenv.render(
        full_report(dataset.frame, oracle=dataset.oracle, clusterer=dataset.clusterer)
    )
    store_dir = benchenv.store_directory(cache_root, seed)
    store = FrameStore.open(store_dir)
    if store.row_count != len(dataset.frame):
        raise SystemExit(
            f"bench: set-up stored {store.row_count} rows of {len(dataset.frame)}"
        )
    return Inputs(
        seed=seed,
        cache_root=cache_root,
        store_dir=store_dir,
        rows=store.row_count,
        chunks=store.chunk_count,
        store_bytes=benchenv.store_bytes(store_dir),
        oracle=oracle,
    )


def measure_setup(seed: int, work: str, speed: Optional[BoxSpeed]) -> Tuple[Inputs, Timed]:
    """Set up from scratch, once: a second set-up would cost a fifth of the run's time."""
    import repro.cli  # noqa: F401  (its import time is not set-up's)

    watch = Stopwatch()
    inputs = build_inputs(seed, os.path.join(work, "cache"))
    timed = watch.read()
    if speed is not None:
        speed.keep_up()
    return inputs, timed


# -- the commands a user waits for --------------------------------------------------------
def report_command(inputs: Inputs, cache_root: str, *flags: str) -> Tuple[Child, bool]:
    """One ``python -m repro report --json`` child: (what it cost, output correct)."""
    from repro.collection.store import FrameStore

    argv = [
        sys.executable, "-m", "repro", "report",
        "--scale", SCALE, "--seed", str(inputs.seed), "--cache", cache_root,
        "--workers", "1", "--gen-workers", "1", "--json", *flags,
    ]  # fmt: skip
    done = benchenv.run_child(argv, cwd=cache_root)
    ok = done.returncode == 0
    if ok:
        try:
            document = json.loads(done.stdout)
        except ValueError:
            ok = False
    if ok:
        manifest_rows = FrameStore.open(
            benchenv.store_directory(cache_root, inputs.seed)
        ).row_count
        ok = (
            json.dumps(document, sort_keys=True) == inputs.oracle
            and sum(chain["actions"] for chain in document.values()) == inputs.rows
            and manifest_rows == inputs.rows
        )
    if not ok:
        print(f"bench: {' '.join(argv)}\n{done.stderr[-2000:]}", file=sys.stderr)
    return done, ok


def closed_loop(
    outcome: Outcome,
    seconds: float,
    speed: BoxSpeed,
    operation: Callable[[], Tuple[Child, bool]],
    what: str,
    warm_up: bool,
) -> None:
    """Issue ``operation`` until ``seconds`` have gone by, reference children between."""
    if warm_up:
        # The first child pays for a cold page cache and, in a fresh
        # checkout, for byte-compiling; it must be right but is not timed.
        outcome.check(operation()[1], f"{what} (warm-up)")
    for _ in benchenv.while_budget(seconds):
        child, ok = operation()
        if outcome.check(ok, what):
            outcome.ops.append(child.timed)
            outcome.rss_mb = max(outcome.rss_mb, child.rss_mb)
        speed.keep_up()


def run_cold_build(inputs: Inputs, work: str, seconds: float, speed: BoxSpeed) -> Outcome:
    outcome = Outcome()

    def operation() -> Tuple[Child, bool]:
        cache_root = tempfile.mkdtemp(prefix="cold-", dir=work)
        try:
            child, ok = report_command(inputs, cache_root)
            if ok:
                written = benchenv.store_bytes(benchenv.store_directory(cache_root, inputs.seed))
                ok = written == inputs.store_bytes
                outcome.store_bytes += written
                outcome.store_rows += inputs.rows
            return child, ok
        finally:
            shutil.rmtree(cache_root)

    # No warm-up: set-up has just run the same code in this checkout, and a
    # discarded five-second build would cost a third of the run.
    closed_loop(outcome, seconds, speed, operation, "cold report", warm_up=False)
    return outcome


def run_warm_report(inputs: Inputs, work: str, seconds: float, speed: BoxSpeed) -> Outcome:
    outcome = Outcome(store_bytes=inputs.store_bytes, store_rows=inputs.rows)
    closed_loop(
        outcome,
        seconds,
        speed,
        lambda: report_command(inputs, inputs.cache_root),
        "warm report",
        warm_up=True,
    )
    return outcome


def run_ooc_cached(inputs: Inputs, work: str, seconds: float, speed: BoxSpeed) -> Outcome:
    """Cycles of ``report --out-of-core``: one over a cleared state cache, then hits.

    A cycle is the timed operation: its cost is the sum of its reports'
    (clearing the cache is the harness's work and is not in it).  Each
    report is gated on its own; the legs' samples go to the result file.
    """
    from repro.analysis.statecache import ChunkStateCache

    outcome = Outcome(store_bytes=inputs.store_bytes, store_rows=inputs.rows)
    cache = ChunkStateCache.for_store(inputs.store_dir)

    def entry_times() -> List[int]:
        return sorted(
            entry.stat().st_mtime_ns
            for entry in os.scandir(cache.directory)
            if entry.is_file()
        )

    def report(leg: str, entries_ok: Callable[[], bool]) -> Optional[Child]:
        child, ok = report_command(inputs, inputs.cache_root, "--out-of-core")
        stat = cache.stat()
        ok = ok and stat["entries"] == inputs.chunks and entries_ok()
        outcome.counts.update(cache_entries=stat["entries"], cache_bytes=stat["bytes"])
        speed.keep_up()
        if not outcome.check(ok, f"out-of-core report, cache {leg}"):
            return None
        outcome.samples.setdefault(f"ooc_{leg}_cpu_s", []).append(child.timed.cpu)
        outcome.samples.setdefault(f"ooc_{leg}_wall_s", []).append(child.timed.wall)
        return child

    def cycle() -> None:
        # A miss run writes one entry per chunk; a hit run rewrites none.
        cache.clear()
        legs = [report("miss", lambda: True)]
        written = entry_times()
        legs += [report("hit", lambda: entry_times() == written) for _ in range(HITS_PER_CYCLE)]
        if None not in legs:
            outcome.ops.append(
                Timed(sum(leg.timed.wall for leg in legs), sum(leg.timed.cpu for leg in legs))
            )
            outcome.rss_mb = max(outcome.rss_mb, *(leg.rss_mb for leg in legs))

    # The first child pays for a cold page cache; it must be right but is not timed.
    warm_up = report_command(inputs, inputs.cache_root, "--out-of-core")[1]
    outcome.check(warm_up, "out-of-core report (warm-up)")
    for _ in benchenv.while_budget(seconds):
        cycle()
    return outcome


def run_ingest_update(inputs: Inputs, work: str, seconds: float, speed: BoxSpeed) -> Outcome:
    outcome = Outcome()
    argv = [
        sys.executable, os.path.join(benchenv.BENCH, "ingest_loop.py"),
        "--work", work, "--seed", str(inputs.seed), "--seconds", str(seconds),
    ]  # fmt: skip
    done = benchenv.run_child(argv, cwd=work)
    if done.returncode != 0:
        print(f"bench: {' '.join(argv)}\n{done.stderr[-2000:]}", file=sys.stderr)
        outcome.check(False, "ingest loop exited non-zero")
        return outcome
    for result in json.loads(done.stdout):
        absorb_pass(outcome, inputs, result)
        speed.samples.extend(result["reference_cpu_s"])
    outcome.rss_mb = done.rss_mb
    return outcome


def absorb_pass(outcome: Outcome, inputs: Inputs, result: Dict) -> None:
    """Fold one pass of :mod:`ingest_loop` into the outcome and gate it.

    Every cycle is an attempted operation; a pass whose final report or row
    counts are wrong fails all of its cycles, because no single one can be
    told apart as the culprit.
    """
    cycles = result["cycles"]
    ingested = sum(rows for rows, _wall, _cpu in cycles)
    ok = result["identity"] and (
        result["rows"] == result["manifest_rows"] == ingested == inputs.rows
    )
    for _rows, wall, cpu in cycles:
        if outcome.check(ok, "ingest→update pass (identity / row counts)"):
            outcome.ops.append(Timed(wall, cpu))
    if not ok:
        return
    for name in ("checkpoint_load_wall_s", "checkpoint_save_wall_s"):
        outcome.samples.setdefault(name, []).extend(result[name])
    outcome.store_bytes += result["store_bytes"]
    outcome.store_rows += result["rows"]
    outcome.counts.update(
        cycles_per_pass=len(cycles),
        pipeline_chunks=result["chunks"],
        pipeline_store_bytes=result["store_bytes"],
        rows_scanned=result["rows_scanned"],
        chains_rescanned=result["rescans"],
        checkpoint_bytes=result["checkpoint_bytes"],
    )


# -- the traced replay ----------------------------------------------------------------------
def alternate(
    tracer: Tracer,
    outcome: Outcome,
    seconds: float,
    iteration: Callable[[], Tuple[float, bool]],
    what: str,
) -> Dict[bool, List[float]]:
    """Run ``iteration`` with tracing on and off in turn, at least once each.

    Returns the iterations' CPU seconds keyed by whether they were traced;
    their ratio is the tracing overhead.
    """
    times: Dict[bool, List[float]] = {True: [], False: []}
    for count in benchenv.while_budget(seconds, at_least=2):
        tracer.enabled = count % 2 == 0
        tracer.iteration = count
        gc.collect()
        elapsed, ok = iteration()
        if outcome.check(ok, f"traced {what}"):
            times[tracer.enabled].append(elapsed)
    tracer.enabled = True
    return times


def trace_cold_build(tracer, outcome, inputs, work, seconds):
    """generate → ``TxFrame.extend`` → ``FrameStore.add_frame`` → scan → render."""
    from repro.analysis.clustering import AccountClusterer
    from repro.analysis.report import full_report
    from repro.analysis.value import ExchangeRateOracle
    from repro.collection import chunkformat
    from repro.collection.store import FrameStore
    from repro.common.columns import TxFrame
    from repro.pipeline import scenario_generators
    from repro.scenarios import get_scenario

    def iteration() -> Tuple[float, bool]:
        directory = tempfile.mkdtemp(prefix="build-", dir=work)
        watch = Stopwatch()
        generators = scenario_generators(get_scenario(SCALE, seed=inputs.seed))
        frame = TxFrame()
        with tracer.span("columns.extend") as span:
            for name, generator in generators.items():
                frame.extend(tracer.timed_iter(f"generate.{name}", generator.stream_records()))
            if span is not None:
                span["rows"] = len(frame)
        ledger = generators["xrp"].ledger
        oracle = ExchangeRateOracle.from_orderbook(ledger.orderbook)
        clusterer = AccountClusterer(ledger.accounts)
        with tracer.span("store.add_frame", rows=len(frame)):
            store = FrameStore(directory=directory)
            store.add_frame(frame)
        with tracer.span("engine.resident_scan", rows=len(frame)):
            report = full_report(frame, oracle=oracle, clusterer=clusterer)
        with tracer.span("report.render"):
            rendered = benchenv.render(report)
        elapsed = watch.read().cpu
        if tracer.enabled:
            # Probe: the encode share of add_frame, on the payloads it built.
            start = 0
            for rows in store.chunk_row_counts():
                payload = frame.to_payload(range(start, start + rows), arrays=True)
                with tracer.span("chunkformat.encode", rows=rows):
                    chunkformat.encode_chunk(payload)
                start += rows
        ok = rendered == inputs.oracle and benchenv.store_bytes(directory) == inputs.store_bytes
        shutil.rmtree(directory)
        return elapsed, ok

    return alternate(tracer, outcome, seconds, iteration, "cold build")


def stored_companions(inputs: Inputs):
    """The cached store's oracle and clusterer, as a warm CLI run loads them."""
    from repro.cli import ensure_store

    stored = ensure_store(SCALE, inputs.seed, inputs.cache_root, gen_workers=1)
    if not stored.from_cache:
        raise SystemExit("bench: the cache set-up built was not accepted as a hit")
    return stored.oracle, stored.clusterer


def trace_warm_report(tracer, outcome, inputs, work, seconds):
    """``FrameStore.open`` → ``to_frame`` → first scan → render."""
    from repro.analysis.report import full_report
    from repro.collection import chunkformat
    from repro.collection.store import FrameStore

    oracle, clusterer = stored_companions(inputs)

    def iteration() -> Tuple[float, bool]:
        watch = Stopwatch()
        with tracer.span("store.open"):
            store = FrameStore.open(inputs.store_dir)
        with tracer.span("store.to_frame", rows=inputs.rows):
            frame = store.to_frame()
        with tracer.span("engine.first_scan", rows=inputs.rows):
            report = full_report(frame, oracle=oracle, clusterer=clusterer)
        with tracer.span("report.render"):
            rendered = benchenv.render(report)
        elapsed = watch.read().cpu
        if tracer.enabled:
            # Probes: what to_frame deferred to the first scan, and the
            # decode share of to_frame.
            with tracer.span("engine.rescan", rows=inputs.rows):
                full_report(frame, oracle=oracle, clusterer=clusterer)
            paths = sorted(glob.glob(os.path.join(inputs.store_dir, "frame-chunk-*")))
            for path, rows in zip(paths, store.chunk_row_counts()):
                with open(path, "rb") as handle:
                    blob = handle.read()
                with tracer.span("chunkformat.decode", rows=rows):
                    chunkformat.decode_chunk(blob)
        return elapsed, rendered == inputs.oracle and len(frame) == inputs.rows

    return alternate(tracer, outcome, seconds, iteration, "warm report")


def trace_ooc_cached(tracer, outcome, inputs, work, seconds):
    """``parallel_report_from_store`` over a cleared state cache, then over the warm one."""
    from repro.analysis.parallel import parallel_report_from_store
    from repro.analysis.statecache import ChunkStateCache
    from repro.collection.store import FrameStore

    oracle, clusterer = stored_companions(inputs)

    class TimedCache(ChunkStateCache):
        """Puts the parent-side write of each missed chunk's states in a span."""

        def store(self, key, states):
            with tracer.span("statecache.store"):
                super().store(key, states)

    def report(cache, store):
        return parallel_report_from_store(
            inputs.store_dir,
            oracle=oracle,
            clusterer=clusterer,
            workers=1,
            cache=cache,
            store=store,
        )

    def leg(name: str, hits: int, misses: int) -> bool:
        """One report as a fresh process would make it: new cache object, store reopened."""
        cache = TimedCache.for_store(inputs.store_dir)
        with tracer.span("store.open"):
            store = FrameStore.open(inputs.store_dir)
        with tracer.span(name, rows=inputs.rows):
            computed = report(cache, store)
        with tracer.span("report.render"):
            rendered = benchenv.render(computed)
        outcome.counts["cache_hits_per_cycle"] += cache.hits
        outcome.counts["cache_misses_per_cycle"] += cache.misses
        return rendered == inputs.oracle and (cache.hits, cache.misses) == (hits, misses)

    def iteration() -> Tuple[float, bool]:
        ChunkStateCache.for_store(inputs.store_dir).clear()
        outcome.counts.update(cache_hits_per_cycle=0, cache_misses_per_cycle=0)
        watch = Stopwatch()
        ok = leg("ooc.report_miss", 0, inputs.chunks)
        for _ in range(HITS_PER_CYCLE):
            ok = leg("ooc.report_hit", inputs.chunks, 0) and ok
        elapsed = watch.read().cpu
        if tracer.enabled:
            # Probe: the same scan with neither look-ups nor writes.
            with tracer.span("parallel.chunk_scan", rows=inputs.rows):
                report(None, FrameStore.open(inputs.store_dir))
        return elapsed, ok

    return alternate(tracer, outcome, seconds, iteration, "out-of-core cycle")


def trace_ingest_update(tracer, outcome, inputs, work, seconds):
    """One pass of :func:`ingest_loop.run_pass` per iteration."""

    def iteration() -> Tuple[float, bool]:
        root = tempfile.mkdtemp(prefix="pipeline-", dir=work)
        result = ingest_loop.run_pass(root, inputs.seed, tracer)
        shutil.rmtree(root)
        before = outcome.failed
        absorb_pass(outcome, inputs, result)
        # absorb_pass counted the cycles; alternate() counts the pass itself.
        return sum(cpu for _rows, _wall, cpu in result["cycles"]), outcome.failed == before

    return alternate(tracer, outcome, seconds, iteration, "ingest→update pass")


def trace_cli_startup(tracer: Tracer) -> None:
    """Interpreter start-up, ``import repro.cli`` and ``repro list`` as children."""
    probes = {
        "cli.startup": ["-c", "pass"],
        "cli.import": ["-c", "import repro.cli"],
        "cli.list": ["-m", "repro", "list"],
    }
    for _ in range(3):
        for name, argv in probes.items():
            with tracer.span(name):
                subprocess.run(
                    [sys.executable, *argv],
                    env=benchenv.child_env(),
                    check=True,
                    capture_output=True,
                )


def layer_metrics(
    tracer: Tracer, times: Dict[bool, List[float]], outcome: Outcome, inputs: Inputs
) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload never entered the layer."""
    from repro.analysis.statecache import ChunkStateCache

    tracer.finish()
    traced = max(1, len(times[True]))

    def busy(name: str) -> float:
        return tracer.self_seconds(name) / traced

    hits = outcome.counts.get("cache_hits_per_cycle", 0)
    lookups = hits + outcome.counts.get("cache_misses_per_cycle", 0)
    cycles = sorted(r["busy"] for r in tracer.spans if r["name"] == "pipeline.cycle")
    return {
        "generate.eos.rows_per_s": tracer.rows_per_second("generate.eos"),
        "generate.tezos.rows_per_s": tracer.rows_per_second("generate.tezos"),
        "generate.xrp.rows_per_s": tracer.rows_per_second("generate.xrp"),
        "generate.busy_s": busy("generate"),
        "columns.extend.rows_per_s": tracer.rows_per_second("columns.extend"),
        "chunkformat.encode.rows_per_s": tracer.rows_per_second("chunkformat.encode"),
        "chunkformat.decode.rows_per_s": tracer.rows_per_second("chunkformat.decode"),
        "store.add_frame.rows_per_s": tracer.rows_per_second("store.add_frame"),
        # Differences of two separate measurements are left as they come
        # out: one that reads negative is smaller than the noise.
        "store.commit.busy_s": busy("store.add_frame") - busy("chunkformat.encode"),
        "store.open.busy_s": busy("store.open"),
        "store.to_frame.rows_per_s": tracer.rows_per_second("store.to_frame"),
        "engine.resident_scan.rows_per_s": tracer.rows_per_second("engine.resident_scan"),
        "engine.first_scan.rows_per_s": tracer.rows_per_second("engine.first_scan"),
        "engine.rescan.rows_per_s": tracer.rows_per_second("engine.rescan"),
        "parallel.chunk_scan.rows_per_s": tracer.rows_per_second("parallel.chunk_scan"),
        "statecache.populate.busy_s": busy("statecache.store"),
        "statecache.fold.busy_s": busy("ooc.report_hit"),
        "statecache.hit_ratio": hits / lookups if lookups else 0.0,
        "statecache.bytes": ChunkStateCache.for_store(inputs.store_dir).stat()["bytes"],
        "pipeline.ingest.rows_per_s": tracer.rows_per_second("pipeline.ingest"),
        "pipeline.update.p50_s": tracer.median_seconds("pipeline.update"),
        "pipeline.update.scanned_ratio": (
            outcome.counts["rows_scanned"] / inputs.rows if "rows_scanned" in outcome.counts else 0.0
        ),
        "pipeline.update.rescans": outcome.counts.get("chains_rescanned", 0),
        "pipeline.cycle.tail_s": tail(cycles) or 0.0,
        "checkpoint.load.p50_s": median(outcome.samples.get("checkpoint_load_wall_s")),
        "checkpoint.save.p50_s": median(outcome.samples.get("checkpoint_save_wall_s")),
        "checkpoint.bytes": outcome.counts.get("checkpoint_bytes", 0),
        "report.render.busy_s": busy("report.render"),
        "cli.import.busy_s": (
            tracer.median_seconds("cli.import") - tracer.median_seconds("cli.startup")
        ),
        "cli.list_s": tracer.median_seconds("cli.list"),
        "loadgen.busy_s": busy("loadgen"),
        "trace.overhead_ratio": (
            median(times[True]) / median(times[False]) if times[True] and times[False] else 0.0
        ),
    }


def median(values: Optional[List[float]]) -> float:
    """0.0 for no samples: the workload never entered the layer."""
    return statistics.median(values) if values else 0.0


def tail(ordered: List[float]) -> Optional[float]:
    """The highest percentile with ten samples beyond it: the 11th largest."""
    return ordered[-11] if len(ordered) >= 11 else None


# -- one run --------------------------------------------------------------------------------
#: name -> (the untraced measurement, its traced in-process replay)
WORKLOADS = {
    "cold_build": (run_cold_build, trace_cold_build),
    "warm_report": (run_warm_report, trace_warm_report),
    "ooc_cached": (run_ooc_cached, trace_ooc_cached),
    "ingest_update": (run_ingest_update, trace_ingest_update),
}


def environment() -> Dict[str, object]:
    import numpy
    from repro.common import kernels

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=benchenv.REPO, capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels.active_backend(),
        "revision": revision,
        "scenario": SCALE,
    }


def declared(section: str):
    with open(os.path.join(benchenv.REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)[section]


def result_path(workload: str, seed: int, trace: int, suffix: str = ".json") -> str:
    return os.path.join(benchenv.OUT, "results", f"{workload}-seed{seed}-trace{trace}{suffix}")


def run_workload(args: argparse.Namespace) -> int:
    os.makedirs(os.path.join(benchenv.OUT, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=benchenv.OUT)
    try:
        speed = None if args.trace else BoxSpeed(work)
        inputs, setup = measure_setup(args.seed, work, speed)
        # A process that still holds a frame collects garbage far more slowly.
        gc.collect()
        if args.trace:
            tracer = Tracer(args.workload)
            outcome = Outcome()
            times = WORKLOADS[args.workload][1](tracer, outcome, inputs, work, args.seconds)
            if args.workload != "ingest_update":
                trace_cli_startup(tracer)
            values = layer_metrics(tracer, times, outcome, inputs)
            tracer.write(result_path(args.workload, args.seed, 1, ".spans.jsonl"))
            section = "per_layer"
        else:
            outcome = WORKLOADS[args.workload][0](inputs, work, args.seconds, speed)
            outcome.samples["reference_cpu_s"] = speed.samples
            # Times are scaled to the baseline box's speed; the samples in
            # the result file are as measured.
            values = {
                "setup_s": setup.cpu / speed.factor(),
                "op_cpu_p50_s": median([timed.cpu for timed in outcome.ops]) / speed.factor(),
                "peak_rss_mb": outcome.rss_mb,
                "store_bytes_per_row": (
                    outcome.store_bytes / outcome.store_rows if outcome.store_rows else 0.0
                ),
            }
            section = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {entry["name"]: entry["unit"] for entry in declared(section)}
    if set(units) != set(values):
        raise SystemExit(f"bench: BENCHMARK.json and run.py disagree on {set(units) ^ set(values)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    ordered = sorted(timed.cpu for timed in outcome.ops)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        box_speed_factor=speed.factor() if speed is not None else None,
        samples=dict(
            outcome.samples,
            setup_cpu_s=setup.cpu,
            setup_wall_s=setup.wall,
            op_cpu_s=[timed.cpu for timed in outcome.ops],
            op_wall_s=[timed.wall for timed in outcome.ops],
        ),
        # For the reader; too few samples to hold a bound.
        tails={"op_cpu_max_s": ordered[-1] if ordered else None, "op_cpu_tail_s": tail(ordered)},
        counts=dict(
            outcome.counts,
            rows=inputs.rows,
            chunks=inputs.chunks,
            store_bytes=inputs.store_bytes,
        ),
        env=environment(),
    )
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; one document for compare.py."""
    runs = []
    status = 0
    plan = [(workload, 0) for workload in WORKLOADS for _ in range(args.repeat)]
    if args.trace:
        plan += [(workload, 1) for workload in WORKLOADS]
    for workload, trace in plan:
        path = result_path(workload, args.seed, trace)
        if os.path.exists(path):
            os.remove(path)
        argv = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(args.seed), "--trace", str(trace),
            "--seconds", str(args.seconds),
        ]  # fmt: skip
        print(f"bench: {workload} trace={trace}", file=sys.stderr)
        status |= subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                runs.append(json.load(handle))
    document = json.dumps({"seed": args.seed, "runs": runs}, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document + "\n")
    else:
        print(document)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=tuple(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(declared("run_seconds")),
        help="measuring time per run (default: BENCHMARK.json's run_seconds)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="with --all: untraced runs per workload")
    parser.add_argument("--out", help="with --all: write the document here, not to stdout")
    args = parser.parse_args()
    benchenv.bootstrap()
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
