"""Command-line interface: ``python -m repro <command>``.

One module of this package per command group, each importing the layers it
drives at its top:

* :mod:`~repro.cli.scenarios` — ``list`` and ``scenario NAME``: the scenario
  registry;
* :mod:`~repro.cli.report` — ``report``: load a scenario's dataset from the
  dataset cache (:mod:`~repro.cli.dataset`; built on a miss by
  :mod:`~repro.cli.build`) and print the paper's figures, folded from the
  store's chunks by the chunk engine;
* :mod:`~repro.cli.store` — ``migrate-store`` (rewrite a frame store's
  legacy-format chunks in place) and ``cache stat|clear`` (its chunk-state
  aggregate cache, :mod:`repro.analysis.statecache`);
* :mod:`~repro.cli.ingest` — ``ingest``, ``watch`` and ``soak``: stream a
  scenario's blocks into a durable, resumable pipeline directory;
* :mod:`~repro.cli.pipeline` — ``update`` and ``fsck``: read one (no
  simulator, no scenario registry).

:func:`main` imports only the module of the command it was given, so what a
``python -m repro`` child loads follows from what it runs: ``list`` never
loads numpy, and a report over a cached store never loads a chain simulator.
This module holds what every command shares: the parser and the dispatch.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Optional, Sequence

from repro.common.errors import ReproError

#: The module under :mod:`repro.cli` that defines ``cmd_<command>``.
_COMMANDS = {
    "list": "scenarios",
    "scenario": "scenarios",
    "report": "report",
    "migrate-store": "store",
    "cache": "store",
    "ingest": "ingest",
    "update": "pipeline",
    "watch": "ingest",
    "soak": "ingest",
    "fsck": "pipeline",
}

#: Names importable as ``repro.cli.<name>`` (the benchmark harness and the
#: tests do), with the module that defines each; resolved on first use so a
#: bare ``import repro.cli`` stays parser + dispatch.
_EXPORTS = {
    "Dataset": "dataset",
    "ensure_store": "dataset",
    "load_or_generate": "dataset",
    "_load_cache_meta": "dataset",
    "_report_to_dict": "report",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Revisiting Transactional Statistics of "
            "High-scalability Blockchains' (IMC 2020)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the registered scenarios")

    scenario = commands.add_parser(
        "scenario", help="show one scenario's configuration and scale factors"
    )
    scenario.add_argument("name", help="registered scenario name")
    scenario.add_argument("--seed", type=int, default=7)

    def dataset_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--scale",
            default="small",
            help="registered scenario name (default: small)",
        )
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument(
            "--cache",
            default=None,
            metavar="DIR",
            help="dataset cache root; repeat runs skip workload generation",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "worker processes; more than 1 runs a chunk scan of more than "
                "one chunk in a pool (default 0 = in-process)"
            ),
        )
        sub.add_argument(
            "--gen-workers",
            type=int,
            default=None,
            help=(
                "worker processes for window-sharded dataset generation "
                "(default: one per core; content is worker-count independent)"
            ),
        )

    report = commands.add_parser(
        "report", help="generate (or load) a dataset and print the paper report"
    )
    dataset_flags(report)
    report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    # Every report is out-of-core now; the flag is still accepted (and does
    # nothing) because existing scripts pass it.
    report.add_argument("--out-of-core", action="store_true", help=argparse.SUPPRESS)
    report.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "this report neither reads nor writes the chunk-state aggregate "
            "cache (by default memoized per-chunk states in cache/ beside the "
            "store's chunks — written by the build or a chunk's first scan — "
            "are folded, making repeat reports O(new data))"
        ),
    )

    def pipeline_flags(sub: argparse.ArgumentParser, with_stream: bool) -> None:
        sub.add_argument(
            "--data",
            required=True,
            metavar="DIR",
            help="pipeline directory (created on first use)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=0,
            help=(
                "worker processes; more than 1 runs an update scan of more "
                "than one chunk in a pool (0/1 = in-process)"
            ),
        )
        if with_stream:
            sub.add_argument(
                "--scale",
                default=None,
                help="scenario to stream (default: live_tail; pinned after first use)",
            )
            sub.add_argument("--seed", type=int, default=None)
            sub.add_argument(
                "--batch-hours",
                type=float,
                default=None,
                help="virtual hours per ingestion batch (default 6)",
            )
            sub.add_argument(
                "--batches",
                type=int,
                default=None,
                help="number of batches to process (default: all remaining)",
            )

    migrate = commands.add_parser(
        "migrate-store",
        help="rewrite a frame store's legacy-format chunks to the current format",
    )
    migrate.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )

    ingest = commands.add_parser(
        "ingest",
        help="append the next timed block batches to a pipeline directory",
    )
    pipeline_flags(ingest, with_stream=True)

    update = commands.add_parser(
        "update",
        help="refresh every figure incrementally from the checkpoint watermark",
    )
    pipeline_flags(update, with_stream=False)
    update.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )

    watch = commands.add_parser(
        "watch",
        help="live loop: ingest a batch, update the figures, repeat",
    )
    pipeline_flags(watch, with_stream=True)

    soak = commands.add_parser(
        "soak",
        help=(
            "drive ingest+update through simulated days under a deterministic "
            "fault plan, then gate identity, fsck and memory flatness"
        ),
    )
    soak.add_argument(
        "--data",
        required=True,
        metavar="DIR",
        help="pipeline directory for the soak (oracle run uses DIR.oracle)",
    )
    soak.add_argument("--days", type=int, default=50, help="simulated days (default 50)")
    soak.add_argument(
        "--scale",
        default="small",
        help="registered scenario name (default: small)",
    )
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault plan spec, e.g. "
            "'seed=1;crawler.fetch:mode=rate_limit:p=0.05;"
            "store.chunk_write:mode=torn:nth=3' (default: $REPRO_FAULTS)"
        ),
    )
    soak.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for update scans (0/1 = serial)",
    )
    soak.add_argument(
        "--chunk-rows",
        type=int,
        default=2_000,
        help="store chunk size; small keeps durability boundaries frequent",
    )
    soak.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the fault-free oracle run and its identity/row gates",
    )
    soak.add_argument(
        "--events",
        default=None,
        metavar="FILE",
        help="write the byte-reproducible fault event log to FILE",
    )
    soak.add_argument(
        "--json", action="store_true", help="emit the soak result as JSON"
    )

    cache = commands.add_parser(
        "cache",
        help="inspect or clear a store's chunk-state aggregate cache",
    )
    cache.add_argument(
        "action",
        choices=("stat", "clear"),
        help="stat: entry count and bytes; clear: remove every entry",
    )
    cache.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )
    cache.add_argument(
        "--json", action="store_true", help="emit the cache stats as JSON"
    )

    fsck = commands.add_parser(
        "fsck",
        help="verify a store/pipeline directory's chunks, manifest and checkpoint",
    )
    fsck.add_argument(
        "directory",
        help="frame-store directory (or a pipeline --data directory)",
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine damaged files into quarantine/ and rewrite the manifest",
    )
    fsck.add_argument(
        "--json", action="store_true", help="emit the fsck report as JSON"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    # One OpenBLAS thread unless the caller chose a count: no source calls
    # BLAS, and the second thread only spins (docs/architecture.md).
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    module = importlib.import_module(f"{__name__}.{_COMMANDS[args.command]}")
    command = getattr(module, "cmd_" + args.command.replace("-", "_"))
    try:
        return command(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
