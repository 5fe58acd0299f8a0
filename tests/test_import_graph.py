"""What a command imports follows from what it runs.

A ``python -m repro`` child over a populated cache is interpreter start-up
around a few hundred milliseconds of work, so every module it loads without
running is time a user waits for.  Each dynamic case runs
:func:`repro.cli.main` in a fresh interpreter and inspects ``sys.modules``;
the static case walks the analysis layer's sources so the layering rule that
keeps the simulators off its import graph cannot rot.
"""

from __future__ import annotations

import ast
import glob
import os
import re
from typing import Iterable, List

import pytest

from tests.support import SRC, ColdChild, run_child, run_main

#: The simulators proper: no analysis or store code imports one of these.
SIMULATORS = (
    "repro.eos.chain", "repro.eos.workload", "repro.eos.contracts", "repro.eos.rpc",
    "repro.tezos.chain", "repro.tezos.workload", "repro.tezos.rpc",
    "repro.xrp.ledger", "repro.xrp.workload", "repro.xrp.rpc",
)  # fmt: skip

#: What a report over a cached store has no use for.
NOT_FOR_A_WARM_REPORT = SIMULATORS + (
    "repro.scenarios",
    "repro.pipeline",
    "repro.cli.build",
    "repro.collection.generate",
    "repro.collection.crawler",
    "repro.collection.endpoints",
    "multiprocessing",
)

#: What a report that folds only cached states loads none of: its record
#: types are tuples or plain classes (no ``dataclasses``, which pulls in
#: ``inspect``), the throughput session token comes from ``os.urandom`` (no
#: ``uuid``), the chunk codec is imported where a chunk is coded, and the
#: state keys digest with CPython's built-in hash modules (no ``_hashlib``,
#: which maps OpenSSL's libcrypto).
NOT_FOR_AN_ALL_HIT_REPORT = (
    "numpy",
    "dataclasses",
    "uuid",
    "_hashlib",
    "repro.collection.chunkformat",
    "repro.common.rng",
    "repro.common.clock",
)

#: The chain packages, and the only modules under them the report path loads:
#: the package ``__init__``s (docstrings) and the EOS action taxonomy.
CHAIN_PACKAGES = ("repro.eos", "repro.tezos", "repro.xrp")
CHAIN_MODULES_ALLOWED = CHAIN_PACKAGES + ("repro.eos.actions",)

#: What ``update`` and ``fsck`` read a pipeline directory without.
NOT_FOR_A_PIPELINE_READ = SIMULATORS + ("repro.scenarios", "repro.collection.generate")

NOT_FOR_THE_REGISTRY = ("numpy", "repro.analysis", "repro.collection", "repro.pipeline")

#: What a build with one generation window and an in-process scan runs
#: without: it starts no pool, and it digests without OpenSSL.
NOT_FOR_A_SERIAL_BUILD = ("multiprocessing", "_hashlib")


def modules_after(argv: List[str]) -> List[str]:
    """``sys.modules`` of a fresh interpreter after ``repro.cli.main(argv)``."""
    return run_main(argv)[0]


def loaded(modules: Iterable[str], forbidden: Iterable[str]) -> List[str]:
    """The loaded modules that are, or live under, a forbidden package."""
    forbidden = tuple(forbidden)
    return [
        name
        for name in modules
        if any(name == root or name.startswith(root + ".") for root in forbidden)
    ]


@pytest.mark.parametrize(
    "flags", [[], ["--out-of-core", "--workers", "1"]], ids=["default", "out-of-core"]
)
def test_warm_report_loads_no_simulator_and_no_generation_layer(live_tail_cache, flags):
    argv = ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
    modules = modules_after(argv + flags)
    assert "repro.cli.report" in modules and "repro.collection.store" in modules
    assert loaded(modules, NOT_FOR_A_WARM_REPORT) == []


@pytest.mark.parametrize(
    "flags", [[], ["--out-of-core", "--workers", "1"]], ids=["default", "out-of-core"]
)
def test_all_hit_report_loads_no_numpy(live_tail_cache, flags):
    """Folding cached chunk states restores into fold targets and renders:
    nothing on that path calls a scan kernel, so numpy must stay unloaded."""
    argv = ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
    run_main(argv + flags)  # populates the state cache if no test did yet
    modules, stderr = run_main(argv + flags)
    assert "3 hit(s) / 0 miss(es)" in stderr
    assert loaded(modules, ["numpy"]) == []
    # The removed statistics-mode modules stay gone from the warm path.
    assert loaded(modules, ["repro.common.sketches", "repro.common.statsmode"]) == []


@pytest.mark.parametrize(
    "flags", [[], ["--out-of-core", "--workers", "1"]], ids=["default", "out-of-core"]
)
def test_all_hit_report_loads_no_dataclasses_codec_or_chain_module(live_tail_cache, flags):
    """An all-hit report's cost is interpreter start-up plus module bodies:
    it creates no dataclass and loads no simulator module for a constant."""
    argv = ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
    run_main(argv + flags)  # populates the state cache if no test did yet
    modules, stderr = run_main(argv + flags)
    assert "3 hit(s) / 0 miss(es)" in stderr
    assert loaded(modules, NOT_FOR_AN_ALL_HIT_REPORT) == []
    chain_modules = loaded(modules, CHAIN_PACKAGES)
    assert "repro.eos.actions" in chain_modules
    assert [name for name in chain_modules if name not in CHAIN_MODULES_ALLOWED] == []


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A ``live_tail`` pipeline directory with two ingested batches, and
    the ingesting child's ``sys.modules``."""
    data = str(tmp_path_factory.mktemp("import-graph") / "pipeline")
    modules, _ = run_main(["ingest", "--data", data, "--scale", "live_tail", "--batches", "2"])
    return ColdChild(data, modules)


@pytest.mark.parametrize("command", [["update", "--data"], ["fsck"]], ids=["update", "fsck"])
def test_pipeline_reads_load_no_simulator_and_no_scenario_registry(pipeline_dir, command):
    """``update`` and ``fsck`` read what ``ingest`` wrote: the live-tail and
    soak modules behind ``repro.pipeline`` resolve only when a name is used."""
    modules = modules_after(command + [pipeline_dir.path])
    assert "repro.pipeline.core" in modules
    assert loaded(modules, NOT_FOR_A_PIPELINE_READ) == []
    assert loaded(modules, ["repro.pipeline.live", "repro.pipeline.soak"]) == []


def test_a_serial_cold_build_loads_no_multiprocessing_and_no_openssl(live_tail_build):
    """``live_tail`` is one generation window: the sharded generator's pool
    is imported where it starts, and no digest goes through ``hashlib``."""
    modules = live_tail_build.modules
    assert "repro.cli.build" in modules and "repro.collection.generate" in modules
    assert loaded(modules, NOT_FOR_A_SERIAL_BUILD) == []


@pytest.mark.parametrize("command", ["miss", "ingest", "update", "fsck", "cache-stat"])
def test_no_command_loads_openssl(live_tail_cache, pipeline_dir, command):
    """The store's key chain and the state keys are the only digests, and
    :mod:`repro.common.digest` takes them from CPython's built-in modules."""
    argv = {
        "miss": ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
        + ["--out-of-core", "--no-cache", "--workers", "1"],
        "update": ["update", "--data", pipeline_dir.path],
        "fsck": ["fsck", pipeline_dir.path],
        "cache-stat": ["cache", "stat", os.path.join(live_tail_cache, "live_tail-seed7")],
    }
    modules = pipeline_dir.modules if command == "ingest" else modules_after(argv[command])
    assert "repro.common.digest" in modules
    assert loaded(modules, ["_hashlib"]) == []


def test_a_decoding_scan_loads_no_numpy_ma(live_tail_cache):
    """Plain ``np.unique(x)`` imports ``numpy.ma`` on numpy 2.x (≈14 CPU-ms):
    every miss leg — decode, remap, scan — must get by without it."""
    argv = ["report", "--scale", "live_tail", "--cache", live_tail_cache, "--json"]
    # ``--workers 1`` keeps the scan in this process (a pool would hide it).
    modules = modules_after(argv + ["--out-of-core", "--no-cache", "--workers", "1"])
    assert "repro.collection.chunkformat" in modules
    assert loaded(modules, ["numpy.ma"]) == []


@pytest.mark.parametrize("argv", [["list"], ["scenario", "live_tail"]], ids=["list", "scenario"])
def test_registry_commands_load_no_numpy_and_no_data_layer(argv):
    assert loaded(modules_after(argv), NOT_FOR_THE_REGISTRY) == []


def test_cache_stat_loads_no_simulator_scenario_or_pipeline(live_tail_cache):
    store_dir = os.path.join(live_tail_cache, "live_tail-seed7")
    modules = modules_after(["cache", "stat", store_dir])
    assert loaded(modules, SIMULATORS + ("repro.scenarios", "repro.pipeline")) == []


def test_bare_package_imports_load_nothing_else():
    """``import repro`` is the docstring; ``import repro.cli`` parser + dispatch."""
    snapshot = "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    done = run_child(["-c", f"import sys, repro; {snapshot}; import repro.cli; {snapshot}"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        str(["repro"]),
        str(["repro", "repro.cli", "repro.common", "repro.common.errors"]),
    ]


def _is_type_checking_block(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def test_analysis_and_store_sources_import_no_simulator():
    """Static twin of the rule: loading an analysis or store module loads
    nothing under a chain package but its ``__init__`` and ``eos.actions``.

    An import under ``if TYPE_CHECKING:`` is an annotation, never run.  A
    function that walks a simulator's own output (the Tezos vote events) may
    import that chain's data module at its call; a simulator proper is never
    imported, at module level or in a function."""
    chain_module = re.compile(r"^repro\.(eos|tezos|xrp)\.")
    simulator = re.compile(r"^repro\.(eos|tezos|xrp)\.(chain|ledger|workload|rpc)(\.|$)")
    package = os.path.join(SRC, "repro")
    paths = sorted(glob.glob(os.path.join(package, "analysis", "*.py")))
    paths += [os.path.join(package, "collection", name) for name in ("store.py", "chunkformat.py")]
    offenders = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        pending = [(node, False) for node in tree.body]
        while pending:
            node, in_function = pending.pop()
            if _is_type_checking_block(node):
                pending.extend((child, in_function) for child in node.orelse)
                continue
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                targets = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                inside = in_function or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                pending.extend((child, inside) for child in ast.iter_child_nodes(node))
                continue
            rule = simulator if in_function else chain_module
            offenders += [
                f"{os.path.relpath(path, SRC)}:{node.lineno} imports {target}"
                for target in targets
                if rule.match(target) and not target.startswith("repro.eos.actions")
            ]
    assert len(paths) > 10
    assert offenders == []


def test_no_chain_package_imports_another():
    """A chain package is one chain: what two chains share lives outside
    all three (``repro.common``, ``repro.collection``), never in one of them.

    Every import counts, at module level, in a function or under ``if
    TYPE_CHECKING:``; a relative import stays inside its own package."""
    offenders = []
    for package in CHAIN_PACKAGES:
        root = os.path.join(SRC, *package.split("."))
        for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    targets = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                offenders += [
                    f"{os.path.relpath(path, SRC)}:{node.lineno} imports {target}"
                    for target in targets
                    for other in CHAIN_PACKAGES
                    if other != package and (target == other or target.startswith(other + "."))
                ]
    assert offenders == []


def test_only_the_digest_helper_imports_hashlib():
    """Static twin of the OpenSSL rule: ``hashlib`` is the fallback of
    :mod:`repro.common.digest`, imported nowhere else in the package, so a
    command the dynamic cases do not run cannot load libcrypto either."""
    helper = os.path.join(SRC, "repro", "common", "digest.py")
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        if path == helper:
            continue
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                targets = [node.module]
            else:
                continue
            offenders += [
                f"{os.path.relpath(path, SRC)}:{node.lineno} imports {target}"
                for target in targets
                if target in ("hashlib", "_hashlib")
            ]
    assert offenders == []


def test_no_source_imports_numpy_at_module_level():
    """Static twin of the all-hit rule: numpy is imported by the function that
    scans, decodes or encodes rows, at the call — never when a module loads."""
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        pending = list(tree.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # a function body runs at its call, not at import
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                targets = [node.module]
            else:
                pending.extend(ast.iter_child_nodes(node))
                continue
            offenders += [
                f"{os.path.relpath(path, SRC)}:{node.lineno} imports {target}"
                for target in targets
                if target == "numpy" or target.startswith("numpy.")
            ]
    assert offenders == []


#: numpy's BLAS-backed entry points.  No source calls one, which is why
#: :func:`repro.cli.main` can give a CLI process a single OpenBLAS thread
#: without slowing a real computation.
BLAS_NAMES = frozenset(
    ("dot", "matmul", "einsum", "tensordot", "inner", "outer", "vdot", "linalg")
)


def test_no_source_calls_a_blas_routine():
    """No attribute access to a BLAS entry point (``np.dot``, ``x.dot``,
    ``np.linalg``), no ``@`` / ``@=``, and no import of one from numpy."""
    offenders = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        where = os.path.relpath(path, SRC)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                offenders.append(f"{where}:{node.lineno} uses .{node.attr}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult
            ):
                offenders.append(f"{where}:{node.lineno} uses @")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {node.module.split(".")[-1]} | {alias.name for alias in node.names}
                offenders += [
                    f"{where}:{node.lineno} imports {name} from {node.module}"
                    for name in sorted(names & BLAS_NAMES)
                ]
            elif isinstance(node, ast.Import):
                offenders += [
                    f"{where}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("numpy.linalg")
                ]
    assert offenders == []
