"""Every definition in ``src/`` is reached from ``src/``, or is listed by name.

A function, class or method that nothing under ``src/repro/`` references
outside its own lines exists only for the tests, benchmarks and examples
that call it.  The scan below walks every package and flags those
definitions; each one it flags must sit on exactly one of three lists, and a
list only shrinks:

* :data:`ENTRY_POINTS` — the library's front door, called by ``examples/``
  by design;
* :data:`BENCH_HELD` — names only the benchmark harness under ``bench/``
  still needs; they leave with the harness's next change (ROADMAP H);
* :data:`OWED` — per package, what a ROADMAP item will wire into a figure
  or an oracle, with the item's letter.

What counts as a reference: a name read, an attribute, or a name imported
from a module.  A method is matched by name alone.  Dunders are exempt; a
``cmd_<name>`` is reached through the CLI's ``_COMMANDS`` table; a definition
decorated by a function ``src/`` defines (``@register_scenario(...)``) is
reached through that registration.  No other string is a reference: an
``__all__`` entry or a key of ``_EXPORTS`` / ``_ON_FIRST_USE`` reaches
nothing.  An entry leaves its list in the change that wires its name into
``src/`` or deletes it.
"""

from __future__ import annotations

import ast
import glob
import os
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from tests.support import SRC

PACKAGE = os.path.join(SRC, "repro")

#: The library's front door: called from ``examples/``, not from ``src/``.
ENTRY_POINTS: Dict[str, str] = {
    "full_report": "the in-memory report over a frame or view; the CLI reports from a store",
    "TxFrame.from_records": "builds a frame from any record stream",
    "iter_transactions": "flattens generated blocks into records",
    "CompressionStats.ratio": "the compression ratio examples/streaming_engine.py prints",
    "SummaryReport.to_rows": "the summary as rows, which the examples compare across routes",
    "EosWorkloadGenerator.generate": "materialises the EOS window for RPC serving",
    "TezosWorkloadGenerator.generate": "materialises the Tezos window for RPC serving",
    "XrpWorkloadGenerator.generate": "materialises the XRP window for RPC serving",
}

#: Names only ``bench/`` needs; they go with the harness's next change (H).
BENCH_HELD: Dict[str, str] = {
    "FrameStore.add_frame": "bench/run.py writes a resident frame into a store",
    "active_backend": "bench/run.py records the kernel backend",
    "load_or_generate": "bench/run.py imports it through repro.cli",
    "_report_to_dict": "bench/benchenv.py imports it through repro.cli",
}

_S_UNREPORTED = "S: an accumulator no report runs; becomes a FigureSpec or goes"
_S_DERIVED = "S: derives a number from one accumulator's result; joins that figure's spec"
_S_RECORDS = "S: walks records, the order book or vote events, not a frame"
_E_GETTER = "E: a derived getter the paper-fidelity scorecard reads"

#: Per package: what a ROADMAP item still owes, name → the item and why.
OWED: Dict[str, Dict[str, str]] = {
    "analysis": {
        # S: accumulators with kernels and state that no FigureSpec builds.
        "AirdropAccumulator": _S_UNREPORTED,
        "ClusterCountsAccumulator": _S_UNREPORTED,
        "ContractBreakdownAccumulator": _S_UNREPORTED,
        "FailureCodeAccumulator": _S_UNREPORTED,
        "SenderCountsAccumulator": _S_UNREPORTED,
        "SenderReceiverPairsAccumulator": _S_UNREPORTED,
        # S: helpers over one accumulator's result.
        "relative_balance_change": _S_DERIVED,
        "scaled_tps": _S_DERIVED,
        "single_transaction_account_share": _S_DERIVED,
        "spike_ratio": _S_DERIVED,
        "traffic_concentration": _S_DERIVED,
        # S: entry points over records, the order book or the vote events.
        "analyze_congestion": _S_RECORDS,
        "analyze_governance": _S_RECORDS,
        "classify_eos_category": _S_RECORDS,
        "common_control_evidence": _S_RECORDS,
        "detect_self_dealing": _S_RECORDS,
        "figure9_series": _S_RECORDS,
        "iou_rate_table": _S_RECORDS,
        "rate_history": _S_RECORDS,
        "shared_destination_tags": _S_RECORDS,
        # E: getters over a figure's result that only benchmarks/ assert on.
        "AccountActivity.top_type": _E_GETTER,
        "AirdropReport.dominates_post_launch_traffic": _E_GETTER,
        "CongestionReport.cpu_price_increase": _E_GETTER,
        "GovernanceReport.could_merge_periods": _E_GETTER,
        "GovernanceReport.exploration_unanimous": _E_GETTER,
        "IouRateRow.is_valueless": _E_GETTER,
        "PeriodSummary.nay_share": _E_GETTER,
        "ThroughputDecomposition.failed_share": _E_GETTER,
        "ThroughputDecomposition.offer_fill_fraction": _E_GETTER,
        "ThroughputDecomposition.value_bearing_payment_fraction": _E_GETTER,
        "ThroughputSeries.peak_bin": _E_GETTER,
        "ThroughputSeries.series_for": _E_GETTER,
        "ValueFlowReport.sender_share": _E_GETTER,
        "ValueFlowReport.top_currencies": _E_GETTER,
        "ValueFlowReport.top_sender_concentration": _E_GETTER,
        "WashTradingReport.is_wash_trading_suspected": _E_GETTER,
    },
    "collection": {
        "characterize_dataset": "S: Figure 2, from the manifest's per-chunk stats",
        "DatasetCharacterization.to_row": "S: Figure 2's row",
    },
    "eos": {
        "DexContract.self_trade_fraction": "I: the planted wash-trading share, an oracle",
        "EosChain.rejected_transactions": "E: the §4.1 congestion rejections",
    },
    "tezos": {
        "TezosWorkloadGenerator.generate_babylon_votes": "S: Figure 9's vote events",
    },
    "xrp": {
        "OrderBook.fill_fraction": "T: the offer fill share, from the rows",
        "XrpAccountRegistry.descendants": "I: the planted activation tree, an oracle",
    },
}


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _references(tree: ast.AST) -> Iterable[Tuple[str, int]]:
    """``(name, line)`` of every name a module reads, imports or attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _definitions(tree: ast.Module) -> Iterable[Tuple[str, ast.AST]]:
    """``(qualified name, node)`` of every top-level definition and method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield f"{node.name}.{member.name}", member


def _command_functions(sources: Dict[str, ast.Module]) -> Set[str]:
    """``cmd_<name>`` for every key of a ``_COMMANDS`` dict literal."""
    found = set()
    for tree in sources.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
                if "_COMMANDS" in names:
                    for key in node.value.keys:
                        found.add("cmd_" + ast.literal_eval(key).replace("-", "_"))
    return found


def _decorator_name(decorator: ast.expr) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def unreferenced(
    sources: Dict[str, ast.Module], scanned: Iterable[str]
) -> List[Tuple[str, str]]:
    """``(path, qualified name)`` of the ``scanned`` paths' definitions that no
    module in ``sources`` references outside the definition's own lines."""
    references: Dict[str, Set[Tuple[str, int]]] = {}
    for path, tree in sources.items():
        for name, line in _references(tree):
            references.setdefault(name, set()).add((path, line))
    # A decorator the sources define registers what it decorates.
    registrars = {
        node.name
        for tree in sources.values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    commands = _command_functions(sources)
    found = []
    for path in scanned:
        for qualified, node in _definitions(sources[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in commands and "." not in qualified:
                continue
            if any(_decorator_name(deco) in registrars for deco in node.decorator_list):
                continue
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in references.get(name, ())
            ):
                found.append((path, qualified))
    return found


def _package_of(path: str) -> str:
    return os.path.relpath(path, PACKAGE).split(os.sep)[0]


def _src_sources() -> Dict[str, ast.Module]:
    paths = glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)
    return {path: _parse(path) for path in sorted(paths)}


@lru_cache(maxsize=None)
def _unreached_by_package() -> Dict[str, FrozenSet[str]]:
    sources = _src_sources()
    by_package: Dict[str, Set[str]] = {}
    for path, name in unreferenced(sources, sources):
        by_package.setdefault(_package_of(path), set()).add(name)
    return {package: frozenset(names) for package, names in by_package.items()}


def _listed() -> Set[str]:
    owed = {name for names in OWED.values() for name in names}
    return owed | set(ENTRY_POINTS) | set(BENCH_HELD)


def test_every_definition_has_a_src_reference_or_is_listed():
    unlisted = {
        package: sorted(names - _listed())
        for package, names in _unreached_by_package().items()
        if names - _listed()
    }
    assert unlisted == {}


def test_every_listed_name_is_still_defined_and_still_unreached():
    """An entry leaves its list once ``src/`` references it or it is deleted."""
    unreached = set().union(*_unreached_by_package().values())
    assert sorted(_listed() - unreached) == []


def test_each_owed_name_is_filed_under_its_own_package():
    unreached = _unreached_by_package()
    misfiled = {
        name: package
        for package, names in OWED.items()
        for name in names
        if name not in unreached.get(package, set())
    }
    assert misfiled == {}


def test_no_name_sits_on_two_lists():
    lists = [set(ENTRY_POINTS), set(BENCH_HELD)] + [set(names) for names in OWED.values()]
    assert sum(map(len, lists)) == len(set().union(*lists))


# -- the scan itself, on toy modules ---------------------------------------------------
def _toy(**modules: str) -> Dict[str, ast.Module]:
    return {f"{name}.py": ast.parse(text) for name, text in modules.items()}


def _flagged(sources: Dict[str, ast.Module], path: str) -> List[str]:
    return [name for _, name in unreferenced(sources, [path])]


def test_the_scan_sees_a_self_call_and_spares_an_import_elsewhere():
    sources = _toy(
        a=(
            "def wrapper(rows):\n"
            "    return wrapper(rows[1:]) if rows else 0\n"
            "def used(): ...\n"
            "class Used: ...\n"
        ),
        b="from a import used\nimport a\nx = a.Used\n",
    )
    assert _flagged(sources, "a.py") == ["wrapper"]


def test_a_method_nothing_calls_is_flagged():
    sources = _toy(
        a=(
            "class Book:\n"
            "    def __len__(self): return 0\n"
            "    def place(self): return self.match()\n"
            "    def match(self): ...\n"
            "    def all_offers(self): ...\n"
            "    @property\n"
            "    def depth(self): ...\n"
        ),
        b="from a import Book\nBook().place()\n",
    )
    assert _flagged(sources, "a.py") == ["Book.all_offers", "Book.depth"]


def test_a_command_named_in_the_dispatch_table_is_reached():
    sources = _toy(
        cli='_COMMANDS = {"migrate-store": "store"}\n',
        store="def cmd_migrate_store(args, out): ...\ndef cmd_orphan(args, out): ...\n",
    )
    assert _flagged(sources, "store.py") == ["cmd_orphan"]


def test_a_name_only_an_exports_key_mentions_is_flagged():
    sources = _toy(
        cli='_EXPORTS = {"helper": "dataset", "used": "dataset"}\n',
        dataset="def helper(): ...\ndef used(): ...\n",
        report="from dataset import used\n",
    )
    assert _flagged(sources, "dataset.py") == ["helper"]


def test_a_name_only_all_mentions_is_flagged():
    sources = _toy(pkg='__all__ = ["helper"]\n', mod="def helper(): ...\n")
    assert _flagged(sources, "mod.py") == ["helper"]


def test_a_definition_a_src_decorator_registers_is_reached():
    sources = _toy(
        registry=(
            "def register(name):\n"
            "    return lambda function: function\n"
            '@register("live")\n'
            "def live(): ...\n"
            "@lru_cache\n"
            "def cached(): ...\n"
            "register(1)\n"
        ),
    )
    assert _flagged(sources, "registry.py") == ["cached"]
