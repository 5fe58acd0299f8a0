"""Every analysis definition is reached from ``src/``, or is owed by name.

A figure has one way to be computed: its accumulator, run on a frame or read
from the report.  A top-level function or class under
``src/repro/analysis/`` that nothing in ``src/`` references outside its own
definition is a second API only tests, benchmarks and examples call.  The
ones that remain are listed in :data:`OWED`, each with what still has to
happen to it: it becomes a ``FigureSpec`` or part of one, or it goes.  An
entry leaves the list in the change that wires its name into ``src/`` or
deletes it.  :data:`ENTRY_POINTS` names the library's own front door, which
only code outside ``src/`` calls.
"""

from __future__ import annotations

import ast
import glob
import os
from typing import Dict, Iterable, List, Set, Tuple

from tests.support import SRC

ANALYSIS = os.path.join(SRC, "repro", "analysis")

_UNREPORTED = "an accumulator no report runs: becomes a FigureSpec or goes"
_DERIVED = "derives a number from one accumulator's result: joins that figure's spec"
_RECORDS = "walks records, the order book or vote events, not a frame"

#: What the report still owes: name → why it has no ``src/`` caller yet.
OWED: Dict[str, str] = {
    # Accumulators with kernels and state that no FigureSpec builds.
    "AirdropAccumulator": _UNREPORTED,
    "ClusterCountsAccumulator": _UNREPORTED,
    "ContractBreakdownAccumulator": _UNREPORTED,
    "FailureCodeAccumulator": _UNREPORTED,
    "SenderCountsAccumulator": _UNREPORTED,
    "SenderReceiverPairsAccumulator": _UNREPORTED,
    # Helpers over one accumulator's result.
    "relative_balance_change": _DERIVED,
    "scaled_tps": _DERIVED,
    "single_transaction_account_share": _DERIVED,
    "spike_ratio": _DERIVED,
    "traffic_concentration": _DERIVED,
    # Entry points over records, the order book or the vote events.
    "analyze_congestion": _RECORDS,
    "analyze_governance": _RECORDS,
    "classify_eos_category": _RECORDS,
    "common_control_evidence": _RECORDS,
    "detect_self_dealing": _RECORDS,
    "figure9_series": _RECORDS,
    "iou_rate_table": _RECORDS,
    "rate_history": _RECORDS,
    "shared_destination_tags": _RECORDS,
}


#: The library entry points: called from outside ``src/`` by design.
ENTRY_POINTS: Dict[str, str] = {
    "full_report": "the in-memory report over a frame or view; the CLI reports from a store",
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


def unreferenced(sources: Dict[str, ast.Module], scanned: Iterable[str]) -> List[str]:
    """Top-level definitions of the ``scanned`` paths that no module in
    ``sources`` references outside the definition's own lines."""
    references: Dict[str, Set[Tuple[str, int]]] = {}
    for path, tree in sources.items():
        for name, line in _references(tree):
            references.setdefault(name, set()).add((path, line))
    found = []
    for path in scanned:
        for node in sources[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = [
                (where, line)
                for where, line in references.get(node.name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                found.append(node.name)
    return found


def _src_sources() -> Dict[str, ast.Module]:
    paths = glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    return {path: _parse(path) for path in sorted(paths)}


def test_every_analysis_definition_has_a_src_caller_or_is_owed():
    sources = _src_sources()
    scanned = [path for path in sources if os.path.dirname(path) == ANALYSIS]
    assert sorted(set(unreferenced(sources, scanned)) - set(OWED) - set(ENTRY_POINTS)) == []


def test_every_owed_name_is_still_defined_and_still_unreferenced():
    """An entry leaves the list once ``src/`` calls it or it is deleted."""
    sources = _src_sources()
    scanned = [path for path in sources if os.path.dirname(path) == ANALYSIS]
    listed = set(OWED) | set(ENTRY_POINTS)
    assert sorted(listed - set(unreferenced(sources, scanned))) == []


def test_the_scan_sees_a_self_call_and_spares_an_import_elsewhere():
    sources = {
        "a.py": ast.parse(
            "def wrapper(rows):\n"
            "    return wrapper(rows[1:]) if rows else 0\n"
            "def used(): ...\n"
            "class Used: ...\n"
        ),
        "b.py": ast.parse("from a import used\nimport a\nx = a.Used\n"),
    }
    assert unreferenced(sources, ["a.py"]) == ["wrapper"]
