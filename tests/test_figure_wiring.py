"""A figure is named in its own module and in the ``FIGURES`` table only.

``repro.analysis.report.FIGURES`` is the one place figures are listed; the
execution, caching, checkpoint and CLI layers walk it (or the accumulators it
built) and never spell a figure's name.  This walks the sources so a
hand-wired seventh place cannot creep back in — north-star 2's "add a
figure = add one module".
"""

from __future__ import annotations

import ast
import glob
import inspect
import os

from repro.analysis.report import FIGURES, ChainFigures, figure_accumulators

from tests.support import SRC

REPRO = os.path.join(SRC, "repro")


def _sources(*patterns: str):
    for pattern in patterns:
        paths = sorted(glob.glob(os.path.join(REPRO, pattern), recursive=True))
        assert paths, pattern
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                yield os.path.relpath(path, REPRO), ast.parse(handle.read())


def test_no_layer_outside_the_table_spells_a_figure_name():
    names = {spec.name for spec in FIGURES} | {
        spec.json_key for spec in FIGURES if spec.json_key
    }
    hits = [
        (path, node.value)
        for path, tree in _sources(
            "cli/*.py", "pipeline/*.py", "analysis/parallel.py", "analysis/statecache.py"
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert hits == []


def test_engine_results_are_built_in_exactly_two_places():
    """``AnalysisEngine.run`` and ``ChainFigures.from_accumulators``."""
    sites = [
        path
        for path, tree in _sources("**/*.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "EngineResult"
    ]
    assert sites == ["analysis/engine.py", "analysis/report.py"]


def test_the_report_types_carry_no_per_figure_wiring():
    # No per-figure field: a chain's figures are ``chain`` + the result map.
    assert list(ChainFigures.__slots__) == [
        "chain",
        "result",
    ]
    # No chain ladder: which chains a figure covers is its spec's business.
    source = inspect.getsource(figure_accumulators)
    assert "chain is" not in source and "ChainId." not in source
