"""Partial states combine one way: by payload, through one function.

A figure's scanned state folds across row ranges with
``export_state`` → ``restore_state`` and nothing else; this walks the
sources so a second fold (an accumulator or container ``merge`` twin, or a
second driver in the chunk engine) cannot creep back.  The sketches under
``repro.common.sketches`` keep their ``merge`` — mergeability is their own
property, with its own suite, and they are not accumulators.
"""

from __future__ import annotations

import ast
import glob
import os

from tests.support import SRC


def _trees():
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "analysis", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            yield os.path.basename(path), ast.parse(handle.read())


def test_no_class_under_analysis_defines_merge():
    hits = [
        (name, node.name, item.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("merge", "_merge")
    ]
    assert hits == []


def test_the_chunk_engine_restores_state_in_one_function():
    (tree,) = (tree for name, tree in _trees() if name == "parallel.py")
    callers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "restore_state"
    ]
    assert callers == ["fold_states"]
