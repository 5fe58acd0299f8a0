"""No module or class body under ``src/`` binds a function or class twice.

A second ``def`` of the same name in one body silently replaces the first:
the first one's body and docstring still read as live code, but every
caller gets the second.  Property ``setter`` / ``deleter`` definitions are
the one sanctioned re-binding, so they are exempt.
"""

from __future__ import annotations

import ast
import glob
import os
from typing import List, Tuple

from tests.support import SRC

_EXEMPT_DECORATORS = ("setter", "deleter")


def _is_accessor(node: ast.AST) -> bool:
    return any(
        isinstance(decorator, ast.Attribute) and decorator.attr in _EXEMPT_DECORATORS
        for decorator in getattr(node, "decorator_list", ())
    )


def _rebound(body: List[ast.stmt], scope: str) -> List[Tuple[str, int]]:
    """``(qualified name, line)`` of every re-binding in ``body`` and the
    class bodies nested in it."""
    seen = set()
    hits = []
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name in seen and not _is_accessor(node):
            hits.append((f"{scope}{node.name}", node.lineno))
        seen.add(node.name)
        if isinstance(node, ast.ClassDef):
            hits.extend(_rebound(node.body, f"{scope}{node.name}."))
    return hits


def test_no_body_defines_the_same_name_twice():
    hits = []
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        relative = os.path.relpath(path, SRC)
        hits.extend(f"{relative}:{line} {name}" for name, line in _rebound(tree.body, ""))
    assert hits == []


def test_the_scan_sees_a_shadowed_method_and_spares_a_property_setter():
    source = (
        "class A:\n"
        "    @property\n"
        "    def x(self): ...\n"
        "    @x.setter\n"
        "    def x(self, value): ...\n"
        "    def f(self): ...\n"
        "    def f(self): ...\n"
    )
    assert _rebound(ast.parse(source).body, "") == [("A.f", 7)]
