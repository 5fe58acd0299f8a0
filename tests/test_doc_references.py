"""Every code reference in the docs resolves.

The docs name code two ways: ``path::name`` (``cli/report.py::cmd_report``,
``tests/pipeline/test_update.py::TestFallbacks``) and dotted module paths
(``repro.analysis.report.FIGURES``).  A rename or a deletion that leaves
such a reference behind fails here, naming the document and the reference.
"""

from __future__ import annotations

import ast
import fnmatch
import glob
import importlib
import importlib.util
import os
import re
from typing import List, Optional

import pytest

from tests.support import SRC

ROOT = os.path.dirname(SRC)

DOCUMENTS = sorted(
    os.path.relpath(path, ROOT) for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))
) + [
    "README.md",
    os.path.join("bench", "README.md"),
    os.path.join(".claude", "skills", "verify", "SKILL.md"),
]

#: ``path.py::name[::name...]``; a reference may wrap after a ``::``.
PATH_REFERENCE = re.compile(r"([\w./-]+\.py)::\s*([\w.]+(?:::[\w.]+)*)")
#: ``repro.x.y``; a ``*`` segment matches by glob.
DOTTED_REFERENCE = re.compile(r"\brepro(?:\.[A-Za-z_*][\w*]*)+")


def _read(document: str) -> str:
    with open(os.path.join(ROOT, document), encoding="utf-8") as handle:
        return handle.read()


def _source_path(path: str) -> Optional[str]:
    """The file a doc's path names: from the repo root, from ``src/repro/``,
    or a bare file name found once under ``tests/``, ``benchmarks/`` or ``bench/``."""
    for base in (ROOT, os.path.join(SRC, "repro")):
        candidate = os.path.join(base, path)
        if os.path.isfile(candidate):
            return candidate
    if "/" not in path:
        found = [
            match
            for tree in ("tests", "benchmarks", "bench")
            for match in glob.glob(os.path.join(ROOT, tree, "**", path), recursive=True)
        ]
        if len(found) == 1:
            return found[0]
    return None


def _defines(body: List[ast.stmt], name: str) -> Optional[ast.AST]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == name for target in targets):
                return node
    return None


def path_reference_resolves(path: str, names: str) -> bool:
    """Whether ``path`` defines ``names`` (``A::b`` or ``A.b``: ``b`` inside ``A``)."""
    source = _source_path(path)
    if source is None:
        return False
    with open(source, encoding="utf-8") as handle:
        node: Optional[ast.AST] = ast.parse(handle.read(), filename=source)
    for name in re.split(r"::|\.", names):
        node = _defines(getattr(node, "body", []), name)
        if node is None:
            return False
    return True


def dotted_reference_resolves(reference: str) -> bool:
    """Whether ``repro.x.y`` names a module or an attribute of one."""
    head, *segments = reference.split(".")
    targets = [importlib.import_module(head)]
    for segment in segments:
        package = targets[0] if len(targets) == 1 else None
        if (
            hasattr(package, "__path__")
            and "*" not in segment
            and importlib.util.find_spec(f"{package.__name__}.{segment}")
        ):
            targets = [importlib.import_module(f"{package.__name__}.{segment}")]
            continue
        targets = [
            getattr(target, name)
            for target in targets
            for name in (fnmatch.filter(dir(target), segment) if "*" in segment else [segment])
            if hasattr(target, name)
        ]
        if not targets:
            return False
    return True


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_path_reference_resolves(document):
    unresolved = [
        f"{path}::{names}"
        for path, names in PATH_REFERENCE.findall(_read(document))
        if not path_reference_resolves(path, names)
    ]
    assert unresolved == []


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_dotted_reference_resolves(document):
    unresolved = [
        reference
        for reference in sorted(set(DOTTED_REFERENCE.findall(_read(document))))
        if not dotted_reference_resolves(reference)
    ]
    assert unresolved == []


def test_the_documents_carry_references_of_both_kinds():
    text = "".join(_read(document) for document in DOCUMENTS)
    assert len(PATH_REFERENCE.findall(text)) >= 5
    assert len(set(DOTTED_REFERENCE.findall(text))) >= 40


def test_the_resolvers_reject_what_is_not_there():
    assert path_reference_resolves("cli/report.py", "cmd_report")
    assert path_reference_resolves("tests/pipeline/test_update.py", "TestFallbacks")
    assert path_reference_resolves("common/columns.py", "TxFrame.from_records")
    assert not path_reference_resolves("cli/report.py", "cmd_missing")
    assert not path_reference_resolves("common/columns.py", "TxFrame.missing")
    assert not path_reference_resolves("cli/missing.py", "cmd_report")
    assert dotted_reference_resolves("repro.analysis.report.FIGURES")
    assert dotted_reference_resolves("repro.analysis.report.*_figure3_key_columns")
    assert dotted_reference_resolves("repro.cli.load_or_generate")
    assert not dotted_reference_resolves("repro.common.columns.TxFrame.missing")
    assert not dotted_reference_resolves("repro.analysis.report.*_missing")
    assert PATH_REFERENCE.findall("`test_x.py::\n  test_y`") == [("test_x.py", "test_y")]
