"""A file is committed one way, and a JSON document is read one way.

``repro.common.durable.commit`` (temp file, then one ``os.replace``) is the
only caller of ``os.replace`` in ``src/`` besides
:meth:`~repro.collection.store.FrameStore.assemble`, which moves shard chunk
files into the assembled store.  ``repro.common.durable.read_json`` is the
only caller of ``json.load``, and only the three document readers call it:
the store manifest's, the pipeline meta's and the dataset-cache meta's.
This walks the sources so a second commit site or a second parse of a
document cannot creep back.
"""

from __future__ import annotations

import ast
import glob
import os
from typing import List, Optional

from tests.support import SRC


def _sites(source: str, module: Optional[str], name: str) -> List[str]:
    """The scopes (``Class.method``) that call ``module.name`` — or the bare
    ``name`` when ``module`` is ``None`` — or import ``name`` from ``module``."""
    found: List[str] = []

    def visit(node: ast.AST, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope) or "<module>"
            if isinstance(child, ast.Call):
                func = child.func
                if module is None and isinstance(func, ast.Name) and func.id == name:
                    found.append(where)
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == name
                    and isinstance(func.value, ast.Name)
                    and func.value.id == module
                ):
                    found.append(where)
            elif isinstance(child, ast.ImportFrom) and module is not None:
                if child.module == module and any(alias.name == name for alias in child.names):
                    found.append(f"{where} imports {name}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def _src_sites(module: Optional[str], name: str) -> List[str]:
    root = os.path.join(SRC, "repro")
    sites = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        relative = os.path.relpath(path, SRC).replace(os.sep, "/")
        sites.extend(f"{relative}::{site}" for site in _sites(source, module, name))
    return sorted(sites)


def test_os_replace_is_the_commit_function_s_and_the_chunk_move_s_alone():
    assert _src_sites("os", "replace") == [
        "repro/collection/store.py::FrameStore.assemble",
        "repro/common/durable.py::commit",
    ]
    assert _src_sites("os", "rename") == []


def test_json_load_is_the_document_decode_s_alone():
    assert _src_sites("json", "load") == ["repro/common/durable.py::read_json"]


def test_each_document_has_one_reader():
    assert _src_sites(None, "read_json") == [
        "repro/cli/dataset.py::read_cache_meta",
        "repro/collection/store.py::read_manifest",
        "repro/pipeline/core.py::read_pipeline_meta",
    ]


def test_a_planted_commit_site_is_found():
    """The walk sees a second commit site, however it is spelled."""
    planted = (
        "import os\n"
        "from os import replace\n"
        "class Store:\n"
        "    def save(self):\n"
        "        os.replace(self.path + '.tmp', self.path)\n"
    )
    assert _sites(planted, "os", "replace") == ["<module> imports replace", "Store.save"]
