"""No module in ``src/repro`` imports a name it never uses.

A stale import hides a dead dependency: the reader cannot tell which
module a name really comes from, and the importing module drags in
code it never calls.  This suite parses every module under
``src/repro`` (``__init__.py`` re-exports are exempt) and fails on any
module-level import whose bound name is never read — counting reads in
string annotations — unless the name is in the module's ``__all__`` or
the import line is marked ``# noqa: F401`` (the lookup sites a
tracer wraps).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Set

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names read inside a string annotation such as ``"List[Foo]"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def _used_names(tree: ast.Module) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def unused_imports(path: Path) -> List[str]:
    """``"<line>: <name>"`` for each unused module-level import."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    keep = _used_names(tree) | _exported(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(
            "# noqa: F401" in line
            for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in keep:
                found.append(f"{node.lineno}: {name}")
    return found


def test_src_has_no_unused_imports():
    modules = sorted(
        p for p in SRC.rglob("*.py") if p.name != "__init__.py"
    )
    assert modules
    stale = {
        str(p.relative_to(SRC)): names
        for p in modules
        if (names := unused_imports(p))
    }
    assert stale == {}


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from typing import List, Sequence, Tuple\n"
        "import numpy as np\n"
        "from os import path  # noqa: F401\n"
        "__all__ = ['Tuple']\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(module) == ["1: List", "2: np"]
