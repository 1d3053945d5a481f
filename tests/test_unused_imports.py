"""No module of the package imports a name that it never uses.

An unused import is dead weight that hides where a name is really needed.
This test walks ``src/pcflab/*.py`` with ``ast`` and lists every imported
name that no expression of its module reads; a name listed in the module's
``__all__`` counts as used, since it is imported to be exported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcflab"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported(tree)
    return [f"{path.name}:{line} imports {name}, which it never uses"
            for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    unused = [u for p in sorted(SRC.glob("*.py")) for u in _unused_imports(p)]
    assert unused == [], "\n".join(unused)


def test_guard_sees_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom . import poly\n"
        "from .poly import HomPoly, zero\n"
        "__all__ = ['zero']\n"
        "def f(p: HomPoly) -> int:\n    return poly.degree(p)\n")
    assert _unused_imports(sample) == [
        "sample.py:2 imports os, which it never uses",
        "sample.py:3 imports regex, which it never uses",
    ]
