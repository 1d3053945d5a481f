"""No module of the package reaches into another module's private names.

A name with a leading underscore is internal to the module that defines it.
When a second module needs it, make it public or move it; this test walks
``src/pcflab/*.py`` with ``ast`` and lists every cross-module use.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcflab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_uses(path: Path, modules: set) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}  # local name -> sibling module it binds
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif node.module in modules and _private(a.name):
                    uses.append(f"{path.name}:{node.lineno} imports {node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            uses.append(f"{path.name}:{node.lineno} uses {aliases[node.value.id]}.{node.attr}")
    return uses


def test_no_cross_module_private_names():
    paths = sorted(SRC.glob("*.py"))
    modules = {p.stem for p in paths} - {"__init__"}
    uses = [u for p in paths for u in _cross_module_uses(p, modules)]
    assert uses == [], "\n".join(uses)


def test_guard_sees_a_private_use(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from . import poly\nfrom .numeric import _x\npoly._ladder(1, 2)\n")
    assert _cross_module_uses(sample, {"poly", "numeric"}) == [
        "sample.py:2 imports numeric._x", "sample.py:3 uses poly._ladder"]
