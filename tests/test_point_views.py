"""An irrational point has one value in the package, a ``numeric.Point``.

Arithmetic reads its fixed coordinates and printing its rounded parts, so
an mpc is built only where a number is printed and where multipliers are
computed and classified.  This test walks ``src/pcflab/*.py`` with ``ast``
and lists every call that builds an mpc (``mpmath.mpc(...)``,
``make_mpc(...)``) or asks for the removed ``mpc_from`` view outside the
places listed in ALLOWED.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcflab"

# (module file, enclosing function), None for anywhere in the module
ALLOWED = {
    ("numeric.py", "format_point"),
    ("cli.py", None),
    ("periodic.py", "_eigenvalues"),
    ("periodic.py", "classify"),
}


def _builds_mpc(func) -> bool:
    """Whether a call's target is mpmath's mpc, make_mpc or mpc_from."""
    if isinstance(func, ast.Name):
        return func.id in ("mpc", "make_mpc", "mpc_from")
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("make_mpc", "mpc_from"):
        return True
    base = func.value
    while isinstance(base, ast.Attribute):
        base = base.value
    return func.attr == "mpc" and isinstance(base, ast.Name) and base.id == "mpmath"


def _mpc_calls(path: Path) -> list:
    """``file:line in function`` for each mpc-building call outside ALLOWED."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and _builds_mpc(node.func)
                and (path.name, None) not in ALLOWED and (path.name, function) not in ALLOWED):
            found.append(f"{path.name}:{node.lineno} in {function or 'the module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_mpc_is_built_only_where_allowed():
    calls = [c for p in sorted(SRC.glob("*.py")) for c in _mpc_calls(p)]
    assert calls == [], "\n".join(calls)


def test_guard_sees_each_kind_of_call(tmp_path):
    sample = tmp_path / "periodic.py"
    sample.write_text(
        "import mpmath\n"
        "def classify(v):\n    return mpmath.mpc(v)\n"
        "def walk(v):\n    return mpmath.mpc(v)\n"
        "def key(v):\n    return mpmath.mp.make_mpc(v)\n"
        "x = numeric.mpc_from(1)\n")
    assert _mpc_calls(sample) == [
        "periodic.py:5 in walk", "periodic.py:7 in key", "periodic.py:8 in the module"]
