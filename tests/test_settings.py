"""The settings of the package: every parameter and record field with a default.

A default is a setting that a caller may vary.  One that every caller
leaves alone is a constant in disguise, and one added quietly grows the
space of runs that no test covers.  This test walks ``src/pcflab/*.py``
with ``ast`` and pins the full list, so that adding or removing a setting
is a visible one-line edit here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcflab"

SETTINGS = [
    "cli.main(argv)",
    "fatou.ScanConfig.candidates",
    "fatou.ScanConfig.max_iters",
    "fatou.ScanConfig.tol",
    "fatou._near_expr(known)",
    "fatou.superattracting_candidates(precision)",
    "numeric.Tolerances.formulas",
    "numeric.fixed(bound)",
    "numeric.resolve_precision(precision)",
    "pcf.PcfVerdict.reason",
    "pcf.TowerEntry.graph",
    "pcf.TransversalityReport.witness",
    "pcf.build_tower(max_degree)",
    "pcf.build_tower(max_iter)",
    "pcf.postcritical_graph(max_degree)",
    "pcf.postcritical_graph(max_iter)",
    "pcf.weak_transversality(precision)",
    "periodic.EigenClass.root_order",
    "periodic.PeriodicPoint.orbit",
    "periodic._fixed_point_candidates_p2(failed)",
    "periodic.bezout_audit(points)",
    "periodic.bezout_audit(precision)",
    "periodic.eigenvalue_audit(points)",
    "periodic.eigenvalue_audit(precision)",
    "periodic.find_periodic(failed)",
    "periodic.find_periodic(precision)",
    "periodic.multipliers(orbit)",
    "periodic.multipliers(precision)",
    "poly.monomial(coeff)",
    "projmap.ValidationResult.reduced",
    "projmap.ValidationResult.witness",
    "projmap.validate(precision)",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _settings(path: Path) -> list:
    """``module.function(param)`` and ``module.Record.field`` for each default."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out += [f"{path.stem}.{node.name}({p.arg})" for p in named]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [f"{path.stem}.{node.name}.{st.target.id}" for st in node.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None
                    and not ast.unparse(st.annotation).startswith("ClassVar")]
    return out


def test_settings_are_pinned():
    found = sorted(s for p in sorted(SRC.glob("*.py")) for s in _settings(p))
    assert found == sorted(SETTINGS)


def test_guard_sees_each_kind_of_default(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "def f(a, b=1, *, c, d=2):\n    pass\n"
        "@dataclass(frozen=True)\n"
        "class R:\n    x: int\n    y: int = 0\n    z: ClassVar[int] = 1\n")
    assert _settings(sample) == ["sample.f(b)", "sample.f(d)", "sample.R.y"]
