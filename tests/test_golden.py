"""Byte-for-byte golden reports: the guard for refactors that keep behaviour.

Each case is the argv of one ``pcflab`` run, its exit code and the report
file it must write.  The goldens live in ``tests/golden/`` next to the map
files they use; map-file runs start in that directory, so a report's
``source`` field is the bare file name.

The goldens pin today's reports, findings included.  Every periodic golden
is also certified by its count: a run that no longer finds and certifies
all its points fails under its own name before the bytes are compared.

The grid goldens pin the ``fatou --out`` CSV and PGM bytes of one window
per map: squaring-p2 inside the basin of (0 : 0 : 1), Sym^2 straddling the
basin boundary near (1, 1), where one pixel stays unlabeled for the whole
iteration budget, and squaring-p1 across the unit circle.

After a deliberate report change, regenerate with
``PYTHONPATH=src python tests/test_golden.py``, which prints the golden
files whose bytes changed and, for a JSON report, each changed field path
with list indices collapsed and its count, such as
``periodic-2-sym2.json: .periodic.points[].residual ×1``; name every
changed field in the change log.
"""

import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from pcflab import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# (golden report file, argv without --report, exit code)
CASES = (
    ("analyze-squaring-p1.json", ["analyze", "catalog:squaring-p1"], 0),
    ("analyze-squaring-p2.json", ["analyze", "catalog:squaring-p2"], 0),
    ("analyze-fs-1992-a.json", ["analyze", "catalog:fs-1992-a"], 0),
    # adj(A) o fs-1992-a o A for A = [[2,-1,1],[1,3,-2],[-1,1,2]]: dense,
    # so the coefficient heights exercise rational-root factor candidates.
    ("analyze-fs-1992-a-conj.json", ["analyze", "fs-1992-a-conj.json"], 0),
    # Sym^2 of squaring, (x^2 : y^2 - 2xz : z^2): the only input with a
    # non-linear post-critical component (the conic 4xz - y^2).
    ("analyze-sym2.json", ["analyze", "sym2.json"], 0),
    ("periodic-1-squaring-p2.json",
     ["periodic", "catalog:squaring-p2", "--period", "1"], 0),
    ("periodic-1-fs-1992-a.json",
     ["periodic", "catalog:fs-1992-a", "--period", "1"], 0),
    ("periodic-2-fs-1992-a.json",
     ["periodic", "catalog:fs-1992-a", "--period", "2"], 0),
    # Its eliminant has a degree-64 piece, the largest root finding any
    # catalog command does.
    ("periodic-3-fs-1992-a.json",
     ["periodic", "catalog:fs-1992-a", "--period", "3"], 0),
    # Its fibers have zero constant terms, so roots at 0 come up.
    ("periodic-2-squaring-p2.json",
     ["periodic", "catalog:squaring-p2", "--period", "2"], 0),
    ("periodic-2-sym2.json", ["periodic", "sym2.json", "--period", "2"], 0),
    ("periodic-3-squaring-p1.json",
     ["periodic", "catalog:squaring-p1", "--period", "3"], 0),
    ("fatou-squaring-p2.json",
     ["fatou", "catalog:squaring-p2", "--grid", "16", "--radius", "0.9"], 0),
    # Its candidates come from the conic 4xz - y^2 meeting the lines, the
    # one non-linear pair among the catalog's intersection solves.
    ("fatou-sym2.json", ["fatou", "sym2.json", "--grid", "16"], 0),
    # Sym^2 of Newton's map for z^2 - 2, (4xz : 4xy + 2yz : 4x^2 - 4xz +
    # 2y^2 + z^2): its transversality evidence and its fatou candidates
    # are irrational points.
    ("analyze-sym2-newton.json", ["analyze", "sym2-newton.json"], 0),
    ("fatou-sym2-newton.json",
     ["fatou", "sym2-newton.json", "--grid", "16", "--radius", "0.9"], 0),
    # Newton's map for z^2 - 2 on P^1, (s^2 + 2t^2 : 2st): its candidates
    # are the irrational fixed points (+-sqrt 2 : 1).
    ("fatou-newton-p1.json", ["fatou", "newton-p1.json", "--grid", "16"], 0),
    # Below the default 256 bits, so a tolerance built at the wrong
    # precision shows.
    ("periodic-2-sym2-128.json",
     ["periodic", "sym2.json", "--period", "2", "--precision", "128"], 0),
    ("analyze-fs-1992-a-conj-128.json",
     ["analyze", "fs-1992-a-conj.json", "--precision", "128"], 0),
    # At 64 bits dedup is 10^-8, so the merges compare points far from the
    # exact ones at the default precision.
    ("periodic-2-fs-1992-a-64.json",
     ["periodic", "catalog:fs-1992-a", "--period", "2", "--precision", "64"], 0),
)

# (golden grid prefix, fatou argv without --out): PREFIX.csv and PREFIX.pgm
GRID_CASES = (
    ("fatou-grid-squaring-p2-inside",
     ["fatou", "catalog:squaring-p2", "--center=0.0213,-0.0377",
      "--radius", "0.9", "--grid", "16"]),
    ("fatou-grid-sym2-straddle",
     ["fatou", "sym2.json", "--center=1.017,1.017", "--radius", "0.5",
      "--grid", "16"]),
    ("fatou-grid-squaring-p1",
     ["fatou", "catalog:squaring-p1", "--center=0.1+0.05j", "--radius", "1.2",
      "--grid", "16"]),
)
GRID_SUFFIXES = (".csv", ".pgm")


def _run(argv, report_path) -> int:
    cwd = os.getcwd()
    os.chdir(GOLDEN_DIR)
    try:
        return cli.main(argv + ["--report", str(report_path)])
    finally:
        os.chdir(cwd)


def _assert_certified(report):
    """Every period's count certifies its points: expected, distinct and
    weighted agree, and every point has multiplicity 1."""
    periodic = report["periodic"]
    for row in periodic["bezout"]:
        assert row["expected"] == row["distinct"] == row["weighted"], row
        assert row["ok"], row
    for point in periodic["points"]:
        assert point["multiplicity"] == 1, point["point"]


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(golden, argv, code, tmp_path):
    out = tmp_path / golden
    assert _run(argv, out) == code
    if argv[0] == "periodic":
        _assert_certified(json.loads(out.read_text(encoding="utf-8")))
    assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("prefix,argv", GRID_CASES, ids=[c[0] for c in GRID_CASES])
def test_grid_files_match_golden(prefix, argv, tmp_path):
    out = tmp_path / prefix
    assert _run(argv + ["--out", str(out)], tmp_path / "report.json") == 0
    for suffix in GRID_SUFFIXES:
        got = Path(str(out) + suffix).read_bytes()
        assert got == (GOLDEN_DIR / (prefix + suffix)).read_bytes(), suffix


def _read(name):
    path = GOLDEN_DIR / name
    return path.read_bytes() if path.exists() else None


def changed_fields(before, after, path="") -> Counter:
    """The paths of the leaves that differ between two JSON values, list
    indices collapsed to ``[]``, with how often each differs."""
    if isinstance(before, dict) and isinstance(after, dict):
        return sum((changed_fields(before.get(k), after.get(k), f"{path}.{k}")
                    for k in dict.fromkeys([*before, *after])), Counter())
    if (isinstance(before, list) and isinstance(after, list)
            and len(before) == len(after)):
        return sum((changed_fields(b, a, path + "[]") for b, a in zip(before, after)),
                   Counter())
    return Counter({path: 1}) if before != after else Counter()


if __name__ == "__main__":
    # (files a run writes, argv, report path, expected exit code)
    runs = [([golden], argv, GOLDEN_DIR / golden, code)
            for golden, argv, code in CASES]
    tmp = tempfile.TemporaryDirectory()
    runs += [([prefix + suffix for suffix in GRID_SUFFIXES],
              argv + ["--out", str(GOLDEN_DIR / prefix)],
              Path(tmp.name) / "report.json", 0)
             for prefix, argv in GRID_CASES]
    changed = []
    with tmp:
        for names, argv, report, code in runs:
            before = [_read(n) for n in names]
            got = _run(argv, report)
            if got != code:
                sys.exit(f"{names[0]}: exit {got}, expected {code}")
            changed += [(n, b) for n, b in zip(names, before) if _read(n) != b]
    print("changed goldens:", ", ".join(n for n, _b in changed) if changed else "none")
    for name, before in changed:
        if name.endswith(".json") and before is not None:
            fields = changed_fields(json.loads(before), json.loads(_read(name)))
            print(f"{name}: " + ", ".join(f"{k} ×{v}" for k, v in sorted(fields.items())))
