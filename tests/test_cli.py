"""Command-line contract: parsing diagnostics, exit codes, report shape, files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import pcflab
from pcflab import catalog, cli, numeric, pcf, periodic, projmap

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    return code, json.loads(out), err


def _write_mapfile(tmp_path, data, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _squaring_mapfile():
    return catalog.to_mapfile(catalog.get("squaring-p2").map)


class TestParseDiagnostics:
    def test_exponent_sum_mismatch(self, tmp_path, capsys):
        data = _squaring_mapfile()
        data["components"][0][0]["exps"] = [1, 0, 0]
        path = _write_mapfile(tmp_path, data)
        code, _out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert "component 0 term 0" in err
        assert "sum to 1" in err

    def test_missing_key(self, tmp_path, capsys):
        data = _squaring_mapfile()
        del data["degree"]
        path = _write_mapfile(tmp_path, data)
        code, _out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert "degree" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        data = _squaring_mapfile()
        data["degre"] = 2
        path = _write_mapfile(tmp_path, data)
        code, out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "top level: unknown key 'degre'" in err

    def test_unknown_term_key(self, tmp_path, capsys):
        data = _squaring_mapfile()
        data["components"][1][0]["dne"] = "1"
        path = _write_mapfile(tmp_path, data)
        code, out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "component 1 term 0: unknown key 'dne'" in err

    def test_bad_numerator_string(self, tmp_path, capsys):
        data = _squaring_mapfile()
        data["components"][1][0]["num"] = "1.5"
        path = _write_mapfile(tmp_path, data)
        code, _out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert "component 1 term 0" in err

    def test_overlong_coefficient_string(self, tmp_path, capsys):
        # More digits than int() converts by default (4300).
        data = _squaring_mapfile()
        data["components"][2][0]["num"] = "7" * 5000
        path = _write_mapfile(tmp_path, data)
        code, _out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert "component 2 term 0: num" in err

    def test_component_count_mismatch(self, tmp_path, capsys):
        data = _squaring_mapfile()
        data["components"] = data["components"][:2]
        path = _write_mapfile(tmp_path, data)
        code, _out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE

    def test_invalid_json_names_location(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"k": 2,\n  "degree": }')
        code, _out, err = _run(capsys, "analyze", str(path))
        assert code == cli.EXIT_PARSE
        assert "line" in err

    def test_duplicate_exponents_accumulate(self, tmp_path, capsys):
        data = _squaring_mapfile()
        # x^2 split as 3x^2 + (-2)x^2; the parsed map must match squaring.
        data["components"][0] = [
            {"num": "3", "den": "1", "exps": [2, 0, 0]},
            {"num": "-2", "den": "1", "exps": [2, 0, 0]},
        ]
        path = _write_mapfile(tmp_path, data)
        code, report, _err = _report(capsys, "analyze", path)
        assert code == cli.EXIT_OK
        _code, reference, _err = _report(capsys, "analyze",
                                         "catalog:squaring-p2")
        assert report["pcf"] == reference["pcf"]
        assert report["tower"] == reference["tower"]

    @pytest.mark.parametrize("field,where", [
        ("k", "k must be"),
        ("degree", "degree must be"),
        ("exps", "component 0 term 0"),
    ])
    def test_booleans_rejected(self, tmp_path, capsys, field, where):
        # JSON true loads as Python True, which is an int; the schema
        # defines integers only.
        data = catalog.to_mapfile(catalog.get("squaring-p1").map)
        if field == "exps":
            data["components"][0][0]["exps"] = [True, True]
        else:
            data[field] = True
        path = _write_mapfile(tmp_path, data)
        code, out, err = _run(capsys, "analyze", path)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert where in err

    @pytest.mark.parametrize("argv", [
        ("analyze",), ("periodic", "--period", "1"), ("fatou", "--grid", "4"),
    ])
    def test_space_of_dimension_three_rejected(self, tmp_path, capsys, argv):
        # The squaring map of P^3 is well formed but outside the schema,
        # which defines maps of P^1 and P^2 only: a parse error, not an abort.
        data = {"k": 3, "degree": 2, "components": [
            [{"num": "1", "den": "1", "exps": [2 * (j == i) for j in range(4)]}]
            for i in range(4)]}
        path = _write_mapfile(tmp_path, data)
        code, out, err = _run(capsys, argv[0], path, *argv[1:])
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: k must be 1 or 2, got 3\n"

    def test_unknown_catalog_name(self, capsys):
        code, _out, err = _run(capsys, "analyze", "catalog:nope")
        assert code == cli.EXIT_PARSE
        assert "nope" in err

    @pytest.mark.parametrize("argv", [
        ("analyze",), ("periodic", "--period", "1"), ("fatou", "--grid", "4"),
    ])
    def test_precision_below_floor(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "catalog:squaring-p2", "--precision", "23")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: precision 23 bits is too low to be meaningful\n"


class TestAnalyze:
    def test_catalog_squaring_full_report(self, capsys):
        code, report, _err = _report(capsys, "analyze", "catalog:squaring-p2")
        assert code == cli.EXIT_OK
        assert list(report.keys()) == list(cli.REPORT_KEYS)
        assert report["map"]["validation"]["verdict"] == "well-defined"
        assert report["pcf"]["status"] == "PCF"
        assert report["pcf"]["component_count"] == 3
        levels = report["tower"]
        assert len(levels) == 2
        assert levels[0]["iterate_exponent"] == 1
        assert {e["label"] for e in levels[1]["entries"]} == {
            "(1:0:0)", "(0:1:0)", "(0:0:1)"}
        assert report["containment"]["ok"] is True
        assert report["degree_checks"] is None
        # Sections the analyze command does not run stay null.
        assert report["periodic"] is None
        assert report["theorem_b"] is None
        assert report["fatou"] is None
        assert report["bounds"]["precision_bits"] == 256

    def test_degenerate_witness(self, tmp_path, capsys):
        data = {
            "k": 2, "degree": 2,
            "components": [
                [{"num": "1", "den": "1", "exps": [2, 0, 0]}],
                [{"num": "1", "den": "1", "exps": [1, 1, 0]}],
                [{"num": "1", "den": "1", "exps": [0, 2, 0]}],
            ],
        }
        path = _write_mapfile(tmp_path, data)
        code, report, _err = _report(capsys, "analyze", path)
        assert code == cli.EXIT_DEGENERATE
        assert report["map"]["validation"]["verdict"] == "degenerate"
        assert "(0:0:1)" in report["map"]["validation"]["witness"]

    def test_budget_exit_partial_report(self, tmp_path, capsys):
        data = {
            "k": 2, "degree": 2,
            "components": [
                [{"num": "1", "den": "1", "exps": [2, 0, 0]}],
                [{"num": "1", "den": "1", "exps": [0, 2, 0]}],
                [{"num": "1", "den": "1", "exps": [0, 0, 2]},
                 {"num": "1", "den": "1", "exps": [1, 1, 0]}],
            ],
        }
        path = _write_mapfile(tmp_path, data)
        code, report, _err = _report(capsys, "analyze", path, "--max-degree", "8")
        assert code == cli.EXIT_RESOURCE
        assert report["pcf"]["status"] == "not-PCF-within-bound"
        assert report["tower"] is None

    @pytest.mark.parametrize("extra", [[], ["--max-iter", "17"]],
                             ids=["default", "max-iter-17"])
    def test_rational_critical_orbit_hits_coefficient_budget(self, tmp_path, extra):
        # z -> z^2 + 1 is not PCF: the orbit 0, 1, 2, 5, 26, ... of its
        # critical point doubles its coefficient heights at every image.  A
        # subprocess with a timeout, so that a closure which never ends fails.
        target = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(Path(pcflab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "pcflab.cli", "analyze",
             str(GOLDEN_DIR / "z2-plus-1.json"), "--report", str(target)] + extra,
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_RESOURCE, proc.stderr
        report = json.loads(target.read_text())
        assert report["pcf"]["status"] == "not-PCF-within-bound"
        assert f"over the {pcf.MAX_COEFF_BITS}-bit budget" in report["pcf"]["reason"]
        assert report["bounds"]["closure"]["max_coeff_bits"] == pcf.MAX_COEFF_BITS
        # The oversized image is not in the graph and no edge points to it.
        forms = {c["form"] for c in report["pcf"]["components"]}
        assert all(c["image"] is None or c["image"] in forms
                   for c in report["pcf"]["components"])

    @pytest.mark.parametrize("source, cap, note", [
        ("catalog:fs-1992-a", 7, "aborted: degree 2^3 = 8 exceeds the cap 7"),
        # Every periodic node of Sym^2 of Newton's map is a conic, so no
        # line is restricted, and the tower's degree is capped all the same.
        (str(GOLDEN_DIR / "sym2-newton.json"), 1, "aborted: degree 2^1 = 2 exceeds the cap 1"),
    ], ids=["fs-1992-a", "sym2-newton"])
    def test_tower_degree_over_the_cap_exits_4(self, source, cap, note, monkeypatch, capsys):
        # The tower restricts f^k1, of degree d^k1, and checks that degree
        # against the cap before it restricts anything.
        _code, full, _err = _report(capsys, "analyze", source)
        monkeypatch.setattr(projmap, "DEFAULT_DEGREE_CAP", cap)
        code, report, err = _report(capsys, "analyze", source)
        assert code == cli.EXIT_RESOURCE
        assert report["map"]["note"] == note
        assert err == f"error: {note.removeprefix('aborted: ')}\n"
        full["map"]["note"] = note
        full["bounds"]["closure"]["degree_cap"] = cap
        full.update(tower=None, transversality=None, containment=None)
        assert report == full

    def test_byte_determinism(self, capsys):
        _code, out1, _ = _run(capsys, "analyze", "catalog:fs-1992-a")
        _code, out2, _ = _run(capsys, "analyze", "catalog:fs-1992-a")
        assert out1 == out2

    def test_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, err = _run(capsys, "analyze", "catalog:squaring-p2",
                              "--report", str(target))
        assert code == cli.EXIT_OK
        assert out == ""
        assert "report.json" in err
        on_disk = json.loads(target.read_text())
        assert list(on_disk.keys()) == list(cli.REPORT_KEYS)

    def test_precision_env_ignored(self, capsys, monkeypatch):
        # --precision is the only way to set the working precision.
        monkeypatch.setenv("PCFLAB_PRECISION", "128")
        code, report, _err = _report(capsys, "analyze", "catalog:squaring-p2")
        assert code == cli.EXIT_OK
        assert report["bounds"]["precision_bits"] == numeric.DEFAULT_PRECISION

    @pytest.mark.parametrize("base", ["squaring-p2", "fs-1992-a"])
    def test_conjugate_keeps_linear_components(self, base, tmp_path, capsys):
        # The map file is A^-1 o f o A for A = [[21,1,0],[0,22,1],[1,0,23]]
        # (property_suites.conjugate), so its critical and post-critical
        # lines have coefficients above 20.  A subprocess with a timeout, so
        # that an analysis which never ends fails.
        target = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=str(Path(pcflab.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "pcflab.cli", "analyze",
             str(GOLDEN_DIR / f"{base}-conj21.json"), "--report", str(target)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        conj = json.loads(target.read_text())
        _code, ref, _err = _report(capsys, "analyze", f"catalog:{base}")
        assert conj["pcf"]["status"] == "PCF"
        assert all(c["linear"] for c in conj["pcf"]["components"])
        assert (len(conj["pcf"]["components"])
                == len(ref["pcf"]["components"]))

        def verdicts(report):
            tower = [sorted((e["verdict"], e["period"]) for e in level["entries"])
                     for level in report["tower"]]
            containment = (report["containment"]["ok"],
                           sorted(e["verdict"] for e in report["containment"]["entries"]))
            return tower, containment, report["transversality"]["verdict"]

        assert verdicts(conj) == verdicts(ref)


class TestBounds:
    # (precision, dedup, verify, Newton target, zero floor)
    @pytest.mark.parametrize("precision,dedup,verify,target,floor", [
        (128, 16, 8, "23.04", 120),
        (320, 40, 20, "57.6", 312),
    ])
    def test_bounds_serialize_the_tolerances(self, capsys, precision, dedup,
                                             verify, target, floor):
        code, rep, _err = _report(capsys, "analyze", "catalog:squaring-p1",
                                  "--precision", str(precision))
        assert code == cli.EXIT_OK
        tol = numeric.tolerances(precision)
        text = tol.serialize()
        bounds = rep["bounds"]
        assert bounds["precision_bits"] == precision
        assert {k: bounds["periodic"][k] for k in
                ("dedup_tol", "verify_tol", "refine_target", "zero_floor")} == {
            "dedup_tol": text["dedup"], "verify_tol": text["verify"],
            "refine_target": text["refine_target"], "zero_floor": text["zero_floor"]}
        assert text == {"dedup": f"10^-{dedup}", "verify": f"10^-{verify}",
                        "refine_target": f"10^-{target}", "zero_floor": f"2^-{floor}"}
        # The values are the formulas, rounded at the precision they are used at.
        with mpmath.workprec(precision):
            assert tol.dedup == mpmath.mpf(10) ** -dedup
            assert tol.verify == mpmath.mpf(10) ** -verify
            assert tol.zero_floor == mpmath.mpf(2) ** -floor
            assert tol.refine_target == mpmath.mpf(10) ** -(precision * 0.18)


class TestPeriodic:
    def test_period_two_audit(self, capsys):
        code, report, _err = _report(capsys, "periodic", "catalog:squaring-p2",
                                     "--period", "2")
        assert code == cli.EXIT_OK
        per = report["periodic"]
        assert per["max_period"] == 2
        assert [b["expected"] for b in per["bezout"]] == [7, 21]
        assert all(b["ok"] for b in per["bezout"])
        assert len(per["points"]) == 21
        assert report["theorem_b"]["ok"] is True
        assert report["theorem_b"]["violations"] == []

    def test_cyclic_quadratic_fixed_points(self, tmp_path, capsys):
        # Each pair of these forms meets where the third is far from 0, so
        # no pairwise certificate applies; the Macaulay rank is full.
        def term(num, exps):
            return {"num": str(num), "den": "1", "exps": exps}

        data = {"k": 2, "degree": 2, "components": [
            [term(1, [0, 0, 2]), term(-1, [2, 0, 0]), term(-1, [1, 1, 0]),
             term(-1, [0, 2, 0])],
            [term(1, [2, 0, 0]), term(-1, [0, 2, 0]), term(-1, [0, 1, 1]),
             term(-1, [0, 0, 2])],
            [term(1, [0, 2, 0]), term(-1, [2, 0, 0]), term(-1, [1, 0, 1]),
             term(-1, [0, 0, 2])],
        ]}
        path = _write_mapfile(tmp_path, data)
        code, report, _err = _report(capsys, "periodic", path, "--period", "1")
        assert code == cli.EXIT_OK
        assert report["map"]["validation"]["verdict"] == "well-defined"
        [row] = report["periodic"]["bezout"]
        assert row["expected"] == row["weighted"] == 7

    def test_budget_exit(self, capsys):
        code, report, _err = _report(capsys, "periodic", "catalog:squaring-p2",
                                     "--period", "9")
        assert code == cli.EXIT_RESOURCE
        assert "period" in report["map"]["note"]

    def test_newton_steps_needed_at_64_bits(self, monkeypatch, capsys):
        # From exact coefficients every fiber point of this conjugate starts
        # below the backward-error target of Newton's stop.  With the root
        # finder's coefficients rounded to 64 bits, two of its period-2
        # fiber points start above it.  With the steps, every point is
        # found in chart 0 and the count certifies them; with the residual
        # check and no step, charts 0 and 1 fail and the count certifies
        # only in chart 2.
        real = numeric._polyroots

        def rounded(coeffs, precision):
            with mpmath.workprec(precision):
                return real([tuple(int(mpmath.mpf(x)) for x in c) for c in coeffs], precision)

        monkeypatch.setattr(numeric, "_polyroots", rounded)
        argv = ("periodic", str(GOLDEN_DIR / "fs-1992-a-conj.json"),
                "--period", "2", "--precision", "64")
        certified = [(7, 7, True), (21, 21, True)]
        code, report, _err = _report(capsys, *argv)
        assert code == cli.EXIT_OK
        assert [(b["distinct"], b["weighted"], b["ok"])
                for b in report["periodic"]["bezout"]] == certified
        assert report["theorem_b"]["findings"] == []
        monkeypatch.setattr(numeric, "NEWTON_STEPS", 0)
        code, report, _err = _report(capsys, *argv)
        assert code == cli.EXIT_OK
        assert [(b["distinct"], b["weighted"], b["ok"])
                for b in report["periodic"]["bezout"]] == certified
        assert [f.split(" failed")[0] for f in report["theorem_b"]["findings"]] == [
            f"period 2: the solve in chart {c} (x{c} = 1)" for c in (0, 1)]

    @pytest.mark.parametrize("name,precision", [
        pytest.param(name, bits, id=name if bits == "64" else f"{name}-{bits}")
        for bits in ("64", "48", "32", "24")
        for name in ("fs-1992-a-conj21.json", "squaring-p2-conj21.json", "fs-1992-a-conj.json")])
    def test_conjugates_certify_at_64_bits(self, name, precision, capsys):
        # Newton stops in backward-error form, relative to the size of the
        # terms of each form, so these conjugates' large coefficients no
        # longer hold every chart above an absolute residual target.  The
        # cases at 48 bits and below guard the fiber solve at low precision:
        # the eliminant pieces keep exact coefficients, so no duplicate
        # farther apart than dedup survives.  Only the counts are pinned;
        # the eigenvalue classes at 24 bits are not (EPS_ZERO is fixed).
        code, report, _err = _report(capsys, "periodic", str(GOLDEN_DIR / name),
                                     "--period", "2", "--precision", precision)
        assert code == cli.EXIT_OK
        assert [(b["distinct"], b["weighted"], b["ok"])
                for b in report["periodic"]["bezout"]] == [(7, 7, True), (21, 21, True)]

    def test_failed_chart_is_a_finding(self, monkeypatch, capsys):
        # The first solve inside each find_periodic call is chart 0's.
        real_solve, real_find = numeric.solve_pair_p2, periodic.find_periodic
        solves = []  # the number of solves in each find_periodic call

        def find(*args, **kwargs):
            solves.append(0)
            return real_find(*args, **kwargs)

        def solve(a, b, precision):
            solves[-1] += 1
            if solves[-1] == 1:
                raise numeric.NumericalError("forced chart failure")
            return real_solve(a, b, precision)

        monkeypatch.setattr(periodic, "find_periodic", find)
        monkeypatch.setattr(numeric, "solve_pair_p2", solve)
        # At --period 2 the period-1 points are read off the certified
        # period-2 solve, so only period 2 is solved and has a finding.
        for period, count in (("1", 7), ("2", 21)):
            del solves[:]
            code, report, err = _report(capsys, "periodic", "catalog:fs-1992-a",
                                        "--period", period)
            assert code == cli.EXIT_OK
            line = (f"period {period}: the solve in chart 0 (x0 = 1) failed and was"
                    " skipped: forced chart failure")
            assert report["theorem_b"]["findings"] == [line]
            assert f"FINDING: {line}" in err
            # Chart 1 and its line x1 = 0 find and certify every point, so
            # no third solve runs.
            assert solves == [2]
            assert all(b["ok"] for b in report["periodic"]["bezout"])
            assert len(report["periodic"]["points"]) == count

    def test_report_ignores_the_ambient_precision(self, capsys):
        # Complex parts are printed from REPORT_PRECISION bits, so a caller
        # that changed mpmath's working precision gets a default run's bytes.
        default = _run(capsys, "periodic", "catalog:fs-1992-a", "--period", "1")
        old = mpmath.mp.prec
        mpmath.mp.prec = 100
        try:
            changed = _run(capsys, "periodic", "catalog:fs-1992-a", "--period", "1")
        finally:
            mpmath.mp.prec = old
        assert changed == default and default[0] == cli.EXIT_OK

    def test_violations_reach_stderr(self, tmp_path, capsys):
        data = {
            "k": 1, "degree": 2,
            "components": [
                [{"num": "4", "den": "1", "exps": [2, 0]},
                 {"num": "-3", "den": "1", "exps": [0, 2]}],
                [{"num": "4", "den": "1", "exps": [0, 2]}],
            ],
        }
        path = _write_mapfile(tmp_path, data)
        code, report, err = _report(capsys, "periodic", path, "--period", "1")
        assert code == cli.EXIT_OK
        assert report["theorem_b"]["ok"] is False
        assert "VIOLATION" in err

    @pytest.mark.parametrize("argv", [
        ["catalog:squaring-p1", "--period", "5"],
        ["catalog:fs-1992-a", "--period", "2"],
        [str(GOLDEN_DIR / "sym2.json"), "--period", "2"],
        [str(GOLDEN_DIR / "fs-1992-a-conj.json"), "--period", "2", "--precision", "64"],
    ], ids=["squaring-p1-5", "fs-1992-a-2", "sym2-2", "fs-1992-a-conj-2-64"])
    def test_double_start_leaves_the_report_as_it_is(self, argv, monkeypatch, capsys):
        # The double-precision stage moves only the root finder's start
        # points: the report is byte-identical with it and without it.
        with_stage = _run(capsys, "periodic", *argv)
        monkeypatch.setattr(numeric, "_double_start", lambda *args: None)
        assert _run(capsys, "periodic", *argv) == with_stage
        assert with_stage[0] == cli.EXIT_OK


class TestFatou:
    def test_origin_window(self, capsys):
        code, report, err = _report(
            capsys, "fatou", "catalog:squaring-p2",
            "--center", "0,0", "--radius", "0.9", "--grid", "16")
        assert code == cli.EXIT_OK
        ft = report["fatou"]
        assert len(ft["candidates"]) == 3
        assert ft["summary"]["consistency"] == "CONSISTENT"
        assert max(ft["summary"]["fractions"]) == 1.0
        assert ft["config"]["resolution"] == 16

    def test_no_candidates_exit(self, capsys):
        code, report, err = _report(capsys, "fatou", "catalog:fs-1992-a",
                                    "--grid", "8")
        assert code == cli.EXIT_NO_CANDIDATES
        assert report["fatou"]["candidates"] == []
        assert "candidates" in err

    def test_explicit_candidates(self, capsys):
        code, report, _err = _report(
            capsys, "fatou", "catalog:fs-1992-a",
            "--candidates", "1:0:0;0:1:0;0:0:1",
            "--center", "0,0", "--radius", "0.5", "--grid", "8")
        assert code == cli.EXIT_OK
        assert len(report["fatou"]["candidates"]) == 3

    def test_grid_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "basin")
        code, report, _err = _report(
            capsys, "fatou", "catalog:squaring-p2",
            "--center", "0,0", "--radius", "0.9", "--grid", "8",
            "--out", prefix)
        assert code == cli.EXIT_OK
        csv_lines = (tmp_path / "basin.csv").read_text().splitlines()
        assert csv_lines[0] == "row,col,label,iters"
        assert len(csv_lines) == 1 + 8 * 8
        row, col, label, iters = csv_lines[1].split(",")
        assert (row, col) == ("0", "0")
        assert int(label) >= -1
        pgm = (tmp_path / "basin.pgm").read_bytes()
        assert pgm.startswith(b"P5\n8 8\n255\n")
        payload = pgm[len(b"P5\n8 8\n255\n"):]
        assert len(payload) == 64
        # Every pixel carries the gray level of the single winning
        # candidate, round(255 (j+1) / 3) for its index j.
        fractions = report["fatou"]["summary"]["fractions"]
        winner = fractions.index(1.0)
        assert set(payload) == {round(255 * (winner + 1) / 3)}
        assert report["fatou"]["files"]["csv"].endswith("basin.csv")
        assert report["fatou"]["files"]["pgm"].endswith("basin.pgm")

    def test_unmatched_candidate_is_a_finding(self, capsys):
        # With only (1:0:0) offered, every pixel near (0:0:1) settles there
        # with a decayed derivative and matches no candidate.
        code, report, err = _report(
            capsys, "fatou", "catalog:squaring-p2", "--candidates", "1:0:0",
            "--center", "0,0", "--radius", "0.5", "--grid", "4")
        assert code == cli.EXIT_OK
        summary = report["fatou"]["summary"]
        assert (summary["consistency"], summary["finding_pixels"]) == ("FINDING", 16)
        assert ("FINDING: 16 settled pixels with decayed derivatives matched "
                "no candidate") in err

    def test_failed_pair_solve_aborts(self, monkeypatch, capsys):
        # Sym^2's post-critical conic needs the pair solver; a failed solve
        # ends the run with exit 4 instead of losing its points silently.
        def solve(a, b, precision):
            raise numeric.NumericalError("forced solve failure")

        monkeypatch.setattr(numeric, "solve_pair_p2", solve)
        code, report, err = _report(capsys, "fatou", str(GOLDEN_DIR / "sym2.json"),
                                    "--grid", "4")
        assert code == cli.EXIT_RESOURCE
        assert report["map"]["note"] == "aborted: forced solve failure"
        assert "forced solve failure" in err

    def test_coefficient_beyond_double_range(self, tmp_path, capsys):
        # 10^308 x^2 fits in a double; its partial 2 10^308 x does not.
        data = _squaring_mapfile()
        data["components"][0][0]["num"] = str(10 ** 308)
        code, out, err = _run(capsys, "fatou", _write_mapfile(tmp_path, data),
                              "--grid", "4", "--candidates", "1:0:0;0:1:0;0:0:1")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("error: value 2" + "0" * 308 + " does not fit in a double")

    def test_candidate_beyond_double_range(self, capsys):
        code, out, err = _run(capsys, "fatou", "catalog:squaring-p2", "--grid", "4",
                              "--candidates", f"{10 ** 400}:1:0;0:0:1")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: value {10 ** 400} does not fit in a double")

    def test_value_beyond_double_range_in_the_scan(self, tmp_path, capsys):
        # 8 10^307 (x^2 + y^2 + z^2) fits in doubles part by part, but at
        # some pixel its modulus does not, and abs() raises.
        data = _squaring_mapfile()
        big = str(8 * 10 ** 307)
        data["components"][0] = [{"num": big, "den": "1", "exps": e}
                                 for e in ([2, 0, 0], [0, 2, 0], [0, 0, 2])]
        code, out, err = _run(capsys, "fatou", _write_mapfile(tmp_path, data),
                              "--center=0.9+0.3j,-0.8", "--radius", "0.6", "--grid", "9",
                              "--candidates", "1:0:0;0:1:0;0:0:1")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: a scan value left the double range (absolute value too large)\n"

    def test_unlabeled_pixels_are_zero_bytes(self, tmp_path, capsys):
        prefix = str(tmp_path / "torus")
        code, _report_, _err = _report(
            capsys, "fatou", "catalog:squaring-p2",
            "--center", "1,1", "--radius", "0", "--grid", "2",
            "--out", prefix)
        assert code == cli.EXIT_OK
        pgm = (tmp_path / "torus.pgm").read_bytes()
        payload = pgm[len(b"P5\n2 2\n255\n"):]
        assert set(payload) == {0}

    @pytest.mark.parametrize("flag,value,field", [
        ("--iters", "0", "max_iters"),
        ("--iters", "-3", "max_iters"),
        ("--radius", "nan", "radius"),
        ("--radius", "inf", "radius"),
        ("--radius", "-0.5", "radius"),
        ("--tol", "inf", "tol"),
        ("--center", "nan,0", "center"),
    ])
    def test_nonsense_scan_config_rejected(self, capsys, flag, value, field):
        code, out, err = _run(capsys, "fatou", "catalog:squaring-p2",
                              "--grid", "4", f"{flag}={value}")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert field in err

    def test_settings_checked_before_candidates(self, capsys):
        # fs-1992-a derives no candidates (exit 5), but a bad setting is
        # reported first.
        code, out, err = _run(capsys, "fatou", "catalog:fs-1992-a",
                              "--grid", "4", "--radius", "nan")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "radius" in err

    def test_chart_checked_before_candidates(self, capsys):
        # P^2 has charts 0..2; chart 7 is rejected before the closure runs.
        code, out, err = _run(capsys, "fatou", "catalog:fs-1992-a",
                              "--grid", "4", "--chart", "7")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "chart" in err


class TestCatalog:
    def test_list_names(self, capsys):
        code, out, _err = _run(capsys, "catalog", "list")
        assert code == cli.EXIT_OK
        for name in catalog.names():
            assert name in out

    def test_show_round_trip(self, tmp_path, capsys):
        code, shown, _err = _report(capsys, "catalog", "show", "squaring-p2")
        assert code == cli.EXIT_OK
        path = _write_mapfile(tmp_path, shown)
        code, report, _err = _report(capsys, "analyze", path)
        assert code == cli.EXIT_OK
        assert report["map"]["mapfile"] == shown

    def test_show_unknown(self, capsys):
        code, _out, err = _run(capsys, "catalog", "show", "missing")
        assert code == cli.EXIT_PARSE
        assert "missing" in err
