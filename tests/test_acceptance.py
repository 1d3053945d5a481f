"""Acceptance sweep: eleven pinned behaviors, one test and one line each.

Each test prints a single "criterion NN PASS" line (visible with -s, and
mirrored by the per-test verdict under -v). Tolerances and runtime ceilings
are fixed here on purpose; loosening them is a contract change, not a fix.
"""

import json
import time
from collections import Counter
from fractions import Fraction

import mpmath

from pcflab import catalog, cli, fatou, numeric, pcf, periodic, poly, projmap

import property_suites as ps


def _cli_json(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _stamp(n, label, started):
    print(f"criterion {n:2d} PASS: {label} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_squaring_tower_exact(capsys):
    started = time.perf_counter()
    code, report = _cli_json(capsys, "analyze", "catalog:squaring-p2")
    assert code == cli.EXIT_OK
    assert report["pcf"]["status"] == "PCF"
    comps = report["pcf"]["components"]
    assert {c["form"] for c in comps} == {"x", "y", "z"}
    for c in comps:
        assert c["period"] == 1
        assert c["preperiod"] == 0
    levels = report["tower"]
    assert len(levels) == 2
    assert levels[0]["codimension"] == 1
    assert len(levels[0]["entries"]) == 3
    for entry in levels[0]["entries"]:
        assert entry["verdict"] == "PCF"
        assert entry["map"] == ["s^2", "t^2"]
    assert levels[1]["codimension"] == 2
    assert {e["label"] for e in levels[1]["entries"]} == {
        "(1:0:0)", "(0:1:0)", "(0:0:1)"}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s, ceiling is 1s"
    _stamp(1, "squaring tower exact", started)


def test_criterion_02_hyperplane_postcritical_maps():
    started = time.perf_counter()
    audited = 0
    for name in catalog.names():
        per_map = time.perf_counter()
        m = catalog.get(name).map
        if m.k != 2:
            continue
        graph, verdict = pcf.postcritical_graph(m)
        assert verdict.ok, name
        if not all(node.linear for node in graph.nodes):
            continue
        audited += 1
        levels = pcf.build_tower(m, graph)
        assert levels, name
        for level in levels:
            for entry in level.entries:
                assert entry.verdict != "unbranched", (name, entry.label)
                if entry.restricted_map is not None:
                    assert entry.verdict == "PCF", (name, entry.label)
        per_elapsed = time.perf_counter() - per_map
        assert per_elapsed < 30.0, f"{name} took {per_elapsed:.2f}s"
    assert audited >= 2  # squaring-p2 and the eight-line quadratic
    _stamp(2, f"line-only post-critical towers all PCF ({audited} maps)", started)


def test_criterion_03_fixed_point_completeness(capsys):
    started = time.perf_counter()
    # Oracle first: fixed points of coordinate squaring have each coordinate
    # 0 or 1 with at least one 1, giving exactly the 7 support patterns.
    oracle = []
    for mask in range(1, 8):
        oracle.append(tuple(Fraction(1) if mask & (1 << i) else Fraction(0)
                            for i in range(3)))
    assert len(oracle) == 7
    expected_spectra = Counter()
    for vec in oracle:
        support = sum(1 for v in vec if v)
        expected_spectra[{1: (0, 0), 2: (2, 0), 3: (2, 2)}[support]] += 1

    code, report = _cli_json(capsys, "periodic", "catalog:squaring-p2",
                             "--period", "1")
    assert code == cli.EXIT_OK
    assert len(report["periodic"]["points"]) == 7

    m = catalog.get("squaring-p2").map
    points = periodic.find_periodic(m, 1, 256)
    assert len(points) == 7
    got_spectra = Counter()
    with mpmath.workprec(256):
        residual_bound = mpmath.mpf(10) ** -40
        match_tol = mpmath.mpf(10) ** -30
        unmatched = list(oracle)
        for pp in points:
            assert pp.residual < residual_bound
            hit = next(
                (vec for vec in unmatched
                 if numeric.proj_distance(
                     pp.point,
                     numeric.normalize_point([numeric.mpc_from(v) for v in vec])[0])
                 < match_tol),
                None)
            assert hit is not None, "found point matches no oracle point"
            unmatched.remove(hit)
            spec = periodic.multipliers(m, pp.point, 1, 256)
            rounded = []
            for lam in spec:
                target = 2 if mpmath.fabs(lam - 2) < match_tol else 0
                assert mpmath.fabs(lam - target) < match_tol
                rounded.append(target)
            got_spectra[tuple(rounded)] += 1
        assert not unmatched
    assert got_spectra == expected_spectra
    _stamp(3, "7 fixed points, residuals < 1e-40, spectra multiset", started)


def test_criterion_04_eigenvalue_audits_clean():
    started = time.perf_counter()
    audit_p2 = periodic.eigenvalue_audit(catalog.get("squaring-p2").map, 2, 256)
    assert audit_p2.ok
    assert audit_p2.violations == ()
    audit_p1 = periodic.eigenvalue_audit(catalog.get("squaring-p1").map, 3, 256)
    assert audit_p1.ok
    assert audit_p1.violations == ()
    _stamp(4, "eigenvalue audits clean to period 2 (plane) and 3 (line)", started)


def test_criterion_05_bezout_counts():
    started = time.perf_counter()
    cases = (
        ("squaring-p1", 1, 3),
        ("squaring-p1", 2, 5),
        ("squaring-p2", 1, 7),
    )
    for name, l, want in cases:
        m = catalog.get(name).map
        pts = periodic.find_periodic(m, l, 256)
        assert len(pts) == want, (name, l)
        count = periodic.bezout_audit(m, l, points=pts)
        assert count.expected == want
        assert count.ok
    _stamp(5, "point counts 3/5/7 match the intersection formula", started)


def test_criterion_06_image_oracle_equivalence():
    started = time.perf_counter()
    import random
    rng = random.Random(606)
    with mpmath.workprec(256):
        bound = mpmath.mpf(10) ** -25
        for name in ("squaring-p2", "fs-1992-a"):
            m = catalog.get(name).map
            lines_done = 0
            while lines_done < 20:
                coeffs = [rng.randint(-9, 9) for _ in range(3)]
                if all(c == 0 for c in coeffs):
                    continue
                lines_done += 1
                comp = pcf.make_component(poly.linear_form(coeffs))
                image = pcf.image_of_component(m, comp)
                emb = projmap.embedding_for_hyperplane(comp.form)
                for j in range(50):
                    src = emb.apply((Fraction(j), Fraction(1)))
                    pushed = tuple(c.evaluate(src) for c in m.comps)
                    pt = numeric.normalize_point(
                        [numeric.mpc_from(v) for v in pushed])[0]
                    val = mpmath.fabs(numeric.eval_form(image.form, pt))
                    assert val < bound, (name, coeffs, j)
    # The pinned exact identity: the diagonal line's image under squaring.
    m = catalog.get("squaring-p2").map
    image = pcf.image_of_component(m, pcf.make_component(
        poly.linear_form([1, 1, 1])))
    x = poly.variable(3, 0)
    y = poly.variable(3, 1)
    z = poly.variable(3, 2)
    pinned = (z - x - y) ** 2 - (x * y).scale(4)
    assert image.form == poly.canonical(pinned)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s, ceiling is 60s"
    _stamp(6, "40 line images certified on 50 pushed samples each", started)


def test_criterion_07_containment_exact():
    started = time.perf_counter()
    m = catalog.get("squaring-p2").map
    graph, _ = pcf.postcritical_graph(m)
    levels = pcf.build_tower(m, graph)
    crit = pcf.critical_components(m)
    report = pcf.restricted_critical_containment(m, levels[0], crit)
    assert report.ok
    # Expected: the critical points of each line's (s^2 : t^2) restriction
    # are exactly that line's meetings with the other two coordinate lines.
    expected = {
        "x": {("(0:0:1)", "y"), ("(0:1:0)", "z")},
        "y": {("(0:0:1)", "x"), ("(1:0:0)", "z")},
        "z": {("(0:1:0)", "x"), ("(1:0:0)", "y")},
    }
    assert len(report.entries) == 3
    for label, verdict, points in report.entries:
        assert verdict == "pass"
        got = {(p.point, p.matched) for p in points}
        assert got == expected[label], label
    _stamp(7, "restriction critical points sit on the other critical lines",
           started)


def test_criterion_08_degree_audits():
    started = time.perf_counter()
    for name in catalog.names():
        m = catalog.get(name).map
        for n in range(1, 5):
            assert projmap.iterate(m, n).d == m.d ** n, (name, n)
        if m.k != 2:
            continue
        graph, verdict = pcf.postcritical_graph(m)
        assert verdict.ok
        levels = pcf.build_tower(m, graph)
        checks = pcf.topdeg_check(levels[0], m.d)
        assert checks, name
        for check in checks:
            assert check.expected == m.d ** levels[0].k_m
            assert check.ok, (name, check.label)
    _stamp(8, "iterate degrees d^n and restriction degrees d^k1", started)


def test_criterion_09_weak_transversality():
    started = time.perf_counter()
    lines = [pcf.make_component(poly.variable(3, i)) for i in range(3)]
    report = pcf.weak_transversality(lines)
    assert report.verdict == "weakly-transverse"
    assert all(ev.exact for ev in report.evidence)

    conic = pcf.make_component(
        poly.HomPoly(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}))
    vertical = pcf.make_component(poly.variable(3, 2))
    report = pcf.weak_transversality([conic, vertical])
    assert report.verdict == "not-weakly-transverse"
    assert report.witness == "(1:0:0)"
    drop = [ev for ev in report.evidence if ev.point == "(1:0:0)"]
    assert len(drop) == 1
    assert drop[0].generic_rank == 2
    assert drop[0].rank_at_point == 1
    assert drop[0].exact
    _stamp(9, "coordinate lines transverse; tangent pair flagged at (1:0:0)",
           started)


def test_criterion_10_basin_scan_windows():
    started = time.perf_counter()
    m = catalog.get("squaring-p2").map
    graph, _ = pcf.postcritical_graph(m)
    tower = pcf.build_tower(m, graph)
    cands = fatou.superattracting_candidates(m, graph, tower)
    as_ints = [tuple(int(v) for v in c) for c in cands]
    idx_z = as_ints.index((0, 0, 1))
    idx_x = as_ints.index((1, 0, 0))

    cfg = fatou.ScanConfig(2, (0, 0), 0.9, 64, candidates=tuple(cands))
    summary = fatou.basin_summary(fatou.scan(m, cfg))
    assert summary.fractions[idx_z] == 1.0
    assert summary.nonconverged_fraction == 0.0
    assert summary.decay_fraction >= 0.99
    assert summary.consistency == "CONSISTENT"

    cfg = fatou.ScanConfig(2, (2, 0.5), 0.2, 64, candidates=tuple(cands))
    summary = fatou.basin_summary(fatou.scan(m, cfg))
    assert summary.fractions[idx_x] == 1.0
    assert summary.consistency == "CONSISTENT"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s, ceiling is 30s"
    _stamp(10, "both 64x64 windows fully labeled with derivative decay",
           started)


def test_criterion_11_property_suites_full_counts():
    started = time.perf_counter()
    suites = (
        ("ring axioms", ps.suite_ring_axioms),
        ("compose degree", ps.suite_compose_degree),
        ("exact divide", ps.suite_exact_divide),
        ("gcd associate", ps.suite_gcd_associate),
        ("square-free", ps.suite_squarefree),
        ("resultant-gcd", ps.suite_resultant_gcd),
        ("linear factors", ps.suite_linear_factors),
        ("products against the reference", ps.suite_products),
        ("division against the reference", ps.suite_division),
        ("iterate laws", ps.suite_iterate_additivity),
        ("line-map degree power", ps.suite_p1_degree_power),
        ("component normalization", ps.suite_component_normalization),
        ("line images against an exact oracle", ps.suite_image_agreement),
        ("chart invariance", ps.suite_chart_invariance),
        ("classification conjugation", ps.suite_classify_conjugation),
        ("scan determinism", ps.suite_scan_determinism),
    )
    for label, fn in suites:
        ran = fn(n=500)
        assert ran >= 500, f"{label} ran {ran} instances"
    _stamp(11, f"{len(suites)} property suites at 500 instances each", started)
