"""Critical orbits: components, images, closure, tower, structural audits."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pcflab import catalog, cli, numeric, pcf, poly, projmap

import property_suites as ps


def _p(nvars, degree, terms):
    return poly.HomPoly(nvars, degree, terms)


def _squaring_p2():
    return catalog.get("squaring-p2").map


def _squaring_p1():
    return catalog.get("squaring-p1").map


def _fs():
    return catalog.get("fs-1992-a").map


def _line(coeffs):
    return pcf.make_component(poly.linear_form(list(coeffs)))


X = poly.variable(3, 0)
Y = poly.variable(3, 1)
Z = poly.variable(3, 2)
S = poly.variable(2, 0)
T = poly.variable(2, 1)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(i,) + e for i in range(degree + 1) for e in _monomials(nvars - 1, degree - i)]


def _coords(label):
    """The integer coordinates of a point label such as "(1:0:-2)"."""
    return tuple(Fraction(x) for x in label[1:-1].split(":"))


class TestMakeComponent:
    def test_strips_powers_and_content(self):
        c = pcf.make_component((X * X * Y).scale(Fraction(-3, 7)))
        assert c.form == X * Y
        assert not c.linear
        assert c.irreducible_status == "unverified"

    def test_linear_certified(self):
        c = _line([2, -4, 0])
        assert c.linear
        assert c.irreducible_status == "certified-linear"
        assert c.form == poly.linear_form([1, -2, 0])

    def test_rejects_zero_and_constant(self):
        with pytest.raises(pcf.PcfError):
            pcf.make_component(poly.zero(3, 2))
        with pytest.raises(pcf.PcfError):
            pcf.make_component(poly.constant(3, 5))


class TestCriticalComponents:
    def test_squaring_p2(self):
        comps = pcf.critical_components(_squaring_p2())
        assert {c.form for c in comps} == {X, Y, Z}
        assert all(c.linear for c in comps)

    def test_fs(self):
        # Jacobian determinant is 32 x (x - 2y)(x - 2z).
        comps = pcf.critical_components(_fs())
        want = {X, poly.linear_form([1, -2, 0]), poly.linear_form([1, 0, -2])}
        assert {c.form for c in comps} == want

    def test_squaring_p1(self):
        comps = pcf.critical_components(_squaring_p1())
        assert {c.form for c in comps} == {S, T}

    def test_unramified_linear_map(self):
        m = projmap.ProjectiveMap([S + T, T])
        assert pcf.critical_components(m) == ()


class TestImageOfComponent:
    def test_coordinate_line_fixed(self):
        m = _squaring_p2()
        img = pcf.image_of_component(m, _line([1, 0, 0]))
        assert img.form == X

    def test_fs_tail_and_cycle(self):
        m = _fs()
        steps = [
            ([1, -2, 0], [1, 0, 0]),   # x=2y -> x=0
            ([1, 0, -2], [0, 1, 0]),   # x=2z -> y=0
            ([1, 0, 0], [0, 0, 1]),    # x=0  -> z=0
            ([0, 0, 1], [0, 1, -1]),   # z=0  -> y=z
            ([0, 1, -1], [1, -1, 0]),  # y=z  -> x=y
            ([1, -1, 0], [1, 0, -1]),  # x=y  -> x=z
            ([1, 0, -1], [0, 1, -1]),  # x=z  -> y=z
        ]
        for src, dst in steps:
            img = pcf.image_of_component(m, _line(src))
            assert img.form == poly.linear_form(dst), src

    def test_line_to_conic(self):
        # The diagonal line maps onto the conic dual to squaring.
        m = _squaring_p2()
        img = pcf.image_of_component(m, _line([1, 1, 1]))
        conic = _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                          (1, 1, 0): -2, (1, 0, 1): -2, (0, 1, 1): -2})
        assert img.form == poly.canonical(conic)

    @pytest.mark.parametrize("name,source,image", [
        ("squaring-p2", X * X + X * Y + Z * Z, X * X - X * Y + X * Z.scale(2) + Z * Z),
        ("fs-1992-a", X * X + Z * Z.scale(2), Y * Y + Y * Z.scale(2) + Z * Z.scale(9)),
        ("fs-1992-a", X * X + Y * Y - Z * Z, _p(3, 4, {
            (4, 0, 0): 1, (3, 1, 0): -4, (3, 0, 1): 8, (2, 2, 0): 6, (2, 1, 1): -40,
            (2, 0, 2): 48, (1, 3, 0): -4, (1, 2, 1): 56, (1, 1, 2): -224,
            (1, 0, 3): 128, (0, 4, 0): 1, (0, 3, 1): -24, (0, 2, 2): 176,
            (0, 1, 3): -384, (0, 0, 4): 256})),
        ("fs-1992-a", X * X + X * Y + Z * Z, _p(3, 4, {
            (2, 0, 2): 16, (1, 2, 1): -8, (1, 1, 2): -144, (1, 0, 3): -392,
            (0, 4, 0): 1, (0, 3, 1): 20, (0, 2, 2): 198, (0, 1, 3): 980,
            (0, 0, 4): 2401})),
    ], ids=["squaring-p2", "fs-1992-a-x2+2z2", "fs-1992-a-x2+y2-z2",
            "fs-1992-a-x2+xy+z2"])
    def test_conic_images(self, name, source, image):
        # Each pinned image is checked without the image code: c divides
        # M∘f, and deg M is within the bound d * deg c.  The squaring-p2
        # image follows by hand from X = x^2, Y = y^2, Z = z^2.
        m = catalog.get(name).map
        assert poly.exact_divide(poly.compose(image, list(m.comps)), source) is not None
        assert image.degree <= m.d * source.degree
        assert pcf.image_of_component(m, pcf.make_component(source)).form == image

    def test_quartic_to_octic(self):
        # The image's kernel first appears at degree 8, in a 61 x 45 system:
        # the widest kernel any pinned image needs.  Checked as above.
        m = _fs()
        source = X ** 4 + Y ** 3 * Z + (X * Z ** 3).scale(2) + Y ** 2 * Z ** 2
        image = _p(3, 8, {
            (0, 0, 8): 234256, (0, 1, 7): 335896, (0, 2, 6): 167841,
            (0, 3, 5): 18518, (0, 4, 4): -8703, (0, 5, 3): -1568, (0, 6, 2): 256,
            (1, 0, 7): 146168, (1, 1, 6): 105966, (1, 2, 5): -9800,
            (1, 3, 4): -16346, (1, 4, 3): -4, (1, 5, 2): 320, (2, 0, 6): 28609,
            (2, 1, 5): -778, (2, 2, 4): -15081, (2, 3, 3): -2484, (2, 4, 2): 1030,
            (2, 5, 1): -32, (3, 0, 5): 844, (3, 1, 4): -1284, (3, 2, 3): -480,
            (3, 3, 2): -100, (3, 4, 1): -4, (4, 0, 4): -266, (4, 1, 3): 244,
            (4, 2, 2): 119, (4, 3, 1): -98, (4, 4, 0): 1, (5, 0, 3): -12,
            (5, 1, 2): 22, (5, 2, 1): -8, (5, 3, 0): -2, (6, 0, 2): 1,
            (6, 1, 1): -2, (6, 2, 0): 1})
        assert poly.exact_divide(poly.compose(image, list(m.comps)), source) is not None
        assert image.degree <= m.d * source.degree
        assert pcf.image_of_component(m, pcf.make_component(source)).form == image

    def test_p1_point_images(self):
        m = _squaring_p1()
        # (0:1) and (1:0) are fixed; (-1:1) lands on (1:1).
        assert pcf.image_of_component(m, pcf.make_component(S)).form == S
        assert pcf.image_of_component(m, pcf.make_component(T)).form == T
        img = pcf.image_of_component(m, pcf.make_component(S + T))
        assert img.form == S - T

    def test_map_undefined_on_component(self):
        # Every component of (xy : xz : x^2) vanishes on x = 0, so every form
        # composed with it does, and no least-degree image exists.
        m = projmap.ProjectiveMap([X * Y, X * Z, X * X])
        with pytest.raises(pcf.ImageError, match="not well defined"):
            pcf.image_of_component(m, _line([1, 0, 0]))

    def test_wrong_ring_rejected(self):
        with pytest.raises(pcf.PcfError):
            pcf.image_of_component(_squaring_p1(), _line([1, 0, 0]))


class TestPostcriticalGraph:
    def test_squaring_p2_fixed_lines(self):
        graph, verdict = pcf.postcritical_graph(_squaring_p2())
        assert verdict.ok
        assert verdict.status == "PCF"
        assert {c.form for c in graph.nodes} == {X, Y, Z}
        for node in graph.nodes:
            assert graph.successor[node] == node
            assert graph.period[node] == 1
            assert graph.preperiod[node] == 0
            assert graph.origin(node) == "critical"

    def test_fs_eight_lines_three_cycle(self):
        graph, verdict = pcf.postcritical_graph(_fs())
        assert verdict.ok
        forms = {poly.format_poly(c.form) for c in graph.nodes}
        assert len(graph.nodes) == 8
        periodic = {poly.format_poly(c.form) for c in graph.periodic_nodes()}
        want_cycle = {
            poly.format_poly(poly.linear_form(v))
            for v in ([0, 1, -1], [1, -1, 0], [1, 0, -1])
        }
        assert periodic == want_cycle
        for node in graph.periodic_nodes():
            assert graph.period[node] == 3
        # Tail depths: x=2y needs three steps to reach the cycle.
        tail = {c for c in graph.nodes
                if c.form == poly.linear_form([1, -2, 0])}
        assert len(tail) == 1
        assert graph.preperiod[tail.pop()] == 3
        assert len(forms) == 8

    def test_successors_soundness(self):
        # Every recorded edge maps its source into its target: c | succ(c)∘f.
        for name in ("squaring-p2", "fs-1992-a"):
            m = catalog.get(name).map
            graph, verdict = pcf.postcritical_graph(m)
            assert verdict.ok
            for node in graph.nodes:
                pushed = poly.compose(graph.successor[node].form, list(m.comps))
                assert poly.exact_divide(pushed, node.form) is not None

    def test_budget_bail_is_not_a_claim(self):
        m = projmap.ProjectiveMap([X * X, Y * Y, Z * Z + X * Y])
        graph, verdict = pcf.postcritical_graph(m, max_degree=8)
        assert verdict.status == "not-PCF-within-bound"
        assert not verdict.ok
        assert "exceeds 8" in verdict.reason
        # The partial node list is still reported.
        assert len(graph.nodes) >= 3

    def test_coefficient_budget_checks_critical_components(self, monkeypatch):
        monkeypatch.setattr(pcf, "MAX_COEFF_BITS", 0)
        graph, verdict = pcf.postcritical_graph(_squaring_p2())
        assert verdict.status == "not-PCF-within-bound"
        assert "1-bit coefficient, over the 0-bit budget" in verdict.reason
        assert graph.nodes == ()

    def test_image_budget_bail(self):
        m = projmap.ProjectiveMap([X * X, Y * Y, Z * Z + X * Y])
        graph, verdict = pcf.postcritical_graph(m, max_iter=2)
        assert verdict.status == "not-PCF-within-bound"
        assert "image budget 2 exhausted" in verdict.reason


class TestTower:
    def test_squaring_p2_two_levels(self):
        m = _squaring_p2()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        assert len(levels) == 2
        top = levels[0]
        assert top.m == 1
        assert top.k_m == 1
        assert len(top.entries) == 3
        for entry in top.entries:
            assert entry.verdict == "PCF"
            assert entry.period == 1
            assert entry.restricted_map.comps == (S * S, T * T)
        bottom = levels[1]
        assert bottom.m == 2
        assert bottom.k_m == 1
        labels = {e.label for e in bottom.entries}
        assert labels == {"(1:0:0)", "(0:1:0)", "(0:0:1)"}
        assert all(e.verdict == "terminal" for e in bottom.entries)

    def test_fs_cycle_level(self):
        m = _fs()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        assert len(levels) == 2
        top = levels[0]
        assert top.k_m == 3
        assert len(top.entries) == 3
        for entry in top.entries:
            assert entry.verdict == "PCF"
            assert entry.period == 3
            assert projmap.p1_degree(entry.restricted_map) == 8
        bottom = levels[1]
        assert any(e.label == "(1:1:1)" for e in bottom.entries)

    def test_corank_matches_level(self):
        for name in ("squaring-p2", "fs-1992-a"):
            m = catalog.get(name).map
            graph, _ = pcf.postcritical_graph(m)
            for level in pcf.build_tower(m, graph):
                for entry in level.entries:
                    if entry.embedding is not None:
                        assert entry.embedding.ambient_dim - entry.embedding.source_dim == level.m

    def test_p1_tower_is_terminal(self):
        m = _squaring_p1()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        assert len(levels) == 1
        assert levels[0].m == 1
        labels = {e.label for e in levels[0].entries}
        assert labels == {"(0:1)", "(1:0)"}
        assert all(e.verdict == "terminal" for e in levels[0].entries)

    def test_restricted_budget_marks_inconclusive(self):
        m = _squaring_p2()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph, max_degree=1)
        assert len(levels) == 1  # no level-2 entries behind inconclusive ones
        assert all(e.verdict == "inconclusive(bound)" for e in levels[0].entries)


class TestWeakTransversality:
    def test_coordinate_triangle(self):
        report = pcf.weak_transversality([_line([1, 0, 0]), _line([0, 1, 0]),
                                          _line([0, 0, 1])])
        assert report.verdict == "weakly-transverse"
        assert len(report.evidence) == 3
        for ev in report.evidence:
            assert ev.rank_at_point == 2
            assert ev.exact

    def test_concurrent_lines_still_constant_rank(self):
        report = pcf.weak_transversality([_line([1, 0, 0]), _line([0, 1, 0]),
                                          _line([1, 1, 0])])
        assert report.verdict == "weakly-transverse"
        triple = [ev for ev in report.evidence if len(ev.members) == 3]
        assert len(triple) == 1
        assert triple[0].rank_at_point == 2
        assert triple[0].point == "(0:0:1)"

    def test_tangent_conic_detected(self):
        conic = pcf.make_component(_p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}))
        report = pcf.weak_transversality([conic, _line([0, 0, 1])])
        assert report.verdict == "not-weakly-transverse"
        assert report.witness == "(1:0:0)"
        bad = [ev for ev in report.evidence if ev.point == "(1:0:0)"]
        assert bad[0].rank_at_point == 1
        assert bad[0].generic_rank == 2
        assert bad[0].exact

    def test_transverse_conic_exact(self):
        # x^2 + 2y^2 - z^2 meets x = y at the irrational (1 : 1 : ±√3).
        conic = pcf.make_component(_p(3, 2, {(2, 0, 0): 1, (0, 2, 0): 2,
                                             (0, 0, 2): -1}))
        report = pcf.weak_transversality([conic, _line([1, -1, 0])])
        assert report.verdict == "weakly-transverse"
        assert report.witness is None
        assert len(report.evidence) == 2
        assert not any(ev.exact for ev in report.evidence)
        assert all(ev.rank_at_point == ev.generic_rank for ev in report.evidence)

    def test_irrational_tangency_detected(self):
        # On yz = x^2 with z = 1, y^2 - 3yz + 4z^2 - x^2 is (y - 2)^2, so the
        # conics touch at (±√2 : 2 : 1) and nowhere else.
        a = pcf.make_component(_p(3, 2, {(0, 1, 1): 1, (2, 0, 0): -1}))
        b = pcf.make_component(_p(3, 2, {(0, 2, 0): 1, (0, 1, 1): -3,
                                          (0, 0, 2): 4, (2, 0, 0): -1}))
        report = pcf.weak_transversality([a, b])
        assert report.verdict == "not-weakly-transverse"
        assert [ev.rank_at_point for ev in report.evidence] == [1, 1]
        assert not any(ev.exact for ev in report.evidence)
        assert report.witness == report.evidence[0].point

    def test_tangency_where_the_solver_hint_is_simple(self):
        # x meets y^2 z - x^3 - x z^2 twice at (0:0:1), though the pair
        # solver's multiplicity hint there is 1.
        cubic = pcf.make_component(_p(3, 3, {(0, 2, 1): 1, (3, 0, 0): -1,
                                             (1, 0, 2): -1}))
        _points, mults = numeric.solve_pair_p2(X, cubic.form, 256)
        assert mults == [1, 1]
        report = pcf.weak_transversality([_line([1, 0, 0]), cubic])
        assert report.verdict == "not-weakly-transverse"
        assert report.witness == "(0:0:1)"
        assert {ev.point: ev.rank_at_point for ev in report.evidence} == {
            "(0:0:1)": 1, "(0:1:0)": 2}

    def test_unsolved_pair_named_in_the_witness(self, monkeypatch):
        def fail(a, b, precision):
            raise numeric.NumericalError("no roots")

        monkeypatch.setattr(numeric, "solve_pair_p2", fail)
        conic = pcf.make_component(_p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}))
        report = pcf.weak_transversality([conic, _line([1, -1, 0])])
        assert report.verdict == "weakly-transverse"
        assert report.evidence == ()
        assert report.witness == "points of components 0 and 1 not located: no roots"
        report = pcf.weak_transversality([conic, _line([0, 0, 1])])
        assert report.verdict == "not-weakly-transverse"
        assert report.witness == ("components 0 and 1 are tangent; points of "
                                  "components 0 and 1 not located: no roots")

    def test_rational_point_of_large_height_is_exact(self):
        # xz - y^2 and y - N x meet at (1 : N : N^2) and (0 : 0 : 1).  The
        # first point's normalized coordinates have denominators near 10^14,
        # yet the solver returns it exactly, so the verdict is exact.
        n = 10**7 + 19
        conic = pcf.make_component(_p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}))
        report = pcf.weak_transversality([conic, _line([-n, 1, 0])])
        assert report.verdict == "weakly-transverse"
        assert sorted(ev.point for ev in report.evidence) == [
            "(0:0:1)", f"(1:{n}:{n * n})"]
        assert all(ev.exact for ev in report.evidence)

    def test_seeded_verdicts_agree_with_exact_ranks(self):
        rng = random.Random(1601)
        planted = 0
        while planted < 6:
            # c and c + L^2 M have the same gradient where c and L vanish.
            c = ps.random_form(rng, 3, rng.choice((2, 3)), max_terms=6)
            lin = ps.random_linear(rng, 3)
            d = c + lin * lin * ps.random_form(rng, 3, c.degree - 2, max_terms=3)
            if (poly.squarefree_part(c) != c or d.is_zero()
                    or not poly.gcd(c, d).is_constant()):
                continue
            report = pcf.weak_transversality([pcf.make_component(c),
                                              pcf.make_component(d)])
            assert report.verdict == "not-weakly-transverse", (c, d)
            assert report.witness is not None
            planted += 1
        verdicts = []
        while len(verdicts) < 12:
            # Dense forms through the three coordinate points, with small
            # coefficients, so that some pairs touch at one of them.
            forms = [poly.HomPoly(3, degree, {
                e: Fraction(rng.randint(-1, 1)) for e in _monomials(3, degree)
                if max(e) < degree}) for degree in (2, rng.choice((2, 3)))]
            if (any(f.is_zero() or poly.squarefree_part(f) != f for f in forms)
                    or not poly.gcd(*forms).is_constant()):
                continue
            report = pcf.weak_transversality([pcf.make_component(f) for f in forms])
            ranks = [projmap.exact_rank([[poly.partial(f, j).evaluate(_coords(ev.point))
                                          for j in range(3)] for f in forms])
                     for ev in report.evidence if ev.exact]
            assert len(ranks) >= 3  # the coordinate points
            assert [ev.rank_at_point for ev in report.evidence if ev.exact] == ranks
            if min(ranks) < 2:
                assert report.verdict == "not-weakly-transverse"
            verdicts.append((report.verdict, min(ranks)))
        assert {("weakly-transverse", 2), ("not-weakly-transverse", 1)} <= set(verdicts)

    def test_triple_point_with_a_conic_is_transverse(self):
        # x, y and xz + yz + xy meet pairwise transversally at (0:0:1), with
        # gradients (1,0,0), (0,1,0) and (1,1,0).  By Euler's identity every
        # gradient at a common zero is orthogonal to it, so no rank there
        # reaches 3; only the pairs can be tested.
        conic = pcf.make_component(_p(3, 2, {(1, 0, 1): 1, (0, 1, 1): 1,
                                             (1, 1, 0): 1}))
        report = pcf.weak_transversality([_line([1, 0, 0]), _line([0, 1, 0]), conic])
        assert report.verdict == "weakly-transverse"
        assert report.witness is None
        triple = [ev for ev in report.evidence if ev.point == "(0:0:1)"]
        assert len(triple) == 1 and triple[0].members == (0, 1, 2)
        assert triple[0].rank_at_point == triple[0].generic_rank == 2
        assert all(ev.exact for ev in report.evidence)

    def test_tangent_pair_flagged_inside_a_triple_point(self):
        # 4xz - y^2 is tangent to x = 0 at (0:0:1); y's gradient lifts the
        # rank of all three members to 2 there, but the tangent pair has 1.
        conic = pcf.make_component(_p(3, 2, {(1, 0, 1): 4, (0, 2, 0): -1}))
        report = pcf.weak_transversality([_line([1, 0, 0]), _line([0, 1, 0]), conic])
        assert report.verdict == "not-weakly-transverse"
        assert report.witness == "(0:0:1)"
        triple = [ev for ev in report.evidence if ev.point == "(0:0:1)"]
        assert triple[0].members == (0, 1, 2)
        assert triple[0].rank_at_point == 1

    def test_duplicates_rejected(self):
        with pytest.raises(pcf.PcfError):
            pcf.weak_transversality([_line([1, 0, 0]), _line([2, 0, 0])])


def _containment(m):
    graph, _ = pcf.postcritical_graph(m)
    levels = pcf.build_tower(m, graph)
    crit = pcf.critical_components(m)
    return pcf.restricted_critical_containment(m, levels[0], crit)


def _matches(report):
    return {label: (verdict, [(p.point, p.matched, p.step) for p in points])
            for label, verdict, points in report.entries}


class TestContainment:
    def test_squaring_p2_passes_with_coordinate_points(self):
        report = _containment(_squaring_p2())
        assert report.ok
        for label, verdict, points in report.entries:
            assert verdict == "pass"
            assert len(points) == 2
            for pt in points:
                assert pt.ok
                assert pt.matched is not None
                assert pt.step == 0

    def test_fs_containment_passes_through_deep_iterate(self):
        # The critical points of f^3 on each period-3 line: two rational
        # points on critical lines of f, a quadratic that f maps onto one,
        # and a quartic that f^2 maps onto one.
        report = _containment(_fs())
        assert report.ok
        assert _matches(report) == {
            "y - z": ("pass", [
                ("(0:1:1)", "x", 0), ("(2:1:1)", "x - 2*y", 0),
                ("s^2 + 4*s*t - 4*t^2", "x - 2*z", 1),
                ("s^4 + 24*s^3*t - 8*s^2*t^2 - 32*s*t^3 + 16*t^4", "x - 2*y", 2)]),
            "x - z": ("pass", [
                ("(0:1:0)", "x", 0), ("(2:1:2)", "x - 2*y", 0),
                ("s^2 + 4*s*t - 4*t^2", "x - 2*y", 1),
                ("s^4 - 24*s^3*t + 40*s^2*t^2 - 32*s*t^3 + 16*t^4", "x - 2*z", 2)]),
            "x - y": ("pass", [
                ("(0:0:1)", "x", 0), ("(2:2:1)", "x - 2*z", 0),
                ("s^2 - 8*s*t + 8*t^2", "x - 2*y", 1),
                ("s^4 + 16*s^3*t - 80*s^2*t^2 + 128*s*t^3 - 64*t^4", "x - 2*y", 2)]),
        }

    def test_conjugate_matches_base_map_step_by_step(self):
        m, _, _ = cli.load_input(str(GOLDEN_DIR / "fs-1992-a-conj.json"))

        def shape(report):
            return sorted((verdict, tuple(p.step for p in points))
                          for _label, verdict, points in report.entries)

        base = shape(_containment(_fs()))
        assert base == [("pass", (0, 0, 1, 2))] * 3
        assert shape(_containment(projmap.validate(m).map)) == base

    def test_period_two_critical_lines_pass(self):
        # x = 0 and y = 0 are critical and swapped by f, so each step skips
        # the line the orbit is on: x at even steps, y at odd ones.  Every
        # critical point of f^2 on either line still lies in crit(f^2).
        for c in (X * X - Y * Z + 2 * Z * Z, 3 * X * Y + Y * Z - Z * Z + X * Z):
            checked = projmap.validate(projmap.ProjectiveMap([Y * Y, X * X, c]))
            assert checked.ok
            m = checked.map
            big = projmap.iterate(m, 2)
            entries = []
            for form in (X, Y):
                emb = projmap.embedding_for_hyperplane(form)
                entries.append(pcf.TowerEntry(emb, projmap.restrict(big, emb, emb),
                                              "PCF", str(form), 2, form))
            level = pcf.TowerLevel(1, 2, tuple(entries))
            report = pcf.restricted_critical_containment(
                m, level, pcf.critical_components(m))
            assert report.ok
            for label, _verdict, points in report.entries:
                steps = {p.step for p in points}
                assert steps == {0, 1}
                for p in points:
                    on = label if p.step == 0 else ("y" if label == "x" else "x")
                    assert p.matched != on

    def test_unmatched_factor_fails(self):
        # Hand-made restrictions of squaring-p2 to x = 0 whose critical
        # points no step of the real orbit reaches: (0:1:1) and the
        # irrational pair s^2 + 2t^2.
        m = _squaring_p2()
        graph, _ = pcf.postcritical_graph(m)
        entry = pcf.build_tower(m, graph)[0].entries[0]
        fakes = (projmap.ProjectiveMap([S * S, (S - T) * (S - T)]),
                 projmap.ProjectiveMap([S * S - 2 * T * T, S * T]))
        level = pcf.TowerLevel(1, 2, tuple(dataclasses.replace(entry, restricted_map=g)
                                           for g in fakes))
        report = pcf.restricted_critical_containment(m, level,
                                                     pcf.critical_components(m))
        assert not report.ok
        assert [(v, [(p.point, p.matched, p.ok, p.step) for p in pts])
                for _label, v, pts in report.entries] == [
            ("fail", [("(0:0:1)", "y", True, 0), ("(0:1:1)", None, False, None)]),
            ("fail", [("s^2 + 2*t^2", None, False, None)]),
        ]

    def test_component_containing_the_orbit_is_skipped(self):
        # Sym^2 maps the line y = 0 onto the conic 4xz - y^2.  At step 1 the
        # conic vanishes on the whole orbit, so it is skipped and matches
        # nothing, rather than every point.
        sym2 = projmap.ProjectiveMap([X * X, Y * Y - 2 * X * Z, Z * Z])
        conic = pcf.make_component(4 * X * Z - Y * Y)
        emb = projmap.embedding_for_hyperplane(Y)
        fake = projmap.ProjectiveMap([S * S - 2 * T * T, S * T])
        level = pcf.TowerLevel(1, 2, (pcf.TowerEntry(emb, fake, "PCF", "y", 2, Y),))
        crit = tuple(pcf.make_component(v) for v in (X, Y, Z)) + (conic,)
        report = pcf.restricted_critical_containment(sym2, level, crit)
        assert _matches(report) == {"y": ("fail", [("s^2 + 2*t^2", None, None)])}

    def test_terminal_entries_vacuous(self):
        m = _squaring_p1()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        report = pcf.restricted_critical_containment(m, levels[0], ())
        assert report.ok
        assert all(v == "vacuous" for _, v, _pts in report.entries)


class TestTopDegree:
    def test_squaring_p2(self):
        m = _squaring_p2()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        checks = pcf.topdeg_check(levels[0], m.d)
        assert len(checks) == 3
        assert all(c.expected == 2 and c.actual == 2 and c.ok for c in checks)

    def test_fs_degree_eight(self):
        m = _fs()
        graph, _ = pcf.postcritical_graph(m)
        levels = pcf.build_tower(m, graph)
        checks = pcf.topdeg_check(levels[0], m.d)
        assert len(checks) == 3
        assert all(c.expected == 8 and c.actual == 8 and c.ok for c in checks)


class TestRandomizedLaws:
    def test_component_normalization(self):
        assert ps.suite_component_normalization(n=60) == 60

    def test_image_route_agreement(self):
        assert ps.suite_image_agreement(n=60) == 60
