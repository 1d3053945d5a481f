"""Basin scans: candidate derivation, grid labeling, summaries, determinism."""

import cmath
import io
import itertools
import tokenize
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from pcflab import catalog, cli, fatou, numeric, pcf, poly, projmap

import property_suites as ps
import scan_reference

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _squaring_p2():
    return catalog.get("squaring-p2").map


def _graph_and_tower(m):
    graph, verdict = pcf.postcritical_graph(m)
    assert verdict.ok
    tower = pcf.build_tower(m, graph)
    return graph, tower


COORD_CANDS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _compiled_sources(monkeypatch):
    """The sources fatou compiles from now on, in order."""
    sources = []
    real_compile = compile

    def spy(source, *args):
        sources.append(source)
        return real_compile(source, *args)

    monkeypatch.setattr(fatou, "compile", spy, raising=False)
    return sources


class TestSuperattractingCandidates:
    def test_squaring_p2_coordinate_points(self):
        m = _squaring_p2()
        graph, tower = _graph_and_tower(m)
        cands = fatou.superattracting_candidates(m, graph, tower)
        as_ints = {tuple(int(x) for x in c) for c in cands}
        assert as_ints == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_squaring_p1_both_points(self):
        m = catalog.get("squaring-p1").map
        graph, tower = _graph_and_tower(m)
        cands = fatou.superattracting_candidates(m, graph, tower)
        as_ints = {tuple(int(x) for x in c) for c in cands}
        assert as_ints == {(0, 1), (1, 0)}

    def test_fs_has_none(self):
        # The three-line cycle is repelling along the lines, so no
        # post-critical intersection point survives the nilpotency filter.
        m = catalog.get("fs-1992-a").map
        graph, tower = _graph_and_tower(m)
        assert fatou.superattracting_candidates(m, graph, tower) == []

    def test_irrational_points_of_the_line(self, monkeypatch):
        # Newton's map for z^2 - 2, (s^2 + 2t^2 : 2st), has the one
        # post-critical node s^2 - 2t^2, which has no rational root: its
        # points (+-sqrt(2) : 1) are found numerically and each is a fixed
        # point by the numeric period search.
        s, t = poly.variable(2, 0), poly.variable(2, 1)
        m = projmap.ProjectiveMap([s * s + (t * t).scale(2), (s * t).scale(2)])
        graph, tower = _graph_and_tower(m)
        assert [str(node) for node in graph.nodes] == ["s^2 - 2*t^2"]
        periods = []
        real = fatou._numeric_orbit_period

        def period(*args):
            periods.append(real(*args))
            return periods[-1]

        monkeypatch.setattr(fatou, "_numeric_orbit_period", period)
        cands = fatou.superattracting_candidates(m, graph, tower)
        assert periods == [1, 1]
        precision = numeric.resolve_precision(None)
        with mpmath.workprec(precision):
            tol = numeric.tolerances(precision).dedup
            roots = [(sign * mpmath.sqrt(2), 1) for sign in (1, -1)]
            assert len(cands) == 2
            for root in roots:
                assert sum(numeric.proj_distance(c, ps.point(root)) < tol for c in cands) == 1

    def test_node_of_a_component_is_a_candidate(self):
        # Sym^2 of Newton's map for z^2 - 2 fixes (1 : 0 : -2) with spectrum
        # (0, 0).  It lies on one post-critical component only, the node of
        # 4x^2 + 4xz - 2y^2 + z^2 (two conjugate lines), so no pair of
        # components meets there; its basin holds half of the window.
        x, y, z = (poly.variable(3, i) for i in range(3))
        m = projmap.ProjectiveMap([(x * z).scale(4), (x * y).scale(4) + (y * z).scale(2),
                                   (x * x).scale(4) - (x * z).scale(4) + (y * y).scale(2) + z * z])
        graph, tower = _graph_and_tower(m)
        node = poly.canonical((x * x).scale(4) + (x * z).scale(4) - (y * y).scale(2) + z * z)
        assert node in [n.form for n in graph.nodes]
        cands = fatou.superattracting_candidates(m, graph, tower)
        assert cands[0] == (1, 0, -2) and len(cands) == 3
        assert all(isinstance(c, numeric.Point) for c in cands[1:])
        config = fatou.ScanConfig(2, (0, 0), 0.9, 16, candidates=tuple(cands))
        summary = fatou.basin_summary(fatou.scan(m, config))
        assert summary.consistency == "CONSISTENT"
        assert summary.fractions == (0.5, 0.25, 0.25)

    def test_singular_points(self):
        # A smooth conic has none.  y^2 z^2 - (x^2 - 2z^2)^2 is singular at
        # (0 : 1 : 0) and at (+-sqrt 2 : 0 : 1), where its gradient is
        # rounding noise at a Point.
        x, y, z = (poly.variable(3, i) for i in range(3))
        assert fatou._singular_points(x * z - y * y, 256) == []
        quartic = (y * z) ** 2 - (x * x - (z * z).scale(2)) ** 2
        points = fatou._singular_points(quartic, 256)
        assert [pt for pt in points if numeric.is_exact(pt)] == [(0, 1, 0)]
        irrational = [pt for pt in points if not numeric.is_exact(pt)]
        with mpmath.workprec(256):
            for sign in (1, -1):
                root = ps.point((sign * mpmath.sqrt(2), 0, 1))
                assert sum(numeric.same_point(pt, root) for pt in irrational) == 1
        assert len(points) == 3
        # The triangle xyz has no coprime pair of partials to solve.
        with pytest.raises(numeric.NumericalError, match="coprime"):
            fatou._singular_points(x * y * z, 256)

    def test_numeric_orbit_period(self, monkeypatch):
        # No catalog candidate is irrational, so this is the only caller
        # of the numeric period search.  Squaring moves (1 : w : 0), w a
        # primitive cube root of unity, to (1 : w^2 : 0) and back; the
        # orbit of (1 : 2 : 1) tends to (0 : 1 : 0) and never returns.
        m = _squaring_p2()
        with mpmath.workprec(256):
            w = mpmath.exp(2j * mpmath.pi / 3)
            assert fatou._numeric_orbit_period(m, ps.point((1, w, 0)), 256) == 2
            assert fatou._numeric_orbit_period(m, ps.point((1, w * w, 0)), 256) == 2
        # Each step compares the image with the start; the images are the
        # reference orbit's, bit for bit.
        steps = []
        real = numeric.same_point

        def same(p, q):
            steps.append(list(p.parts))
            return real(p, q)

        monkeypatch.setattr(numeric, "same_point", same)
        assert fatou._numeric_orbit_period(m, (1, 2, 1), 256) is None
        monkeypatch.undo()
        want = ps.orbit(m, (1, 2, 1), fatou.ORBIT_PERIOD_BOUND, 256)
        assert steps == [list(p.parts) for p in want]


class TestIntersectionPoints:
    def test_rational_point_of_large_height_is_exact(self):
        # xz - y^2 and y - N x meet at (1 : N : N^2), whose normalized
        # coordinates have denominators near 10^14, and at (0 : 0 : 1).
        n = 10**7 + 19
        conic = ps.make_component(poly.HomPoly(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1}))
        line = ps.make_component(poly.linear_form([-n, 1, 0]))
        points, failed = projmap.pairwise_intersections([conic.form, line.form], 256)
        assert sorted(points) == [((0, 0, 1), [(0, 1)]), ((1, n, n * n), [(0, 1)])]
        assert failed == []

    def test_points_carry_the_pairs_that_meet_there(self):
        # x, y and x + y meet only at (0:0:1), and so does the conic
        # 4xz - y^2, which meets y again at (1:0:0) and x + y at (4:-4:1).
        forms = [poly.linear_form([1, 0, 0]), poly.linear_form([0, 1, 0]),
                 poly.linear_form([1, 1, 0]),
                 poly.HomPoly(3, 2, {(1, 0, 1): 4, (0, 2, 0): -1})]
        points, failed = projmap.pairwise_intersections(forms, 256)
        assert failed == []
        assert points == [
            ((0, 0, 1), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            ((1, 0, 0), [(1, 3)]),
            ((4, -4, 1), [(2, 3)])]


class TestScanConfig:
    def test_resolution_floor(self):
        with pytest.raises(fatou.FatouError):
            fatou.ScanConfig(2, (0, 0), 0.5, 1)

    def test_positive_tolerance(self):
        with pytest.raises(fatou.FatouError):
            fatou.ScanConfig(2, (0, 0), 0.5, 4, tol=0.0)

    def test_chart_range_checked_at_scan(self):
        cfg = fatou.ScanConfig(7, (0, 0), 0.5, 4, candidates=COORD_CANDS)
        with pytest.raises(fatou.FatouError):
            fatou.scan(_squaring_p2(), cfg)

    def test_zero_candidate_rejected(self):
        cfg = fatou.ScanConfig(2, (0, 0), 0.5, 4, candidates=((0, 0, 0),))
        with pytest.raises(fatou.FatouError):
            fatou.scan(_squaring_p2(), cfg)


class TestScanWindows:
    def test_origin_window_all_to_z(self):
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (0, 0), 0.9, 16, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        summary = fatou.basin_summary(grid)
        assert summary.fractions[2] == 1.0
        assert summary.nonconverged_fraction == 0.0
        assert summary.decay_fraction == 1.0
        assert summary.consistency == "CONSISTENT"
        assert summary.finding_pixels == 0
        assert grid.failures == 0

    def test_outer_window_all_to_x(self):
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (2, 0.5), 0.2, 16, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        summary = fatou.basin_summary(grid)
        assert summary.fractions[0] == 1.0
        assert summary.nonconverged_fraction == 0.0
        assert summary.consistency == "CONSISTENT"

    def test_repelling_fixed_point_stays_unlabeled(self):
        # Radius 0 pins every pixel to (1:1:1), which never converges to a
        # candidate and never shows derivative decay, so the grid reports
        # settled, unlabeled, CONSISTENT.
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (1, 1), 0.0, 2, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        assert all(lab == -1 for row in grid.labels for lab in row)
        assert all(s for row in grid.settled for s in row)
        assert not any(d for row in grid.decayed for d in row)
        summary = fatou.basin_summary(grid)
        assert summary.consistency == "CONSISTENT"
        assert summary.nonconverged_fraction == 1.0

    def test_radius_zero_is_one_orbit(self):
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (0.25, 0.125), 0.0, 3, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        first_label = grid.labels[0][0]
        first_iter = grid.iters[0][0]
        assert all(lab == first_label for row in grid.labels for lab in row)
        assert all(it == first_iter for row in grid.iters for it in row)

    def test_label_soundness_by_reiteration(self):
        # Independent check: push each labeled pixel's starting point with
        # the exact-map evaluator and confirm it approaches its candidate.
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (0.3, -0.2), 0.5, 8, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        origins = scan_reference.pixel_origin(cfg, m.k)
        import mpmath
        with mpmath.workprec(64):
            for row in range(cfg.resolution):
                for col in range(cfg.resolution):
                    lab = grid.labels[row][col]
                    if lab < 0:
                        continue
                    pt = origins[row][col]
                    final = ps.orbit(m, pt, cfg.max_iters, 64)[-1]
                    dist = numeric.proj_distance(final, cfg.candidates[lab])
                    assert dist < cfg.tol


class TestDeterminism:
    def test_identical_reruns(self):
        m = _squaring_p2()
        cfg = fatou.ScanConfig(0, (0.1 + 0.2j, -0.3), 0.7, 12,
                               max_iters=40, candidates=COORD_CANDS)
        a = fatou.scan(m, cfg)
        b = fatou.scan(m, cfg)
        assert a.labels == b.labels
        assert a.iters == b.iters
        assert a.decayed == b.decayed
        assert a.settled == b.settled
        assert a.failures == b.failures

    def test_randomized_determinism_suite(self):
        assert ps.suite_scan_determinism(n=60) == 60


class TestReferenceLoop:
    """The compiled scan equals the scalar reference loop bit for bit."""

    def _same(self, m, cfg):
        grid = fatou.scan(m, cfg)
        assert grid == scan_reference.scan(m, cfg)
        return grid

    def test_charts_zero_and_one(self):
        for chart in (0, 1):
            for name in ("squaring-p2", "fs-1992-a"):
                cfg = fatou.ScanConfig(chart, (0.4 + 0.1j, -0.7), 1.1, 7,
                                       max_iters=24, candidates=COORD_CANDS)
                self._same(catalog.get(name).map, cfg)
        cfg = fatou.ScanConfig(0, (0.2 - 0.3j,), 1.5, 7,
                               candidates=((1, 0), (0, 1)))
        self._same(catalog.get("squaring-p1").map, cfg)

    def test_starts_on_every_chart(self):
        # A start with a coordinate of modulus above 1, or of modulus 1
        # before the chart's 1.0 + 0j, is divided by that coordinate, not
        # by the chart's: every chart of P^2 and of P^1 gets such starts.
        # The second window's coordinates are -1, -0.5, 0, 0.5 and 1, so
        # on chart 0 every start keeps the chart.  At moduli near 10^150
        # (scanned unfolded) a start divided by the chart's coordinate
        # instead gives other grids.
        def pivots(cfg, k):
            return {scan_reference.normalize_c(p)[1]
                    for row in scan_reference.pixel_origin(cfg, k) for p in row}

        windows = (((1.2 - 0.4j, -0.9 + 0.3j), 1.3), ((0, 0), 1.0),
                   ((40 + 3j, -25), 30.0), ((1e150, 0.5), 1.0))
        for chart in range(3):
            for center, radius in windows:
                cfg = fatou.ScanConfig(chart, center, radius, 5, max_iters=24,
                                       candidates=COORD_CANDS)
                assert (pivots(cfg, 2) == {chart}) == (chart == 0 and center == (0, 0))
                for name in ("squaring-p2", "fs-1992-a"):
                    self._same(catalog.get(name).map, cfg)
        for chart in (0, 1):
            for center, radius in (((0.9 - 0.8j,), 1.2), ((1e150 + 1j,), 1.0)):
                cfg = fatou.ScanConfig(chart, center, radius, 7,
                                       candidates=((1, 0), (0, 1)))
                assert pivots(cfg, 1) - {chart}
                self._same(catalog.get("squaring-p1").map, cfg)

    def test_starts_beyond_the_double_range(self):
        # At radius 1e308, 2 r overflows: every start coordinate off the
        # chart is NaN or infinite.  Each orbit but the all-NaN one, whose
        # values at the chart stay 1, fails at its first step.
        cfg = fatou.ScanConfig(2, (0.3, -0.2), 1e308, 5, candidates=COORD_CANDS)
        assert not any(all(cmath.isfinite(v) for v in p[:2])
                       for row in scan_reference.pixel_origin(cfg, 2) for p in row)
        assert self._same(_squaring_p2(), cfg).failures == 24

    def test_dense_conjugate(self):
        m, _, _ = cli.load_input(str(GOLDEN_DIR / "fs-1992-a-conj.json"))
        cfg = fatou.ScanConfig(2, (0.1, 0.25), 0.9, 6, max_iters=40,
                               candidates=COORD_CANDS)
        self._same(m, cfg)

    def test_no_candidates(self):
        cfg = fatou.ScanConfig(2, (0.3, 0.2), 0.6, 6, max_iters=40)
        grid = self._same(catalog.get("fs-1992-a").map, cfg)
        assert all(lab == -1 for row in grid.labels for lab in row)

    def test_orbit_reaching_zero_vector(self):
        # y * (x : y : z) vanishes on the pixel row y = 0, which an odd
        # resolution centred on y = 0 hits exactly: each of its five
        # pixels is a failure.
        y = poly.variable(3, 1)
        m = projmap.ProjectiveMap([y * poly.variable(3, i) for i in range(3)])
        cfg = fatou.ScanConfig(2, (0.2, 0), 0.5, 5, candidates=COORD_CANDS)
        grid = self._same(m, cfg)
        assert grid.failures == 5
        assert grid.labels[2] == (-1,) * 5
        assert grid.settled[2] == (False,) * 5

    def test_chain_overflow_and_nan(self):
        # With coefficients of 10^200, fb * fb overflows, inv2 is 0 and the
        # chain turns NaN, which freezes it undecayed: no pixel decays.  A
        # NaN-blind norm read the column whose first affine coordinate is
        # exactly 0 as decayed (8, 9 and 9 pixels).  At 10^150 every pixel
        # decays.
        comps = _squaring_p2().comps
        for scale, decayed in ((10 ** 150, [81, 81, 81]), (10 ** 200, [0, 0, 0])):
            m = projmap.ProjectiveMap([c.scale(scale) for c in comps])
            counts = [sum(map(sum, self._same(m, fatou.ScanConfig(
                chart, (0, -0.2), 0.9, 9, candidates=COORD_CANDS)).decayed))
                for chart in range(3)]
            assert counts == decayed

    def test_nan_chain_is_not_decayed(self, monkeypatch):
        # On (10^-150 xy : 2 10^154 xy - 3 10^154 xz : -10^154 xz) the chain
        # of most pixels turns NaN while its other entries fall below the
        # decay threshold.  Only the pixels whose chain decayed with no NaN
        # entry are flagged; a norm that skipped a NaN after the first
        # entry flagged 8 more.
        x, y, z = (poly.variable(3, i) for i in range(3))
        big = 10 ** 154
        m = projmap.ProjectiveMap([(x * y).scale(Fraction(1, 10 ** 150)),
                                   (x * y).scale(2 * big) - (x * z).scale(3 * big),
                                   (x * z).scale(-big)])
        below = []  # per chain below the threshold: whether it is free of NaN
        real = scan_reference.chain_step

        def spy(*args):
            chain = real(*args)
            if chain is not None:
                entries = [e for row in chain for e in row]
                if max(abs(e) for e in entries) < fatou.DERIVATIVE_DECAY_THRESHOLD:
                    below.append(all(e == e for e in entries))
            return chain

        monkeypatch.setattr(scan_reference, "chain_step", spy)
        grid = self._same(m, fatou.ScanConfig(0, (-0.6165, 0.4343), 0.8, 4))
        assert sum(map(sum, grid.decayed)) == below.count(True) == 3
        assert below.count(False) == 8

    def test_non_coordinate_candidates(self):
        # The conjugate's derived candidates have no zero coordinate and a
        # 1 where they are normalized, (1:1:0) has a 0 and two 1s and
        # (2:0:1) normalizes to (1 : 0 : 1/2), so near tests keep every
        # cross product, fold some factors or drop some products.
        m, _, _ = cli.load_input(str(GOLDEN_DIR / "squaring-p2-conj21.json"))
        graph, tower = _graph_and_tower(m)
        cands = tuple(fatou.superattracting_candidates(m, graph, tower))
        cands += ((1, 1, 0), (2, 0, 1))
        labels = set()
        for center, tol in (((1, 1), 1e-9), ((-0.5, 0.5), 1e-9), ((0.3, 0.2), 0.4)):
            cfg = fatou.ScanConfig(2, center, 0.8, 7, max_iters=30, tol=tol,
                                   candidates=cands)
            labels.update(lab for row in self._same(m, cfg).labels for lab in row)
        assert labels == {0, 1, 2, 4}

    def test_cubic_maps(self):
        # Cubes stay y ** 3 while squares are folded; the cube map has zero
        # partials and labels, the dense cubics have neither.
        for k in (1, 2):
            exps = [e for e in itertools.product(range(4), repeat=k + 1) if sum(e) == 3]
            cube = [poly.HomPoly(k + 1, 3, {tuple(3 * (t == i) for t in range(k + 1)): 1})
                    for i in range(k + 1)]
            dense = [c + poly.HomPoly(k + 1, 3, {
                e: Fraction((-1) ** (i + n) * (1 + (3 * i + n) % 4), 10)
                for n, e in enumerate(exps)}) for i, c in enumerate(cube)]
            cands = tuple(tuple(int(t == i) for t in range(k + 1)) for i in range(k + 1))
            center = (0.4 + 0.2j, -0.3)[:k]
            for comps in (cube, dense):
                for chart in range(k + 1):
                    cfg = fatou.ScanConfig(chart, center, 0.9, 7, max_iters=30,
                                           candidates=cands)
                    grid = self._same(projmap.ProjectiveMap(comps), cfg)
                    if comps is cube:
                        assert any(lab >= 0 for row in grid.labels for lab in row)

    def test_value_beyond_double_range(self):
        # abs() raises where a modulus exceeds the double range while its
        # parts do not; the reference lets the OverflowError out.
        x, y, z = (poly.variable(3, i) for i in range(3))
        m = projmap.ProjectiveMap([(x * x + y * y + z * z).scale(8 * 10 ** 307),
                                   y * y, z * z])
        cfg = fatou.ScanConfig(2, (0.9 + 0.3j, -0.8), 0.6, 9, candidates=COORD_CANDS)
        with pytest.raises(OverflowError):
            scan_reference.scan(m, cfg)
        with pytest.raises(fatou.FatouError, match="left the double range"):
            fatou.scan(m, cfg)

    def test_folds_only_while_values_stay_finite(self):
        # A dropped zero is exact only while what it multiplies is finite.
        # (t^2 : 10^200 t^2) has coefficients beyond FOLD_BOUND, so its scan
        # is unfolded; 10^-160 (z^2 : xy : 3 z^2) has values whose squares
        # are subnormal, so 1 / fb^2 would overflow and the folded loop gives
        # up.  Folded regardless, both grids differ from the reference.
        t2 = poly.HomPoly(2, 2, {(0, 2): 1})
        self._same(projmap.ProjectiveMap([t2, t2.scale(10 ** 200)]), fatou.ScanConfig(
            0, (1.09,), 1.0, 6, max_iters=20, tol=1e-3, candidates=((1, 0), (0, 1))))
        x, y, z = (poly.variable(3, i) for i in range(3))
        m = projmap.ProjectiveMap([f.scale(Fraction(1, 10 ** 160))
                                   for f in (z * z, x * y, (z * z).scale(3))])
        self._same(m, fatou.ScanConfig(1, (0, 1.1), 0.3, 5, max_iters=20, tol=1e-3,
                                       candidates=COORD_CANDS))

    def test_scan_given_up_is_rerun_unfolded(self, monkeypatch):
        # With y^2 and z^2 scaled by 10^-120, a point with x = 0 has an image
        # below 1 / FOLD_BOUND: in chart 2 that is the middle column, so the
        # folded loop gives up and the unfolded loop runs the whole scan.
        sq = _squaring_p2().comps
        m = projmap.ProjectiveMap([sq[0]] + [c.scale(Fraction(1, 10 ** 120)) for c in sq[1:]])
        sources = _compiled_sources(monkeypatch)
        grid = self._same(m, fatou.ScanConfig(2, (0, 0.3), 0.5, 5, candidates=COORD_CANDS))
        assert [("** 2" in source) for source in sources] == [False, True]
        assert [row[2] for row in grid.labels] != [row[1] for row in grid.labels]


class TestCompiledEvaluators:
    # Every number token of a generated source is an exponent or one of these.
    FIXED = {"0", "1", "2", "0j", "0.0", "1.0", "1e100",
             repr(fatou.DERIVATIVE_DECAY_THRESHOLD), str(fatou.CONSECUTIVE_HITS)}

    def _terms(self, n):
        # Large rationals that print as long digit strings.
        return [{"num": str(7 ** (40 + i) * (-1) ** i), "den": str(3 ** (20 + i)),
                 "exps": e} for i, e in enumerate(
                     ([2, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 2])[:n])]

    def test_values_exact_and_source_carries_no_data(self, monkeypatch):
        m = cli.parse_mapfile({"k": 2, "degree": 2, "components": [
            self._terms(4), self._terms(3), self._terms(2)]})
        forms = list(m.comps) + [poly.partial(c, 0) for c in m.comps]

        class Form:  # complex and mpmath coefficients, as _to_complex takes
            terms = {(3, 0, 0): 1.5e300 - 2.5e-300j,
                     (1, 2, 0): mpmath.mpc("0.1", "-7.25"),
                     (0, 0, 3): Fraction(-10 ** 30, 7 ** 15)}

        class Cancelling:  # at (1, 1, 1) the sum is 0 in sorted order, 1 in this one
            terms = {(3, 0, 0): -10 ** 16, (0, 3, 0): 10 ** 16, (0, 0, 3): 1}
        forms += [Form, Cancelling]
        # The form texts the scan loop is generated from, as one function.
        coef = []
        exprs = [fatou._form_expr(f, coef, True) for f in forms]
        evaluate = eval(f"lambda y0, y1, y2: ({', '.join(exprs)},)",
                        {f"c{i}": c for i, c in enumerate(coef)})
        points = [(0.3 + 0.1j, -1.7 + 0j, 2e-3 - 4j), (1 + 0j, -0.0 + 0j, 0j),
                  (1e50 + 1e-150j, -3j, 0.5 + 0.5j),
                  (1 + 0j, 1 + 0j, 1 + 0j)]
        for point in points:
            got = evaluate(*point)
            want = [scan_reference.ceval(scan_reference.terms(f), point)
                    for f in forms]
            assert [(v.real.hex(), v.imag.hex()) for v in got] == \
                [(v.real.hex(), v.imag.hex()) for v in want]

        sources = []
        real_compile = compile

        def spy(source, *args):
            sources.append(source)
            return real_compile(source, *args)

        monkeypatch.setattr(fatou, "compile", spy, raising=False)
        cfg = fatou.ScanConfig(2, (0.3, -0.2), 0.5, 3, max_iters=8,
                               candidates=COORD_CANDS)
        assert fatou.scan(m, cfg) == scan_reference.scan(m, cfg)
        assert len(sources) == 1
        # The form texts, the map's partials included, hold only generated
        # names, integer exponents and the 0j start; the loop's own literals
        # may also come from FIXED.
        partials = [poly.partial(c, j) for c in m.comps for j in range(3)]
        form_text = "\n".join(exprs + [fatou._form_expr(f, [], True) for f in partials])
        for text, allowed in ((form_text, {"0j"}), (sources[0], self.FIXED)):
            tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
            for prev, tok in zip(tokens, tokens[1:]):
                if tok.type == tokenize.NUMBER:
                    assert tok.string in allowed or (
                        prev.string == "**" and tok.string.isdigit()), tok.string
        # Nor does any coefficient's text; texts of up to three characters
        # would match generated names, and the token check covers them.
        generated = sources[0] + "\n" + form_text
        for c in (c for f in forms + partials for c in f.terms.values()):
            texts = {str(c), repr(fatou._to_complex(c))}
            if isinstance(c, (int, Fraction)):
                texts |= {str(c.numerator), str(c.denominator)}
            assert not any(t in generated for t in texts if len(t) > 3), c

    def test_unit_coefficients_fold_exactly(self):
        # Coefficients of 1 and -1 are folded and others kept; at points
        # with negative parts and zeros of either sign every value is the
        # reference's bit for bit.  A constant term keeps its coefficient.
        x, y, z = (poly.variable(3, i) for i in range(3))

        class Units:  # complex and mpmath spellings of 1 and -1
            terms = {(3, 0, 0): complex(1.0, -0.0), (1, 1, 1): mpmath.mpf(-1),
                     (0, 2, 1): -1 + 0j, (0, 0, 3): 2.5}

        forms = [x * x - y * y - x * z, (x ** 3).scale(-1) + y * z * z - z ** 3,
                 (x * y).scale(3) - y * y + (z * z).scale(Fraction(-1, 3)),
                 Units, poly.constant(3, 1), poly.constant(3, -1)]
        coef = []
        exprs = [fatou._form_expr(f, coef, True) for f in forms]
        assert coef == [-1 / 3, 3, 2.5, 1, -1]
        assert exprs[:2] == ["0j + -(y1 * y1) + -y0 * y2 + (y0 * y0)",
                             "0j + -y2 ** 3 + y1 * (y2 * y2) + -y0 ** 3"]
        evaluate = eval(f"lambda y0, y1, y2: ({', '.join(exprs)},)",
                        {f"c{i}": c for i, c in enumerate(coef)})
        values = [complex(a, b) for a in (-0.0, 0.0, -1.5, 0.75)
                  for b in (-0.0, 0.0, -2.0)]
        for point in itertools.product(values, repeat=3):
            got = evaluate(*point)
            want = [scan_reference.ceval(scan_reference.terms(f), point) for f in forms]
            assert [(v.real.hex(), v.imag.hex()) for v in got] == \
                [(v.real.hex(), v.imag.hex()) for v in want], point

    def test_folds_in_the_source(self, monkeypatch):
        # squaring-p2 has six zero partials of nine, squares only, and with
        # coordinate candidates no near test multiplies by a coordinate.
        # Its forms' coefficients of 1 are folded: only the partials' 2s
        # are bound.
        m = _squaring_p2()
        sources = _compiled_sources(monkeypatch)
        fatou.scan(m, fatou.ScanConfig(2, (0.3, -0.2), 0.5, 3, candidates=COORD_CANDS))
        [source] = sources
        coef = []
        partials = [poly.partial(f, j) for f in m.comps for j in range(3)]
        assert fatou._loop_source(m, 2, partials, COORD_CANDS, coef, True) == source
        assert coef == [2, 2, 2]
        tokens = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)]
        names = set(tokens)
        zero = {f"d{i * 3 + j}" for i, f in enumerate(m.comps) for j in range(3)
                if not poly.partial(f, j).terms}
        assert len(zero) == 6 and not zero & names
        assert "** 2" not in source and ("0", "+") not in set(zip(tokens, tokens[1:]))
        unpack = [line for line in source.splitlines() if "q0_0" in line]
        assert unpack == ["    (q0_0, q0_1, q0_2, q1_0, q1_1, q1_2, q2_0, q2_1, q2_2) = cand"]


class TestBasinSummary:
    def test_fraction_bookkeeping(self):
        m = _squaring_p2()
        cfg = fatou.ScanConfig(2, (0, 0), 0.9, 8, candidates=COORD_CANDS)
        grid = fatou.scan(m, cfg)
        summary = fatou.basin_summary(grid)
        assert len(summary.fractions) == 3
        assert abs(sum(summary.fractions)
                   + summary.nonconverged_fraction - 1.0) < 1e-12
        assert summary.failures == 0
