"""Certified-precision numeric layer: roots, chart systems, rationalization."""

import random
from fractions import Fraction

import mpmath
import pytest

from pcflab import numeric, poly, projmap


def _p(nvars, degree, terms):
    return poly.HomPoly(nvars, degree, terms)


class TestNormalization:
    def test_normalize_sets_max_chart_to_one(self):
        with mpmath.workprec(256):
            pt, chart = numeric.normalize_point((mpmath.mpc(3), mpmath.mpc(0, 4)))
            assert chart == 1
            assert pt[1] == 1
            assert mpmath.fabs(pt[0]) <= 1

    def test_proj_distance_ignores_scale(self):
        with mpmath.workprec(256):
            a = (mpmath.mpc(1), mpmath.mpc(2), mpmath.mpc(3))
            b = (mpmath.mpc(2), mpmath.mpc(4), mpmath.mpc(6))
            assert numeric.proj_distance(a, b) < mpmath.mpf(10) ** -70


def _reference_find(points, pt, tol):
    """The first known point within tol of pt by a linear mpmath scan."""
    for i, known in enumerate(points):
        if numeric.proj_distance(known, pt) < tol:
            return i
    return None


def _at_distance(rng, pt, target):
    """A point at projective distance target from pt, rounded at the working
    precision; the distance is solved at four times that precision."""
    prec = mpmath.mp.prec
    with mpmath.workprec(4 * prec + 64):
        size = max(mpmath.fabs(c) for c in pt)
        w = [size * mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in pt]
        s = mpmath.mpf(target)
        for _ in range(60):
            moved = tuple(c + s * wc for c, wc in zip(pt, w))
            step = target / numeric.proj_distance(pt, moved)
            s *= step
            if mpmath.fabs(step - 1) < mpmath.mpf(2) ** -(2 * prec + 32):
                break
    return tuple(+c for c in moved)  # unary plus rounds at the working precision


def _cloud(rng, nvars, tol):
    """Seeded points at the working precision for the dedup screen.

    Base points are spread out, some with a zero coordinate, some scaled
    by 10^+-400 as a whole and some with one coordinate of that size,
    outside double range.  Each base point is followed by a rescaled copy,
    near duplicates at 0.5 and 2 times tol, and points near distance tol,
    where the mpmath and the double distances can fall on different sides
    of the tolerance.
    """
    big = mpmath.mpf(10) ** 400
    # two rounding units of the mpmath and of the double distance, or half
    # of tol where that is smaller
    edge = min(mpmath.mpf(2) ** -(mpmath.mp.prec - 1) + mpmath.mpf(2) ** -51, tol / 2)
    out = []
    for k in range(12):
        pt = [mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(nvars)]
        if k % 4 == 1:
            pt[rng.randrange(nvars)] = mpmath.mpc(0)
        elif k % 4 == 2:
            pt = [c * big ** rng.choice((-1, 1)) for c in pt]
        elif k % 4 == 3:
            pt[rng.randrange(nvars)] *= big ** rng.choice((-1, 1))
        pt = tuple(pt)
        out.append(pt)
        scale = mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1))
        out.append(tuple(c * scale for c in pt))
        out += [_at_distance(rng, pt, factor * tol) for factor in (0.5, 2)]
        out += [_at_distance(rng, pt, tol + edge * rng.uniform(-1, 1))
                for _ in range(8)]
    return out


class TestPointSetScreen:
    @pytest.mark.parametrize("nvars", (2, 3))
    @pytest.mark.parametrize("precision", (24, 64, 128, 256, 320))
    def test_matches_linear_scan(self, precision, nvars):
        rng = random.Random(8 * precision + nvars)
        with mpmath.workprec(precision):
            tol = numeric.tolerances(precision).dedup
            cloud = _cloud(rng, nvars, tol)
            got, want = numeric.PointSet(precision), []
            matched = 0
            for pt in cloud:
                i = _reference_find(want, pt, tol)
                if i is None:
                    want.append(pt)
                else:
                    matched += 1
                assert got.find(pt) == i
                assert got.add(pt) == i
            assert len(got.points) == len(want)
            assert all(a is b for a, b in zip(got.points, want))
            # 12 rescaled copies and 12 at 0.5 tol match, 12 bases and 12 at
            # 2 tol do not; the points at distance tol must fall on both sides.
            assert matched > 24 and len(want) > 24

    def test_zero_vector_raises(self):
        with mpmath.workprec(64):
            points = numeric.PointSet(64)
            zero = (mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(0))
            with pytest.raises(numeric.NumericalError):
                points.add(zero)
            points.add((mpmath.mpc(1), mpmath.mpc(2), mpmath.mpc(0)))
            for call in (points.find, points.add):
                with pytest.raises(numeric.NumericalError):
                    call(zero)
            assert len(points.points) == 1


class TestBinaryRoots:
    def test_rational_roots_and_multiplicity(self):
        with mpmath.workprec(256):
            p = poly.linear_form([1, -2]) * poly.linear_form([1, 1])
            roots = numeric.binary_form_roots(p, 256)
            ratios = sorted(float((r[0] / r[1]).real) for r, _m in roots)
            assert ratios == pytest.approx([-1.0, 2.0], abs=1e-30)
            assert all(m == 1 for _r, m in roots)

    def test_double_root_multiplicity(self):
        with mpmath.workprec(256):
            lf = poly.linear_form([1, -1])
            roots = numeric.binary_form_roots(lf * lf, 256)
            assert len(roots) == 1 and roots[0][1] == 2

    def test_root_at_infinity(self):
        with mpmath.workprec(256):
            p = _p(2, 2, {(1, 1): 1, (0, 2): 1})  # t(s + t)
            roots = numeric.binary_form_roots(p, 256)
            assert len(roots) == 2
            inf = [r for r, _m in roots if mpmath.fabs(r[1]) < 1e-50]
            assert len(inf) == 1  # the (1 : 0) root from the t factor


class TestSolvePairP2:
    def test_two_lines_meet_once(self):
        with mpmath.workprec(256):
            a = poly.linear_form([1, -1, 0])
            b = poly.linear_form([1, 0, -1])
            points, mults = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 1 and mults == [1]
            assert numeric.proj_distance(
                points[0], (mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(1))
            ) < mpmath.mpf(10) ** -40

    def test_conic_meets_line_in_two_points(self):
        with mpmath.workprec(256):
            conic = _p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2
            line = poly.variable(3, 1)
            points, _m = numeric.solve_pair_p2(conic, line, 256)
            assert len(points) == 2
            targets = [(mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0)),
                       (mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1))]
            for t in targets:
                assert any(numeric.proj_distance(p, t) < mpmath.mpf(10) ** -40
                           for p in points)

    def test_common_factor_rejected(self):
        x = poly.variable(3, 0)
        with pytest.raises(numeric.NumericalError):
            numeric.solve_pair_p2(x * poly.variable(3, 1),
                                  x * poly.variable(3, 2), 256)

    def test_transverse_crossings_reported_simple(self):
        # Nine transverse points, three sharing each eliminated coordinate:
        # the eliminant sees multiplicity but the gradients are independent.
        with mpmath.workprec(256):
            a = _p(3, 3, {(3, 0, 0): 1, (0, 3, 0): -1})  # x^3 - y^3
            b = _p(3, 3, {(0, 3, 0): 1, (0, 0, 3): -1})  # y^3 - z^3
            points, mults = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 9
            assert mults == [1] * 9

    def test_rational_points_are_exact(self):
        # xz - y^2 and y - N x meet at (1 : N : N^2) and (0 : 0 : 1); the
        # first has denominators near 10^14 once normalized.
        n = 10**7 + 19
        conic = _p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})
        line = poly.linear_form([-n, 1, 0])
        points, mults = numeric.solve_pair_p2(conic, line, 256)
        assert mults == [1, 1]
        assert all(numeric.is_exact(pt) for pt in points)
        assert sorted(projmap.primitive_vector(list(pt)) for pt in points) == [
            (0, 0, 1), (1, n, n * n)]

    def test_fibers_hold_only_common_zeros(self):
        # Every point over every eliminant root is a common zero: nothing
        # is filtered out, and the count is the intersection number.
        with mpmath.workprec(256):
            a = _p(3, 3, {(3, 0, 0): 1, (1, 2, 0): 2, (0, 1, 2): -3, (0, 0, 3): 1})
            b = _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (1, 1, 0): 1, (0, 1, 1): 2,
                          (0, 0, 2): -5})
            points, mults = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 6 and mults == [1] * 6
            for pt in points:
                for form in (a, b):
                    assert mpmath.fabs(numeric.eval_form(form, pt)) < mpmath.mpf(10) ** -60

    def test_blocked_leading_coefficients_eliminate_x(self):
        # a = xy - z^2 and b = xy^2 - xz^2 - z^3 both have leading
        # coefficient x in y, so x = 0 would specialize S_j wrongly; x is
        # eliminated instead.  b - y*a = z^2 (y - x - z) gives the points.
        a = _p(3, 2, {(1, 1, 0): 1, (0, 0, 2): -1})
        b = _p(3, 3, {(1, 2, 0): 1, (1, 0, 2): -1, (0, 0, 3): -1})
        points, mults = numeric.solve_pair_p2(a, b, 256)
        assert mults == [1] * 4
        exact = sorted(projmap.primitive_vector(list(pt)) for pt in points
                       if numeric.is_exact(pt))
        assert exact == [(0, 1, 0), (1, 0, 0)]
        with mpmath.workprec(256):
            root5 = mpmath.sqrt(5)
            want = [(r, r + 1, 1) for r in ((root5 - 1) / 2, (-root5 - 1) / 2)]
            for w in want:
                assert sum(numeric.proj_distance(pt, w) < mpmath.mpf(10) ** -40
                           for pt in points) == 1

    def test_both_orders_blocked_raises(self):
        # a = xy - z^2 and b = x^2 y + x y^2 - z^3: the leading coefficients
        # share x in y and y in x, so neither order can be eliminated.
        a = _p(3, 2, {(1, 1, 0): 1, (0, 0, 2): -1})
        b = _p(3, 3, {(2, 1, 0): 1, (1, 2, 0): 1, (0, 0, 3): -1})
        with pytest.raises(numeric.NumericalError, match="cannot eliminate"):
            numeric.solve_pair_p2(a, b, 256)

    def test_failed_newton_raises(self, monkeypatch):
        # A point whose refinement fails fails the solve; it is not dropped.
        real = numeric.newton_refine_pair
        calls = []

        def refine(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise numeric.NumericalError("forced Newton failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(numeric, "newton_refine_pair", refine)
        conic = _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -1})
        with pytest.raises(numeric.NumericalError, match="forced Newton failure"):
            numeric.solve_pair_p2(conic, poly.linear_form([1, -1, 0]), 256)
        assert len(calls) == 1


class TestPolyroots:
    def _fake(self, monkeypatch, exc):
        calls = []

        def polyroots(coeffs, maxsteps, extraprec, roots_init=None):
            calls.append(maxsteps)
            raise exc

        monkeypatch.setattr(numeric.mpmath, "polyroots", polyroots)
        return calls

    def test_no_convergence_escalates_then_fails(self, monkeypatch):
        calls = self._fake(monkeypatch, mpmath.libmp.NoConvergence("slow"))
        with pytest.raises(numeric.NumericalError):
            numeric.binary_form_roots(_p(2, 2, {(2, 0): 1, (0, 2): -2}), 256)
        assert calls == [60, 200, 800]

    def test_other_errors_propagate(self, monkeypatch):
        calls = self._fake(monkeypatch, ZeroDivisionError("bug"))
        with pytest.raises(ZeroDivisionError):
            numeric.binary_form_roots(_p(2, 2, {(2, 0): 1, (0, 2): -2}), 256)
        assert calls == [60]

    def test_failed_fiber_raises(self, monkeypatch):
        # A fiber whose roots cannot be found fails the solve instead of
        # coming back empty.  The eliminant x^2 - 2z^2 is solved first; the
        # quadratic fibers of y^2 + xy - z^2 over x = +-sqrt(2) then fail.
        real = mpmath.polyroots
        calls = []

        def polyroots(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                return real(*args, **kwargs)
            raise mpmath.libmp.NoConvergence("slow")

        monkeypatch.setattr(numeric.mpmath, "polyroots", polyroots)
        a = _p(3, 2, {(2, 0, 0): 1, (0, 0, 2): -2})
        b = _p(3, 2, {(0, 2, 0): 1, (1, 1, 0): 1, (0, 0, 2): -1})
        with pytest.raises(numeric.NumericalError):
            numeric.solve_pair_p2(a, b, 256)
        assert len(calls) == 4  # the eliminant, then one fiber's three rungs


def _same_roots(got, want, tol):
    """Whether two root lists agree as multisets within tol."""
    left = list(want)
    for r in got:
        near = [i for i, w in enumerate(left) if mpmath.fabs(r - w) < tol]
        if not near:
            return False
        del left[near[0]]
    return not left


class TestDoubleSeeds:
    """Seeded root finding finds what a cold start finds."""

    def _check(self, coeffs, seeded=True):
        with mpmath.workprec(256):
            coeffs = [mpmath.mpc(c) for c in coeffs]
            assert (numeric._double_seeds(coeffs) is not None) == seeded
            got = numeric._polyroots(coeffs, 256)
            cold = mpmath.polyroots(coeffs, maxsteps=800, extraprec=256)
            assert _same_roots(got, cold, numeric.tolerances(256).dedup)
            return got

    def test_random_integer_polynomials(self):
        rng = random.Random(20240611)
        for _ in range(40):
            degree = rng.randint(2, 12)
            coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or -1
            self._check(coeffs)

    def test_roots_of_unity(self):
        got = self._check([1] + [0] * 30 + [-1])
        with mpmath.workprec(256):
            assert all(mpmath.fabs(r ** 31 - 1) < mpmath.mpf(10) ** -60 for r in got)

    def test_clustered_roots(self):
        # (x - 1)(x - 1 - 10^-6)(x - 1 - 2 10^-6)(x + 3)(x^2 + 1)
        cluster = [Fraction(1) + Fraction(k, 10**6) for k in range(3)]
        coeffs = [Fraction(1)]
        for r in cluster + [Fraction(-3)]:
            coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs = [a + b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]
        with mpmath.workprec(256):
            self._check([mpmath.mpf(c.numerator) / c.denominator for c in coeffs])

    def test_scaled_coefficients_are_seeded(self):
        big = mpmath.ldexp(1, 3000)
        got = self._check([big, -3 * big, 2 * big])
        assert sorted(float(r.real) for r in got) == [1.0, 2.0]

    def test_range_beyond_doubles_starts_cold(self):
        # (x - 1)(x^2 - 2^1000): the coefficients span more than doubles hold.
        with mpmath.workprec(256):
            big = mpmath.ldexp(1, 1000)
            got = self._check([1, -1, -big, big], seeded=False)
            want = [1, mpmath.sqrt(big), -mpmath.sqrt(big)]
            assert all(min(mpmath.fabs(r / w - 1) for w in want) < mpmath.mpf(10) ** -60
                       for r in got)

    def test_zero_constant_term_starts_cold(self):
        self._check([1, -1, 0], seeded=False)


class TestCanonicalOrder:
    def test_order_ignores_root_finder_order(self, monkeypatch):
        # Conjugate pairs and equal real parts: the root finder's own order
        # follows its start points, the reported order must not.
        q = (_p(2, 2, {(2, 0): 1, (0, 2): 1})  # x^2 + y^2
             * _p(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 5})  # x^2 - 2xy + 5y^2
             * poly.linear_form([1, 3]))
        real = mpmath.polyroots
        orders = []
        for shuffle in (lambda r: r, lambda r: r[::-1],
                        lambda r: [complex(x).conjugate() for x in r]):
            monkeypatch.setattr(numeric.mpmath, "polyroots",
                                lambda *a, shuffle=shuffle, **k: shuffle(real(*a, **k)))
            with mpmath.workprec(256):
                roots = numeric.binary_form_roots(q, 256)
                orders.append([(complex(r0 / r1), m) for (r0, r1), m in roots])
        assert orders[0] == orders[1]
        rounded = [[(round(z.real, 9), round(z.imag, 9)) for z, _m in o] for o in orders]
        assert rounded[0] == rounded[2]
        assert rounded[0] == [(-3, 0), (0, -1), (0, 1), (1, -2), (1, 2)]


class TestPrecisionResolution:
    def test_default(self):
        assert numeric.resolve_precision(None) == numeric.DEFAULT_PRECISION
