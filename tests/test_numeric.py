"""Certified-precision numeric layer: roots, chart systems, rationalization."""

import random
from fractions import Fraction

import mpmath
import pytest

from pcflab import numeric, poly


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
            numeric.univariate_roots([mpmath.mpc(1), mpmath.mpc(-2)], 256)
        assert calls == [60, 200, 800]

    def test_other_errors_propagate(self, monkeypatch):
        calls = self._fake(monkeypatch, ZeroDivisionError("bug"))
        with pytest.raises(ZeroDivisionError):
            numeric.univariate_roots([mpmath.mpc(1), mpmath.mpc(-2)], 256)
        assert calls == [60]


    def test_failed_fiber_raises(self, monkeypatch):
        # A fiber whose roots cannot be found fails the chart instead of
        # coming back empty.
        self._fake(monkeypatch, mpmath.libmp.NoConvergence("slow"))
        p = _p(3, 2, {(0, 2, 0): 1, (1, 1, 0): 1, (0, 0, 2): -1})  # y^2 + xy - z^2
        with mpmath.workprec(256):
            base = mpmath.sqrt(2)
            with pytest.raises(numeric.NumericalError):
                numeric._backsub_roots(p, 0, 1, base, 256)


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


class TestRationalize:
    def test_recovers_simple_fraction(self):
        with mpmath.workprec(256):
            assert numeric.rationalize(mpmath.mpf(1) / 2, 256) == Fraction(1, 2)

    def test_accepts_close_convergent(self):
        # At 256 bits the acceptance window is 1e-16, so a continued-fraction
        # convergent of sqrt(2) with denominator below the 10**12 cap lands
        # inside it.  Callers that need exactness re-check downstream.
        with mpmath.workprec(256):
            got = numeric.rationalize(mpmath.sqrt(2), 256)
            assert got is not None
            err = abs(mpmath.mpf(got.numerator) / got.denominator
                      - mpmath.sqrt(2))
            assert err < mpmath.mpf(10) ** -16

    def test_rejects_irrational_at_high_precision(self):
        # With denominators capped at 10**12 the best approximation to
        # sqrt(2) misses by about 1e-25, outside the 1e-32 window that 512
        # bits demands.
        with mpmath.workprec(512):
            assert numeric.rationalize(mpmath.sqrt(2), 512) is None


class TestPrecisionResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(numeric.ENV_PRECISION, raising=False)
        assert numeric.resolve_precision(None) == numeric.DEFAULT_PRECISION

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(numeric.ENV_PRECISION, "128")
        assert numeric.resolve_precision(None) == 128

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(numeric.ENV_PRECISION, "128")
        assert numeric.resolve_precision(512) == 512
