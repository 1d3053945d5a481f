"""Certified-precision numeric layer: roots, chart systems, rationalization."""

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

        def polyroots(coeffs, maxsteps, extraprec):
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
