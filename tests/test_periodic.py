"""Periodic points, multiplier spectra, classification, counting audits."""

import json
import math
import random
from fractions import Fraction

import mpmath
import pytest

from pcflab import catalog, cli, numeric, periodic, poly, projmap

import property_suites as ps


def _p(nvars, degree, terms):
    return poly.HomPoly(nvars, degree, terms)


def _squaring_p2():
    return catalog.get("squaring-p2").map


def _squaring_p1():
    return catalog.get("squaring-p1").map


def _fs():
    return catalog.get("fs-1992-a").map


def _sym2():
    # Squaring on Sym^2(P^1): (x^2 : y^2 - 2xz : z^2).
    return projmap.ProjectiveMap([
        _p(3, 2, {(2, 0, 0): 1}),
        _p(3, 2, {(0, 2, 0): 1, (1, 0, 1): -2}),
        _p(3, 2, {(0, 0, 2): 1}),
    ])


# Fixed points in closed form.  For Sym^2, (x : y : z) is the root pair of
# x t^2 - y t + z: the pairs from {0, 1, oo} and the cube roots {w, w^2}.
SQUARING_P2_FIXED = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
                     (0, 1, 1), (1, 1, 1)]
SYM2_FIXED = [(1, 0, 0), (1, 1, 0), (1, 2, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1),
              (1, -1, 1)]


def _diagonal(c0, c1, c2):
    return projmap.ProjectiveMap([
        _p(3, 2, {(2, 0, 0): c0}),
        _p(3, 2, {(0, 2, 0): c1}),
        _p(3, 2, {(0, 0, 2): c2}),
    ])


def _close(a, b, bound):
    return mpmath.fabs(numeric.mpc_from(a) - numeric.mpc_from(b)) < bound


def _conjugate(m, a_rows):
    """adj(A) o m o A with primitive integer coefficients."""
    comps, _ = projmap.primitivize(ps.conjugate(m, a_rows).comps)
    return projmap.ProjectiveMap(comps)


def _mat_vec(rows, vec):
    return tuple(sum(Fraction(r) * v for r, v in zip(row, vec)) for row in rows)


# Matrices whose conjugates of the squaring maps exposed periodic-solver faults.
A_ROWS = [[3, 0, 0], [2, 3, 1], [0, -2, -1]]
B_ROWS = [[1, -3, 3], [2, -2, 3], [1, -2, 2]]


def _three_quarters():
    """z -> z^2 - 3/4: its fixed point -1/2 has multiplier -1, so it is a
    fixed point of multiplicity 3 of f^2 and of every even iterate."""
    return projmap.ProjectiveMap([_p(2, 2, {(2, 0): 4, (0, 2): -3}), _p(2, 2, {(0, 2): 4})])


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestFindPeriodic:
    def test_squaring_p2_fixed_points(self):
        pts = periodic.find_periodic(_squaring_p2(), 1, 256)
        assert len(pts) == 7
        with mpmath.workprec(256):
            tight = mpmath.mpf(10) ** -40
            for pp in pts:
                assert pp.period == 1
                assert pp.multiplicity == 1
                assert pp.residual < tight

    def test_squaring_p1_period_two(self):
        pts = periodic.find_periodic(_squaring_p1(), 2, 256)
        assert len(pts) == 5
        assert sorted(p.period for p in pts) == [1, 1, 1, 2, 2]
        # The period-2 orbit is the pair of primitive cube roots of unity.
        with mpmath.workprec(256):
            for pp in pts:
                if pp.period == 2:
                    z = pp.point[0] / pp.point[1]
                    assert _close(z ** 3, 1, mpmath.mpf(10) ** -40)

    def test_fs_counts(self):
        assert len(periodic.find_periodic(_fs(), 1, 256)) == 7
        assert len(periodic.find_periodic(_fs(), 2, 256)) == 21

    def test_residuals_tight_on_catalog(self):
        with mpmath.workprec(256):
            tight = mpmath.mpf(10) ** -40
            for name in catalog.names():
                m = catalog.get(name).map
                for pp in periodic.find_periodic(m, 1, 256):
                    assert pp.residual < tight, name

    @pytest.mark.parametrize("base,fixed", [(_squaring_p2, SQUARING_P2_FIXED),
                                            (_sym2, SYM2_FIXED)],
                             ids=["squaring-p2", "sym2"])
    def test_points_on_invariant_fiber(self, base, fixed):
        # The conjugate by A keeps the line x = 0 invariant, and the form
        # first used for back-substitution vanishes on that whole fiber.
        m = _conjugate(base(), A_ROWS)
        inv = ps.invert_matrix(A_ROWS)
        want = [_mat_vec(inv, p) for p in fixed]
        pts = periodic.find_periodic(m, 1, 256)
        assert len(pts) == 7
        with mpmath.workprec(256):
            tight = mpmath.mpf(10) ** -40
            for w in want:
                assert sum(numeric.proj_distance(pp.point, w) < tight for pp in pts) == 1, w

    def test_points_on_repeated_root_fiber(self):
        # At period 2 the conjugate by B back-substitutes 114 y (y - 1)^4 on
        # the fiber x = 0.  Numeric root finding never converged on the
        # quadruple root, so (0 : 1 : 1) was lost in every chart and 20 of
        # the 21 points came back.  That fiber sits over a rational
        # eliminant root, so it is now split into square-free pieces exactly.
        m = _conjugate(_squaring_p2(), B_ROWS)
        pts = periodic.find_periodic(m, 2, 256)
        count = periodic.bezout_audit(m, 2, pts)
        assert (count.distinct, count.weighted) == (21, 21)
        inv = ps.invert_matrix(B_ROWS)
        with mpmath.workprec(256):
            w = mpmath.exp(2j * mpmath.pi / 3)
            roots = (0, 1, w, w * w)
            closed = {(a, b, c) for a in roots for b in roots for c in roots
                      if (a, b, c) != (0, 0, 0)}
            want = numeric.PointSet(256)
            for q in closed:
                want.add(tuple(sum(numeric.mpc_from(r) * v for r, v in zip(row, q))
                               for row in inv))
            assert len(want.points) == 21
            tight = mpmath.mpf(10) ** -40
            for target in want.points:
                assert sum(numeric.proj_distance(pp.point, target) < tight
                           for pp in pts) == 1, target

    def test_sort_key_ignores_residues_below_dedup(self):
        # One point of fs-1992-a at period 3, stored twice with the rounding
        # residue of its second coordinate on either side of 0.
        with mpmath.workprec(256):
            floor = numeric.tolerances(256).dedup
            tail = mpmath.mpc("0.056", "-0.131")
            keys = {periodic._point_sort_key(
                (mpmath.mpc(1), mpmath.mpc(1, sign * mpmath.mpf("1e-77")), tail), floor)
                for sign in (1, -1)}
        assert keys == {((1.0, 0.0), (1.0, 0.0), (0.056, -0.131))}

    def test_representative_that_renormalizes(self, monkeypatch):
        # A representative of the period-2 point (1 : w : 0) of squaring-p2
        # whose moduli tie but whose second is the larger in its last bits.
        # Normalizing it, or normalizing the rounded coordinates of its
        # Point again, pivots on the first within the 2^-p window, so
        # find_periodic keeps its orbit and multipliers from the Point or
        # from the representative walk the same steps.
        m = _squaring_p2()
        rng = random.Random(1)
        with mpmath.workprec(256):
            w = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) / 3)
            while True:
                s = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * rng.random())
                rep = (s, s * w, mpmath.mpc(0))
                with mpmath.workprec(1024):
                    if mpmath.fabs(rep[1]) > mpmath.fabs(rep[0]):
                        break
            pt = numeric.normalize_point(rep)[0]
            assert pt.pivot == 0 and numeric.normalize_point(tuple(pt))[1] == 0
        real = periodic._fixed_point_candidates_p2

        def first_the_tie(big, precision, failed=None):
            yield [rep]
            yield from real(big, precision, failed)

        monkeypatch.setattr(periodic, "_fixed_point_candidates_p2", first_the_tie)
        found = [periodic.find_periodic(m, l, 256) for l in (1, 2)]
        tied = [pp for pp in found[1] if pp.point.fixed == pt.fixed]
        assert len(tied) == 1 and tied[0].orbit is not None
        audit = periodic.eigenvalue_audit(m, 2, 256, found)
        spectrum = [v.spectrum for v in audit.verdicts if v.point is tied[0]]
        for start in (pt, rep):
            alone = periodic.multipliers(m, start, 2, 256)
            assert [[x._mpc_ for x in s] for s in spectrum] == [[x._mpc_ for x in alone]]

    def test_candidates_normalized_once(self, monkeypatch):
        # Outside the chart solves, find_periodic normalizes each candidate
        # at most once and each orbit step once: a Point the solver built
        # is not normalized again to find its chart.
        calls, candidates, steps, solving = [0], [0], [], [False]
        real_normalize, real_solve, real_walk = (
            numeric.normalize_point, numeric.solve_pair_p2, periodic._walk)

        def normalize(coords):
            calls[0] += not solving[0]
            return real_normalize(coords)

        def solve(a, b, precision):
            solving[0] = True
            try:
                points = real_solve(a, b, precision)
            finally:
                solving[0] = False
            candidates[0] += len(points)
            return points

        def walk(forms, start, length):
            steps.append(length)
            return real_walk(forms, start, length)

        monkeypatch.setattr(numeric, "normalize_point", normalize)
        monkeypatch.setattr(numeric, "solve_pair_p2", solve)
        monkeypatch.setattr(periodic, "_walk", walk)
        pts = periodic.find_periodic(_fs(), 2, 256)
        assert len(pts) == periodic._fixed_point_count(_fs(), 2)
        assert candidates[0] >= len(pts) and sum(steps) == 2 * len(steps)
        assert calls[0] <= candidates[0] + sum(steps)

    def test_budget_error(self):
        with pytest.raises(periodic.BudgetError):
            periodic.find_periodic(_squaring_p2(), 4)

    def test_budget_keeps_iterates_under_the_degree_cap(self):
        # find_periodic iterates with the default degree cap and does not
        # handle DegreeCapError: the budget bounds (d^l + 1)^k with k >= 1,
        # so the largest iterate degree it admits is the budget less one.
        budget = periodic.ELIMINATION_BUDGET
        assert budget - 1 <= projmap.DEFAULT_DEGREE_CAP
        # The bound is the one find_periodic checks: the first period whose
        # iterate of the squaring map of P^1 passes budget - 1 is refused.
        with pytest.raises(periodic.BudgetError):
            periodic.find_periodic(_squaring_p1(), (budget - 1).bit_length())

    def test_rejects_period_zero(self):
        with pytest.raises(periodic.PeriodicError):
            periodic.find_periodic(_squaring_p1(), 0)

    def test_identity_only_when_every_cross_product_vanishes(self):
        # (x : 2y : 2z) fixes the line x = 0 pointwise and (1 : 0 : 0);
        # only one chart equation, y*2z - z*2y, vanishes identically.
        line = projmap.ProjectiveMap([
            _p(3, 1, {(1, 0, 0): 1}), _p(3, 1, {(0, 1, 0): 2}), _p(3, 1, {(0, 0, 1): 2})])
        assert projmap.validate(line).verdict == "well-defined"
        with pytest.raises(periodic.PeriodicError, match="not finite") as exc:
            periodic.find_periodic(line, 1)
        assert "identity" not in str(exc.value)
        ident = projmap.ProjectiveMap([poly.variable(3, i) for i in range(3)])
        with pytest.raises(periodic.PeriodicError, match="the iterate is the identity"):
            periodic.find_periodic(ident, 1)


class TestFindPeriods:
    @staticmethod
    def _check(m, max_period, precision=256):
        """find_periods(m, L) against find_periodic(m, q) for each q <= L."""
        tol = numeric.tolerances(precision)
        found = periodic.find_periods(m, max_period, precision, None)
        assert len(found) == max_period
        for q, got in enumerate(found, 1):
            want = periodic.find_periodic(m, q, precision)
            assert len(got) == len(want), q
            with mpmath.workprec(precision):
                forms = numeric.compile_forms(m.comps)
                for g in got:
                    # the residual of a q-step walk from the point as it is
                    end = periodic._walk(forms, g.point, q)[1]
                    assert g.residual == numeric.proj_distance(end, g.point), q
                    w = min(want, key=lambda w: numeric.proj_distance(w.point, g.point))
                    assert numeric.proj_distance(w.point, g.point) < tol.dedup, q
                    assert (g.period, g.multiplicity) == (w.period, w.multiplicity), q
                    assert g.residual < tol.verify, q
                    for a, b in zip(*(periodic.multipliers(m, x.point, x.period, precision, x.orbit)
                                      for x in (g, w))):
                        assert mpmath.fabs(a - b) < tol.dedup * max(1, mpmath.fabs(b)), q
        return found

    def test_plane_maps_and_conjugates(self):
        # Seeded: squaring-p2, fs-1992-a and Sym^2, and their conjugates by
        # A and by two matrices with entries in -2..2, at L = 2.
        rng, matrices = random.Random(30), [A_ROWS]
        while len(matrices) < 3:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if projmap.exact_rank(rows) == 3:
                matrices.append(rows)
        for base in (_squaring_p2(), _fs(), _sym2()):
            for m in [base] + [_conjugate(base, rows) for rows in matrices]:
                self._check(m, 2)

    def test_squaring_p2_to_period_3(self):
        self._check(_squaring_p2(), 3)

    @pytest.mark.parametrize("make", [_squaring_p1, _three_quarters])
    def test_line_maps_to_period_6(self, make):
        self._check(make(), 6)

    def test_multiple_fixed_point_is_solved_directly(self, monkeypatch):
        # z^2 - 3/4's period-2 count cannot certify (the fixed point -1/2
        # counts 3 times), so period 1 is solved, and its multiplicities
        # are find_periodic's.
        calls = _count_calls(monkeypatch, periodic, "find_periodic")
        found = periodic.find_periods(_three_quarters(), 2, 256, None)
        assert [args[1] for args in calls] == [2, 1]
        assert sorted(p.multiplicity for p in found[1]) == [1, 1, 3]
        assert sorted(p.multiplicity for p in found[0]) == [1, 1, 1]

    def test_short_count_solves_the_lower_period(self, monkeypatch):
        # One point dropped from period 2's result: its count falls short,
        # so period 1 is solved directly, with its own failures list.
        real = periodic.find_periodic
        calls = []

        def find(m, l, precision, failed):
            calls.append(l)
            pts = real(m, l, precision, failed)
            return pts[:-1] if l == 2 else pts

        monkeypatch.setattr(periodic, "find_periodic", find)
        failed = [[], []]
        found = periodic.find_periods(_fs(), 2, 256, failed)
        assert calls == [2, 1]
        assert [len(pts) for pts in found] == [7, 20]
        assert failed == [[], []]

    @pytest.mark.parametrize("top", range(2, 7))
    def test_cli_solves_only_the_upper_half(self, top, monkeypatch, tmp_path):
        # Every q <= L/2 has a multiple in (L/2, L], which certifies on P^1.
        calls = _count_calls(monkeypatch, periodic, "find_periodic")
        out = tmp_path / "report.json"
        code = cli.main(["periodic", "catalog:squaring-p1", "--period", str(top),
                         "--report", str(out)])
        assert code == cli.EXIT_OK
        assert [args[1] for args in calls] == list(range(top, top // 2, -1))
        assert all(b["ok"] for b in json.loads(out.read_text())["periodic"]["bezout"])

    def test_budget_error_names_the_first_period_over_it(self):
        # fs-1992-a's period 4 exceeds the budget: the error names it
        # before any period is solved, as an ascending run would.
        with pytest.raises(periodic.BudgetError, match="period 4 needs"):
            periodic.find_periods(_fs(), 5, 256, None)


def _b_conjugate_piece():
    """The first degree-60 polynomial that the period-3 solve of adj(B) o
    squaring-p2 o B hands to _polyroots, as its Gaussian-integer
    coefficients; the solve stops there."""
    class Found(Exception):
        pass

    real = numeric._polyroots

    def capture(coeffs, precision):
        if len(coeffs) == 61:
            raise Found(coeffs)
        return real(coeffs, precision)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numeric, "_polyroots", capture)
        with pytest.raises(Found) as info:
            periodic.find_periodic(_conjugate(_squaring_p2(), B_ROWS), 3, 256)
    return info.value.args[0]


class TestStalledRootFinding:
    def test_stalled_run_continues_wider(self, monkeypatch):
        # A square-free integer form with coefficients of up to 163 bits
        # and well-separated roots.  At the full width some points' |p| rounds
        # to one unit while |p'| is tiny, so the Newton quotient stalls
        # above the target; the run goes on from there at a width wider by
        # the gap plus GUARD_BITS, and converges.
        coeffs = _b_conjugate_piece()
        assert all(y == 0 for _x, y in coeffs)
        real, runs = numeric._sweeps, []

        def sweeps(a, z, width, bits, watch):
            gap = real(a, z, width, bits, watch)
            runs.append((width, bits, watch, gap))
            return gap

        monkeypatch.setattr(numeric, "_sweeps", sweeps)
        roots, width = numeric._polyroots(coeffs, 256)
        (_w, bits, watch, gap), (full, _b, watched, stall), (wider, _b2, rewatched, end) = runs
        assert (bits, watch, gap) == (numeric.SEED_BITS, False, None)
        assert watched and rewatched and stall > 0 and end is None
        assert width == wider == full + stall + numeric.GUARD_BITS
        assert len(roots) == 60
        values = [complex(x / 2 ** width, y / 2 ** width) for x, y in roots]
        assert min(abs(u - v) for i, u in enumerate(values) for v in values[:i]) > 0.01
        # each root is within 2^-240 of a root of p: |p / p'| at 1024 bits
        with mpmath.workprec(1024):
            ints = [x for x, _y in coeffs]
            for x, y in roots:
                z = mpmath.mpc(mpmath.mpf((x, -width)), mpmath.mpf((y, -width)))
                value, slope = mpmath.polyval(ints, z, derivative=True)
                assert mpmath.fabs(value / slope) < mpmath.ldexp(max(1, mpmath.fabs(z)), -240)

    def test_double_start_keeps_the_stall_and_the_roots(self, monkeypatch):
        # With the double-precision stage and without it, the full-width run
        # stalls and the wider run converges, to the same roots in the same
        # order.
        coeffs = _b_conjugate_piece()
        real, start, results, ran = numeric._sweeps, numeric._double_start, [], []

        def spy(*args):
            points = start(*args)
            ran.append(points is not None)
            return points

        for stage in (spy, lambda *args: None):
            runs = []

            def sweeps(a, z, width, bits, watch):
                gap = real(a, z, width, bits, watch)
                runs.append((watch, gap))
                return gap

            monkeypatch.setattr(numeric, "_sweeps", sweeps)
            monkeypatch.setattr(numeric, "_double_start", stage)
            roots, width = numeric._polyroots(coeffs, 256)
            (seeded, _g), (watched, stall), (rewatched, end) = runs
            assert not seeded and watched and rewatched and stall > 0 and end is None
            results.append([(Fraction(x, 1 << width), Fraction(y, 1 << width)) for x, y in roots])
        assert ran == [True] and results[0] == results[1]

    def test_seed_runs_of_period_2_converge_in_two_sweeps(self, monkeypatch):
        # fs-1992-a's period-2 solve: from the double-precision stage's
        # points every low-width run, the degree-20 eliminant piece's among
        # them, converges within 2 sweeps; from the polygon's points that
        # piece takes 14.
        real, degrees = numeric._polyroots, []

        def polyroots(coeffs, precision):
            degrees.append(len(coeffs) - 1)
            return real(coeffs, precision)

        monkeypatch.setattr(numeric, "_polyroots", polyroots)
        ps.limit_seed_sweeps(monkeypatch, 2)
        failed = []
        assert len(periodic.find_periodic(_fs(), 2, 256, failed)) == 21
        assert failed == [] and 20 in degrees
        monkeypatch.setattr(numeric, "_double_start", lambda *args: None)
        with pytest.raises(periodic.PeriodicError, match="no chart"):
            periodic.find_periodic(_fs(), 2, 256, failed)
        assert failed and all("2 sweeps" in text for _chart, text in failed)

    def test_b_conjugate_certifies_at_period_3(self, monkeypatch, tmp_path):
        # The widened run lets chart 0 certify every period of adj(B) o
        # squaring-p2 o B up to 3; period 1 is read off period 2.
        path, out = tmp_path / "conj.json", tmp_path / "report.json"
        path.write_text(json.dumps(catalog.to_mapfile(_conjugate(_squaring_p2(), B_ROWS))))
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        code = cli.main(["periodic", str(path), "--period", "3", "--report", str(out)])
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert [(b["distinct"], b["weighted"], b["ok"]) for b in report["periodic"]["bezout"]] == [
            (7, 7, True), (21, 21, True), (73, 73, True)]
        assert report["theorem_b"] == {"ok": True, "violations": [], "findings": []}
        assert len(calls) == 2


class TestMultipliers:
    def test_diagonal_mixed_spectrum(self):
        # At (1/3 : 1/5 : 0) the affine derivative is diag(2, 0) by hand.
        m = _diagonal(3, 5, 7)
        spec = periodic.multipliers(
            m, (Fraction(1, 3), Fraction(1, 5), Fraction(0)), 1, 256)
        with mpmath.workprec(256):
            tight = mpmath.mpf(10) ** -30
            assert len(spec) == 2
            assert _close(spec[0], 2, tight)
            assert _close(spec[1], 0, tight)

    def test_squaring_fixed_points(self):
        m = _squaring_p2()
        with mpmath.workprec(256):
            tight = mpmath.mpf(10) ** -30
            spec = periodic.multipliers(m, (1, 1, 1), 1, 256)
            assert all(_close(v, 2, tight) for v in spec)
            spec = periodic.multipliers(m, (1, 0, 0), 1, 256)
            assert all(_close(v, 0, tight) for v in spec)
            spec = periodic.multipliers(m, (1, 1, 0), 1, 256)
            assert _close(spec[0], 2, tight)
            assert _close(spec[1], 0, tight)

    def test_p1_fixed_point(self):
        spec = periodic.multipliers(_squaring_p1(), (1, 1), 1, 256)
        assert len(spec) == 1
        with mpmath.workprec(256):
            assert _close(spec[0], 2, mpmath.mpf(10) ** -30)

    def test_p1_cycle_against_power_derivative(self):
        # A primitive 7th root of unity has doubling orbit {z, z^2, z^4} of
        # period 3; the cycle multiplier must match (z^8)' = 8 z^7 = 8.
        m = _squaring_p1()
        with mpmath.workprec(256):
            zeta = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) / 7)
            moved = ps.orbit(m, (zeta, 1), 3, 256)[-1]
            assert numeric.proj_distance(moved, (zeta, mpmath.mpc(1))) < mpmath.mpf(10) ** -50
            spec = periodic.multipliers(m, (zeta, 1), 3, 256)
            assert len(spec) == 1
            assert _close(spec[0], 8, mpmath.mpf(10) ** -40)

    @pytest.mark.parametrize("period", [0, -1])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(periodic.PeriodicError, match="period must be >= 1"):
            periodic.multipliers(_squaring_p2(), (1, 1, 1), period, 256)


def _operator_chart_jacobian(vals, dvals, chart_in, chart_out):
    """The chart-transition derivative by operators."""
    b, n = chart_out, len(vals)
    fb = vals[b]
    return [[(dvals[i][j] * fb - vals[i] * dvals[b][j]) / (fb * fb)
             for j in range(n) if j != chart_in] for i in range(n) if i != b]


def _operator_mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


class _Exact(tuple):
    """A complex number as a pair of Fractions, with exact operators."""

    def __new__(cls, re, im=0):
        return super().__new__(cls, (Fraction(re), Fraction(im)))

    def __add__(self, other):
        other = _Exact(other) if isinstance(other, int) else other
        return _Exact(self[0] + other[0], self[1] + other[1])

    __radd__ = __add__

    def __sub__(self, other):
        return _Exact(self[0] - other[0], self[1] - other[1])

    def __mul__(self, other):
        return _Exact(self[0] * other[0] - self[1] * other[1], self[0] * other[1] + self[1] * other[0])

    def __truediv__(self, other):
        d = other[0] ** 2 + other[1] ** 2
        return _Exact((self[0] * other[0] + self[1] * other[1]) / d,
                      (self[1] * other[0] - self[0] * other[1]) / d)

    def fixed(self, width):
        return tuple(math.floor(x * 2 ** width) for x in self)


class TestMultiplierChain:
    @pytest.mark.parametrize("precision", [24, 64, 256])
    def test_libmp_chain_matches_operators(self, precision):
        # The fixed-point chain gives the bits of exact operators: each
        # transition entry is the exact quotient floored at 2^W, and each
        # product entry the exact sum of products floored at 2^W.  Values
        # of f at p and partials are Gaussian integers at one scale: zero
        # partials, small constant ones (a linear map) and wide ones.
        rng = random.Random(precision)
        width = precision + numeric.GUARD_BITS
        for n in (2, 3):
            for _ in range(40):
                def value():
                    kind = rng.randrange(5)
                    if kind == 0:
                        return (0, 0)
                    if kind == 1:
                        return (rng.randint(-9, 9) << width, 0)
                    return rng.getrandbits(width + 8) - (1 << width + 7), rng.getrandbits(width) - (1 << width - 1)
                vals = [value() for _ in range(n)]
                vals = [v if v != (0, 0) else (1, 0) for v in vals]
                dvals = [[value() for _ in range(n)] for _ in range(n)]
                cin, cout = rng.randrange(n), rng.randrange(n)
                exact = ([_Exact(*v) for v in vals], [[_Exact(*v) for v in row] for row in dvals])
                got = periodic._chart_jacobian(vals, dvals, cin, cout, width)
                want = _operator_chart_jacobian(*exact, cin, cout)
                assert got == [[v.fixed(width) for v in row] for row in want]
                other = periodic._chart_jacobian(vals, dvals, cout, cin, width)
                scaled = [[[_Exact(Fraction(x, 2 ** width), Fraction(y, 2 ** width))
                            for x, y in row] for row in matrix] for matrix in (got, other)]
                assert periodic._mat_mul(got, other, width) == [
                    [v.fixed(width) for v in row] for row in _operator_mat_mul(*scaled)]


# The mpmath-operator forms of the audit and report paths, which the libmp
# forms must match bit for bit.


def _operator_eigenvalues(matrix, width):
    prec = mpmath.mp.prec
    matrix = [[mpmath.mpc(mpmath.mpf((x, -width)), mpmath.mpf((y, -width))) for x, y in row]
              for row in matrix]
    if len(matrix) == 1:
        return (matrix[0][0],)
    tr = matrix[0][0] + matrix[1][1]
    disc = tr * tr - 4 * (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
    if mpmath.fabs(disc) < (numeric.tolerances(prec).dedup * max(1, mpmath.fabs(tr))) ** 2:
        disc = mpmath.mpc(0)
    root = mpmath.sqrt(disc)
    return ((tr + root) / 2, (tr - root) / 2)


def _operator_classify(spectrum):
    """(value, kind, root order) of each eigenvalue."""
    out = []
    for lam in spectrum:
        lam = numeric.mpc_from(lam)
        mod = mpmath.fabs(lam)
        if mod < periodic.EPS_ZERO:
            out.append((lam, "zero", None))
        elif mpmath.fabs(mod - 1) < periodic.EPS_NEUTRAL:
            order = None
            power = mpmath.mpc(1)
            for q in range(1, periodic.Q_MAX + 1):
                power *= lam
                if mpmath.fabs(power - 1) < periodic.EPS_ROOT:
                    order = q
                    break
            out.append((lam, "parabolic", order) if order is not None
                       else (lam, "neutral-irrational-candidate", None))
        elif mod < 1:
            out.append((lam, "attracting-nonzero", None))
        else:
            out.append((lam, "repelling", None))
    return out


def _operator_cnum(v):
    with mpmath.workprec(cli.REPORT_PRECISION):
        z = mpmath.mpc(v)
        return [mpmath.nstr(z.real, 17), mpmath.nstr(z.imag, 17)]


def _operator_sort_key(coords, floor):
    return tuple(tuple(0.0 if abs(x) < floor else float(x)
                       for x in (mpmath.re(c), mpmath.im(c))) for c in coords)


def _seeded_matrices(rng, width):
    """1x1 and 2x2 derivatives as Gaussian integers scaled by 2^width, each
    2x2 one P J P^-1 for a Jordan form J and a small Gaussian-integer P,
    with a few units of noise: (kind, matrix) pairs."""
    with mpmath.workprec(width + 64):
        i = mpmath.mpc(0, 1)
        values = {
            "zero": (0, 0), "nilpotent": (0, 0), "double": (3 - 2 * i, 3 - 2 * i),
            "parabolic": (mpmath.expjpi(mpmath.mpf(2 * rng.randint(1, 5)) / rng.randint(1, 6)), 2 + i),
            "neutral": (mpmath.expj(1), mpmath.expj(mpmath.sqrt(2))),
            "repelling": (rng.uniform(1.5, 9) * mpmath.expj(rng.uniform(0, 6)), -rng.uniform(1.5, 9)),
            "mixed": (0, rng.uniform(0.1, 0.9) * mpmath.expj(rng.uniform(0, 6))),
        }

        def fixed(v):
            return tuple(int(mpmath.floor(mpmath.ldexp(part, width)))
                         for part in (mpmath.re(v), mpmath.im(v)))

        out = []
        for kind, (lam, mu) in values.items():
            out.append((kind, [[fixed(lam)]]))
            p = [[mpmath.mpc(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
            if det == 0:
                p, det = [[1, 0], [0, 1]], 1
            inv = [[p[1][1] / det, -p[0][1] / det], [-p[1][0] / det, p[0][0] / det]]
            jordan = [[lam, 1 if kind in ("nilpotent", "double") else 0], [0, mu]]
            pj = [[sum(p[r][t] * jordan[t][c] for t in range(2)) for c in range(2)] for r in range(2)]
            m = [[sum(pj[r][t] * inv[t][c] for t in range(2)) for c in range(2)] for r in range(2)]
            noise = 0 if kind == "zero" else 3
            out.append((kind, [[tuple(x + rng.randint(-noise, noise) for x in fixed(v)) for v in row]
                               for row in m]))
    return out


class TestLibmpPaths:
    @pytest.mark.parametrize("precision", [24, 53, 64, 256])
    def test_eigenvalues_and_classes_match_operators(self, precision):
        rng = random.Random(precision)
        width = precision + numeric.GUARD_BITS
        kinds = set()
        for _ in range(6):
            for name, matrix in _seeded_matrices(rng, width):
                with mpmath.workprec(precision):
                    got = periodic._eigenvalues(matrix, width)
                    want = _operator_eigenvalues(matrix, width)
                    assert [v._mpc_ for v in got] == [v._mpc_ for v in want], name
                    if name == "double" and len(matrix) == 2 and precision > 24:
                        assert got[0]._mpc_ == got[1]._mpc_  # a discriminant taken as 0
                    spectrum = list(got) + [1, -1, mpmath.mpf("0.5"), 2j]
                    classes = periodic.classify(spectrum)
                    assert [(c.value._mpc_, c.kind, c.root_order) for c in classes] == [
                        (v._mpc_, kind, order) for v, kind, order in _operator_classify(spectrum)]
                    kinds.update(c.kind for c in classes[:len(got)])
                    for v in got:  # the report's strings, whatever the working precision
                        assert cli._cnum(v) == _operator_cnum(v)
        if precision >= 64:
            assert kinds == {"zero", "attracting-nonzero", "parabolic",
                             "neutral-irrational-candidate", "repelling"}

    @pytest.mark.parametrize("precision", [24, 53, 64, 256])
    def test_point_parts_keys_and_strings_match_operators(self, precision):
        rng = random.Random(precision)
        floor = numeric.tolerances(precision).dedup
        width = precision + numeric.GUARD_BITS
        for _ in range(40):
            with mpmath.workprec(precision):
                def part():
                    kind = rng.randrange(4)
                    if kind == 0:
                        return 0
                    scale = mpmath.mpf(10) ** -rng.randint(precision // 8 - 2, precision // 8 + 2)
                    return rng.uniform(-1, 1) * (scale if kind == 1 else 1)
                coords = [mpmath.mpc(part(), part()) for _ in range(rng.choice((2, 3)))]
                if all(c == 0 for c in coords):
                    continue
                pt = numeric.normalize_point(coords)[0]
                assert [c._mpc_ for c in pt] == list(pt.parts) == [
                    tuple(mpmath.libmp.from_man_exp(x, -width, precision, mpmath.libmp.round_nearest)
                          for x in v) for v in pt.fixed]
                assert periodic._point_sort_key(pt, floor) == _operator_sort_key(tuple(pt), floor)
                assert cli._point_json(pt) == [_operator_cnum(c) for c in pt]
        with mpmath.workprec(precision):
            for v in (2.5 - 1j, 3, mpmath.mpf(1) / 3, mpmath.mpc(1, -2) / 7):
                assert cli._cnum(v) == _operator_cnum(v)


class TestEigenvalues:
    def test_double_eigenvalue_without_noise(self):
        # A derivative with the double eigenvalue 4 and entries off by a few
        # units of 2^-W: the discriminant is below (dedup max(1, |tr|))^2, so
        # both eigenvalues come out equal instead of apart by the square
        # root of the noise.  A pair 10^-20 apart, above dedup, stays apart.
        width = 256 + numeric.GUARD_BITS
        one = 1 << width
        noisy = [[(4 * one + 3, -1), (5, 2)], [(-7, 1), (4 * one - 2, 1)]]
        apart = [[(4 * one, 0), (0, 0)], [(0, 0), (4 * one + one // 10 ** 20, 0)]]
        with mpmath.workprec(256):
            lam, mu = periodic._eigenvalues(noisy, width)
            assert lam == mu and mpmath.fabs(lam - 4) < mpmath.mpf(2) ** -250
            lam, mu = periodic._eigenvalues(apart, width)
            assert mpmath.fabs(mpmath.fabs(lam - mu) - mpmath.mpf(10) ** -20) < mpmath.mpf(10) ** -40


class TestClassify:
    def test_banding(self):
        with mpmath.workprec(128):
            i = mpmath.mpc(0, 1)
            spectrum = (0, mpmath.mpf("0.5"), 1, -1, i, 2, mpmath.exp(i))
            classes = periodic.classify(spectrum)
        kinds = [c.kind for c in classes]
        assert kinds == ["zero", "attracting-nonzero", "parabolic",
                         "parabolic", "parabolic", "repelling",
                         "neutral-irrational-candidate"]
        orders = [c.root_order for c in classes]
        assert orders[2:5] == [1, 2, 4]

    def test_conjugation_consistent(self):
        assert ps.suite_classify_conjugation(n=60) == 60


class TestEigenvalueAudit:
    def test_squaring_p2_clean(self):
        audit = periodic.eigenvalue_audit(_squaring_p2(), 2, 256)
        assert audit.ok
        assert audit.violations == ()
        assert len(audit.verdicts) == 21

    def test_fs_clean(self):
        audit = periodic.eigenvalue_audit(_fs(), 2, 256)
        assert audit.ok
        assert len(audit.verdicts) == 21

    @pytest.mark.parametrize("make", [_fs, _sym2])
    def test_spectra_equal_standalone_multipliers(self, make):
        # The audit takes each point's orbit from find_periodic's walk; a
        # standalone call walks it again, and the bits must agree.
        m = make()
        audit = periodic.eigenvalue_audit(m, 2, 256)
        assert len(audit.verdicts) == 21  # 7 fixed points, 14 of period 2
        for v in audit.verdicts:
            assert v.point.orbit is not None
            alone = periodic.multipliers(m, v.point.point, v.point.period, 256)
            assert [x._mpc_ for x in alone] == [x._mpc_ for x in v.spectrum]

    def test_squaring_p1_clean(self):
        audit = periodic.eigenvalue_audit(_squaring_p1(), 2, 256)
        assert audit.ok
        assert len(audit.verdicts) == 5

    def test_parabolic_violation_detected(self):
        # z -> z^2 - 3/4 has a fixed point with multiplier -1.
        m = projmap.ProjectiveMap([
            _p(2, 2, {(2, 0): 4, (0, 2): -3}), _p(2, 2, {(0, 2): 4})])
        audit = periodic.eigenvalue_audit(m, 1, 256)
        assert not audit.ok
        assert any("root-of-unity" in v for v in audit.violations)

    def test_attracting_violation_detected(self):
        # z -> z^2 + z/2 fixes 0 with multiplier 1/2.
        m = projmap.ProjectiveMap([
            _p(2, 2, {(2, 0): 2, (1, 1): 1}), _p(2, 2, {(0, 2): 2})])
        audit = periodic.eigenvalue_audit(m, 1, 256)
        assert not audit.ok
        assert any("attracting non-zero" in v for v in audit.violations)


class TestBezout:
    def test_weighted_counts_exact(self):
        cases = [
            ("squaring-p1", 1, 3), ("squaring-p1", 2, 5),
            ("squaring-p2", 1, 7), ("squaring-p2", 2, 21),
            ("fs-1992-a", 1, 7), ("fs-1992-a", 2, 21),
        ]
        for name, l, want in cases:
            m = catalog.get(name).map
            count = periodic.bezout_audit(m, l, precision=256)
            assert count.expected == want, (name, l)
            assert count.distinct == want, (name, l)
            assert count.weighted == want, (name, l)
            assert count.ok

    def test_accepts_precomputed_points(self):
        m = _squaring_p1()
        pts = periodic.find_periodic(m, 2, 256)
        count = periodic.bezout_audit(m, 2, points=pts)
        assert count.distinct == 5
        assert count.ok


class TestCountCertificate:
    def test_cli_solves_each_period_once(self, monkeypatch, tmp_path):
        calls = _count_calls(monkeypatch, periodic, "find_periodic")
        out = tmp_path / "report.json"
        code = cli.main(["periodic", "catalog:squaring-p2", "--period", "2",
                         "--report", str(out)])
        assert code == cli.EXIT_OK
        # the period-1 points are read off the certified period-2 solve
        assert [args[1] for args in calls] == [2]

    def test_fs_certified_by_first_chart(self, monkeypatch):
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        for l, want in ((1, 7), (2, 21)):
            del calls[:]
            pts = periodic.find_periodic(_fs(), l, 256)
            assert len(calls) == 1, l
            assert len(pts) == want
            assert all(p.multiplicity == 1 for p in pts)

    def test_squaring_and_sym2_certified_by_one_chart(self, monkeypatch):
        # Every chart of these maps strips an x_c factor, which drops the
        # fixed points on x_c = 0; chart 0's line step finds those exactly,
        # so one plane solve certifies.
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        for m in (_squaring_p2(), _sym2()):
            for l, want in ((1, 7), (2, 21)):
                del calls[:]
                count = periodic.bezout_audit(m, l, precision=256)
                assert len(calls) == 1, l
                assert (count.distinct, count.weighted, count.ok) == (want, want, True)

    def test_line_step_when_the_line_is_not_invariant(self, monkeypatch):
        # (x^2 + y^2 - z^2 : y (y + 2z) + x (2x + 2y - z) : z (y + 2z)) does
        # not map x = 0 into itself, but x_1 F_2 - x_2 F_1 vanishes on it, so
        # h is F_0 there: y^2 - z^2, whose roots (0 : 1 : +-1) are fixed.
        # No factor x is stripped, so chart 0's solve finds them too and the
        # merge keeps each once.
        m = projmap.ProjectiveMap([
            _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}),
            _p(3, 2, {(0, 2, 0): 1, (0, 1, 1): 2, (2, 0, 0): 2, (1, 1, 0): 2, (1, 0, 1): -1}),
            _p(3, 2, {(0, 1, 1): 1, (0, 0, 2): 2})])
        assert projmap.validate(m).verdict == "well-defined"
        line = periodic._line_fixed_points(m, 0, 256)
        assert sorted(line) == [(0, 1, -1), (0, 1, 1)]  # normalized
        assert all(numeric.is_exact(pt) for pt in line)
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        pts = periodic.find_periodic(m, 1, 256)
        assert len(calls) == 1
        assert len(pts) == 7
        with mpmath.workprec(256):
            assert all(any(numeric.proj_distance(pp.point, pt) == 0 for pp in pts) for pt in line)

    def test_irrational_fixed_points_on_an_invariant_line(self, monkeypatch):
        # (x^2 : y^2 - z^2 : z^2) keeps x = 0, where it is w -> w^2 - 1 with
        # the fixed points (0 : 1 : 0) and (0 : phi : 1), phi^2 = phi + 1.
        # The two golden-ratio points come back from the line as Points.
        m = projmap.ProjectiveMap([_p(3, 2, {(2, 0, 0): 1}),
                                   _p(3, 2, {(0, 2, 0): 1, (0, 0, 2): -1}),
                                   _p(3, 2, {(0, 0, 2): 1})])
        line = periodic._line_fixed_points(m, 0, 256)
        assert [numeric.is_exact(pt) for pt in line] == [True, False, False]
        assert line[0] == (0, 1, 0)
        with mpmath.workprec(256):
            for pt, phi in zip(line[1:], sorted((1 + s * mpmath.sqrt(5)) / 2 for s in (1, -1))):
                assert isinstance(pt, numeric.Point) and pt[0] == 0
                assert numeric.proj_distance(pt, (0, phi, 1)) < mpmath.mpf(10) ** -70
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        count = periodic.bezout_audit(m, 1, precision=256)
        assert len(calls) == 1
        assert (count.distinct, count.weighted, count.ok) == (7, 7, True)

    def test_linear_map_fixing_a_line_stays_short(self):
        # (2x : x + y : x + z) fixes the line x = 0 pointwise and (1 : 1 : 1).
        # Chart 0 strips x and finds only (1 : 1 : 1); charts 1 and 2 keep
        # x as a common factor and fail.  With no finiteness flag, the count
        # alone must not certify: it stays at 1 of 3.
        m = projmap.ProjectiveMap([poly.linear_form([2, 0, 0]), poly.linear_form([1, 1, 0]),
                                   poly.linear_form([1, 0, 1])])
        failed = []
        pts = periodic.find_periodic(m, 1, 256, failed)
        assert [chart for chart, _error in failed] == [1, 2]
        assert len(pts) == 1
        with mpmath.workprec(256):
            assert numeric.proj_distance(pts[0].point, (1, 1, 1)) < mpmath.mpf(10) ** -40
        count = periodic.bezout_audit(m, 1, pts)
        assert (count.expected, count.distinct, count.weighted, count.ok) == (3, 1, 1, False)

    def test_uncertified_plane_points_count_once(self):
        # (x^2 + xz : y^2 : z^2) has double fixed points at (0:0:1) and
        # (0:1:1), so 5 distinct points stand for the 7 of the count.  No
        # multiplicity is guessed for them: weighted equals distinct, the
        # count is not ok, and no finding speaks of merged points.
        m = projmap.ProjectiveMap([_p(3, 2, {(2, 0, 0): 1, (1, 0, 1): 1}),
                                   _p(3, 2, {(0, 2, 0): 1}), _p(3, 2, {(0, 0, 2): 1})])
        assert projmap.validate(m).verdict == "well-defined"
        pts = periodic.find_periodic(m, 1, 256)
        assert [p.multiplicity for p in pts] == [1] * 5
        count = periodic.bezout_audit(m, 1, pts)
        assert (count.expected, count.distinct, count.weighted, count.ok) == (7, 5, 5, False)
        audit = periodic.eigenvalue_audit(m, 1, 256, [pts])
        assert not any("multiplicity" in f for f in audit.findings)

    def test_p1_multiplicities_are_exact(self):
        # z -> z^2 + z fixes 0 twice, with multiplier 1, and infinity once:
        # the fixed form s^2 t gives multiplicities 2 and 1, which make up
        # the count.  The double point is one parabolic point, not two
        # merged ones: it is reported by its violations and no finding.
        m = projmap.ProjectiveMap([_p(2, 2, {(2, 0): 1, (1, 1): 1}), _p(2, 2, {(0, 2): 1})])
        pts = periodic.find_periodic(m, 1, 256)
        assert [(tuple(complex(c) for c in p.point), p.multiplicity) for p in pts] == [
            ((0, 1), 2), ((1, 0), 1)]
        count = periodic.bezout_audit(m, 1, pts)
        assert (count.expected, count.distinct, count.weighted, count.ok) == (3, 2, 3, True)
        audit = periodic.eigenvalue_audit(m, 1, 256, [pts])
        assert audit.violations == (
            "period 1 point ((0.0 + 0.0j), (1.0 + 0.0j)): root-of-unity eigenvalue"
            " (1.0 + 0.0j) (order 1)",
            "period 1 point ((0.0 + 0.0j), (1.0 + 0.0j)): non-nilpotent spectrum"
            " without a repelling eigenvalue")
        assert audit.findings == ()

    def test_certificate_resets_overcounted_multiplicities(self):
        # The chart eliminants of this conjugate have multiple roots at
        # simple points; the count makes each of the 7 points simple.
        m = _conjugate(_squaring_p2(), B_ROWS)
        count = periodic.bezout_audit(m, 1, precision=256)
        assert (count.distinct, count.weighted) == (7, 7)


class TestCoordinateChangeInvariance:
    def test_spectrum_invariant(self):
        rng = random.Random(77)
        m = _squaring_p2()
        fixed = (Fraction(1), Fraction(1), Fraction(1))
        base = periodic.multipliers(m, fixed, 1, 256)
        done = 0
        with mpmath.workprec(256):
            tol = mpmath.mpf(10) ** -25
            while done < 20:
                rows = [[Fraction(rng.randint(-3, 3)) for _ in range(3)]
                        for _ in range(3)]
                if projmap.exact_rank(rows) != 3:
                    continue
                g = _conjugate(m, rows)
                inv = ps.invert_matrix(rows)
                moved = tuple(
                    sum(inv[i][j] * fixed[j] for j in range(3))
                    for i in range(3)
                )
                if all(x == 0 for x in moved):
                    continue
                spec = periodic.multipliers(g, moved, 1, 256)
                assert len(spec) == len(base)
                for a, b in zip(spec, base):
                    assert mpmath.fabs(a - b) < tol
                done += 1

    @pytest.mark.parametrize("precision", [64, 256])
    def test_counts_and_spectra_invariant_under_conjugation(self, precision):
        # A seeded property: conjugating squaring-p2, fs-1992-a or Sym^2 by
        # an integer matrix with entries in -2..2 changes neither the
        # certified counts of periods 1 and 2 nor the multiset of
        # multiplier spectra, within the verify tolerance.
        rng = random.Random(precision)
        tol = numeric.tolerances(precision).verify

        def audit(m, l):
            pts = periodic.find_periodic(m, l, precision)
            count = periodic.bezout_audit(m, l, pts)
            spectra = [[complex(v) for v in periodic.multipliers(m, pp.point, pp.period,
                                                                 precision, pp.orbit)]
                       for pp in pts]
            return (count.expected, count.distinct, count.weighted), spectra

        for base in (_squaring_p2(), _fs(), _sym2()):
            want = {l: audit(base, l) for l in (1, 2)}
            for _ in range(4):
                while projmap.exact_rank(rows := [[rng.randint(-2, 2) for _ in range(3)]
                                                  for _ in range(3)]) < 3:
                    pass
                g = _conjugate(base, rows)
                for l in (1, 2):
                    count, spectra = audit(g, l)
                    assert count == want[l][0] and count[0] == count[2], (rows, l)
                    left = list(want[l][1])
                    for spectrum in spectra:
                        match = next(s for s in left if all(
                            abs(a - b) < float(tol) * max(1, abs(b)) for a, b in zip(spectrum, s)))
                        left.remove(match)

    def test_one_chart_and_its_line_hold_every_chart_solve(self):
        # Seeded: on conjugates of squaring-p2, fs-1992-a and Sym^2 by A, B
        # and three matrices with entries in -2..2, zeros included, the
        # verified points of chart 0's solve and its line x0 = 0 are those
        # of the three charts' solves together, within dedup.
        precision, rng = 256, random.Random(29)
        tol = numeric.tolerances(precision)
        matrices = [A_ROWS, B_ROWS]
        while len(matrices) < 5:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if projmap.exact_rank(rows) == 3 and any(0 in row for row in rows):
                matrices.append(rows)

        def chart_solve(big, c):
            eqs = [poly.strip_var(poly.variable(3, c) * big.comps[i]
                                  - poly.variable(3, i) * big.comps[c], c)
                   for i in range(3) if i != c]
            return numeric.solve_pair_p2(*eqs, precision)

        def verified(big, pts):
            forms, kept = numeric.compile_forms(big.comps), numeric.PointSet(precision)
            for pt in pts:
                pt = numeric.normalize_point(pt)[0]
                if numeric.proj_distance(numeric.map_point(forms, pt)[1], pt) < tol.verify:
                    kept.add(pt)
            return kept.points

        with mpmath.workprec(precision):
            for base in (_squaring_p2(), _fs(), _sym2()):
                for rows in matrices:
                    g = _conjugate(base, rows)
                    for l in (1, 2):
                        big, failed = projmap.iterate(g, l), []
                        one = verified(big, next(periodic._fixed_point_candidates_p2(
                            big, precision, failed)))
                        assert failed == [], (rows, l)
                        union = verified(big, [pt for c in range(3) for pt in chart_solve(big, c)])
                        assert len(one) == len(union) == periodic._fixed_point_count(g, l), (rows, l)
                        assert all(any(numeric.proj_distance(p, q) < tol.dedup for q in union)
                                   for p in one), (rows, l)

    def test_equal_moduli_spectra_match_entry_by_entry(self):
        # Sym^2 has multipliers +-2 at one fixed point; their order must
        # not depend on the coordinates the map is written in.
        base = periodic.eigenvalue_audit(_sym2(), 1, 256)
        conj = periodic.eigenvalue_audit(_conjugate(_sym2(), B_ROWS), 1, 256)
        assert len(conj.verdicts) == len(base.verdicts) == 7
        with mpmath.workprec(256):
            tol = mpmath.mpf(10) ** -25
            for v in conj.verdicts:
                moved = _mat_vec(B_ROWS, v.point.point)
                match = [b for b in base.verdicts
                         if numeric.proj_distance(b.point.point, moved) < tol]
                assert len(match) == 1
                assert len(v.spectrum) == len(match[0].spectrum)
                for a, b in zip(v.spectrum, match[0].spectrum):
                    assert mpmath.fabs(a - b) < tol

    def test_chart_invariance_suite(self):
        assert ps.suite_chart_invariance(n=60) == 60
