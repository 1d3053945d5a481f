"""Periodic points, multiplier spectra, classification, counting audits."""

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
        # whose moduli tie: normalizing it once more moves the pivot, so
        # multipliers walks from another representative than find_periodic.
        m = _squaring_p2()
        rng = random.Random(1)
        with mpmath.workprec(256):
            w = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) / 3)
            while True:
                s = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * rng.random())
                rep = (s, s * w, mpmath.mpc(0))
                pt = numeric.normalize_point(rep)[0]
                if numeric.normalize_point(pt)[0] != pt:
                    break
        real = periodic._fixed_point_candidates_p2

        def first_the_tie(big, precision, failed=None):
            yield False, [(rep, 1)]
            yield from real(big, precision, failed)

        monkeypatch.setattr(periodic, "_fixed_point_candidates_p2", first_the_tie)
        found = [periodic.find_periodic(m, l, 256) for l in (1, 2)]
        tied = [pp for pp in found[1] if pp.point == pt]
        assert len(tied) == 1 and tied[0].orbit is None
        with mpmath.workprec(256):
            cur = pt
            for _ in range(2):
                cur = numeric.normalize_point([c.evaluate(cur) for c in m.comps])[0]
            assert tied[0].residual == numeric.proj_distance(cur, pt)
        audit = periodic.eigenvalue_audit(m, 2, 256, found)
        spectrum = [v.spectrum for v in audit.verdicts if v.point is tied[0]]
        alone = periodic.multipliers(m, pt, 2, 256)
        assert [[x._mpc_ for x in s] for s in spectrum] == [[x._mpc_ for x in alone]]

    def test_budget_error(self):
        with pytest.raises(periodic.BudgetError):
            periodic.find_periodic(_squaring_p2(), 4)

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
            moved = projmap.orbit(m, (zeta, 1), 3, 256)[-1]
            assert numeric.proj_distance(moved, (zeta, mpmath.mpc(1))) < mpmath.mpf(10) ** -50
            spec = periodic.multipliers(m, (zeta, 1), 3, 256)
            assert len(spec) == 1
            assert _close(spec[0], 8, mpmath.mpf(10) ** -40)

    @pytest.mark.parametrize("period", [0, -1])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(periodic.PeriodicError, match="period must be >= 1"):
            periodic.multipliers(_squaring_p2(), (1, 1, 1), period, 256)


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
        assert [args[1] for args in calls] == [1, 2]

    def test_fs_certified_by_first_chart(self, monkeypatch):
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        for l, want in ((1, 7), (2, 21)):
            del calls[:]
            pts = periodic.find_periodic(_fs(), l, 256)
            assert len(calls) == 1, l
            assert len(pts) == want
            assert all(p.multiplicity == 1 for p in pts)

    def test_squaring_never_certifies(self, monkeypatch):
        # Every chart of x_i^(2^l) strips an x_c factor, so no chart proves
        # the fixed locus finite and all three run.
        calls = _count_calls(monkeypatch, numeric, "solve_pair_p2")
        for l, want in ((1, 7), (2, 21)):
            del calls[:]
            count = periodic.bezout_audit(_squaring_p2(), l, precision=256)
            assert len(calls) == 3, l
            assert (count.distinct, count.weighted) == (want, want)

    def test_chart_finiteness_flags(self):
        # Chart c proves the fixed locus finite exactly when x_c does not
        # divide F_c, so that no factor of x_c is stripped.
        cases = [(_squaring_p2(), [False, False, False]),
                 (_sym2(), [False, True, False]),
                 (_fs(), [True, True, True])]
        for m, want in cases:
            big = projmap.iterate(m, 1)
            charts = periodic._fixed_point_candidates_p2(big, 256)
            assert [finite for finite, _cands in charts] == want

    def test_certificate_resets_overcounted_multiplicities(self):
        # Over all charts, eliminant hints above 1 survive at simple points
        # of this conjugate and the weighted count reads 9.
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
