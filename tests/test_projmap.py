"""Map layer: validation, iteration, Jacobians, restriction, embeddings."""

import math
import random
import re
import time
from fractions import Fraction

import mpmath
import pytest

from pcflab import catalog, numeric, poly, projmap

import property_suites as ps


def _p(nvars, degree, terms):
    return poly.HomPoly(nvars, degree, terms)


def _squaring_p2():
    return catalog.get("squaring-p2").map


def _squaring_p1():
    return catalog.get("squaring-p1").map


def _fs():
    return catalog.get("fs-1992-a").map


class TestConstruction:
    def test_dimension_and_degree(self):
        m = _squaring_p2()
        assert m.k == 2
        assert m.d == 2

    def test_rejects_mixed_degrees(self):
        x = poly.variable(3, 0)
        with pytest.raises(projmap.MapError):
            projmap.ProjectiveMap([x * x, x, x])

    def test_rejects_wrong_variable_count(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        with pytest.raises(projmap.MapError):
            projmap.ProjectiveMap([s, t, s])

    def test_immutable_and_hashable(self):
        m = _squaring_p1()
        with pytest.raises(AttributeError):
            m.k = 5
        assert m == projmap.ProjectiveMap(list(m.comps))
        assert hash(m) == hash(projmap.ProjectiveMap(list(m.comps)))


class TestPrimitivize:
    def test_removes_common_polynomial_factor(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        comps, reduced = projmap.primitivize([s * s, s * t])
        assert reduced
        assert comps[0] == s
        assert comps[1] == t

    def test_clears_content_jointly(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        comps, reduced = projmap.primitivize(
            [s.scale(Fraction(1, 2)), t.scale(Fraction(1, 3))]
        )
        assert not reduced
        # Joint scaling keeps the ratio 1/2 : 1/3 = 3 : 2.
        assert comps[0] == s.scale(3)
        assert comps[1] == t.scale(2)

    def test_sign_normalizes_first_component(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        comps, _ = projmap.primitivize([s.scale(-2), t.scale(4)])
        assert comps[0] == s
        assert comps[1] == t.scale(-2)

    def test_rejects_all_zero(self):
        z = poly.zero(2, 1)
        with pytest.raises(projmap.MapError):
            projmap.primitivize([z, z])


class TestValidate:
    def test_squaring_p2_well_defined(self):
        res = projmap.validate(_squaring_p2())
        assert res.verdict == "well-defined"
        assert res.ok
        assert not res.reduced

    def test_fs_well_defined(self):
        res = projmap.validate(_fs())
        assert res.verdict == "well-defined"

    def test_p1_reduction_reported(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        res = projmap.validate(projmap.ProjectiveMap([s * s, s * t]))
        assert res.verdict == "well-defined"
        assert res.reduced
        assert res.map.comps == (s, t)

    def test_degenerate_p2_names_the_common_zero(self):
        x = poly.variable(3, 0)
        y = poly.variable(3, 1)
        m = projmap.ProjectiveMap([x * x, x * y, y * y])
        res = projmap.validate(m)
        assert res.verdict == "degenerate"
        assert not res.ok
        assert "(0:0:1)" in res.witness

    def test_degenerate_p2_conic_pair(self):
        # Components sharing the conic factor xz - y^2 vanish along a curve
        # that must meet the zero set of any third form.
        x = poly.variable(3, 0)
        z = poly.variable(3, 2)
        conic = _p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})
        m = projmap.ProjectiveMap([conic * x, conic * z, _p(3, 3, {(3, 0, 0): 1})])
        res = projmap.validate(m)
        assert res.verdict == "degenerate"
        assert res.witness == "common zero at (0:0:1)"

    def test_cyclic_quadratic_well_defined(self):
        # Every pair of these forms meets where the third is far from 0,
        # and the Macaulay rank is full.
        x, y, z = (poly.variable(3, i) for i in range(3))
        m = projmap.ProjectiveMap([z * z - x * x - x * y - y * y,
                                   x * x - y * y - y * z - z * z,
                                   y * y - x * x - x * z - z * z])
        assert projmap.validate(m).verdict == "well-defined"

    def test_irrational_common_zero_is_approximate(self):
        # x = y = +-sqrt(2) z is the only common zero.
        x, y, z = (poly.variable(3, i) for i in range(3))
        zz = (z * z).scale(2)
        res = projmap.validate(projmap.ProjectiveMap([x * x - zz, y * y - zz, x * y - zz]))
        assert res.verdict == "degenerate"
        assert res.witness.startswith("approximate common zero at (")

    def test_planted_rational_common_zero(self):
        rng = random.Random(1501)
        checked = exact = 0
        for trial in range(180):
            k, d = 1 + (trial % 3 > 0), 1 + trial // 3 % 3
            point = [Fraction(rng.randint(-3, 3)) for _ in range(k + 1)]
            if not any(point):
                point[rng.randrange(k + 1)] = Fraction(1)
            j = next(i for i, c in enumerate(point) if c)
            pin = poly.variable(k + 1, j) ** d
            comps = []
            for _ in range(k + 1):
                f = ps.random_form(rng, k + 1, d)
                comps.append(f - pin.scale(f.evaluate(point) / point[j] ** d))
            if any(f.is_zero() for f in comps):
                continue
            res = projmap.validate(projmap.ProjectiveMap(comps))
            if k == 1:
                # On P^1 a common zero is a common factor, which
                # primitivization divides out.
                assert res.reduced and res.verdict == "well-defined", comps
                continue
            if res.reduced:
                continue  # the factor divided out may have held the zero
            checked += 1
            assert res.verdict == "degenerate", comps
            if res.witness.startswith("common zero at ("):
                exact += 1
                coords = res.witness[len("common zero at ("):-1].split(":")
                zero = [Fraction(c) for c in coords]
                assert all(f.evaluate(zero) == 0 for f in res.map.comps)
        assert checked > 80 and exact > 80

    def test_triangular_maps_well_defined(self):
        rng = random.Random(1502)
        for trial in range(90):
            k, d = 1 + trial % 2, 1 + trial // 2 % 3
            m = ps.random_triangular_map(rng, k, d)
            assert projmap.validate(m).verdict == "well-defined", m

    def test_vanishing_component(self):
        s = poly.variable(2, 0)
        m = projmap.ProjectiveMap([s * s, poly.zero(2, 2)])
        res = projmap.validate(m)
        assert res.verdict == "degenerate"
        assert "vanishes" in res.witness

    def test_rank_first_matches_primitivize_then_rank(self, monkeypatch):
        # validate ranks the scaled components and takes the gcd only when
        # they share a zero.  On seeded maps of P^1 and P^2 it must give
        # the map, verdict, witness and reduced flag of primitivizing
        # first and ranking the result.
        rng = random.Random(1503)
        precision = numeric.resolve_precision(None)

        def want(m):
            comps, reduced = projmap.primitivize(m.comps)
            zero = [i for i, c in enumerate(comps) if c.is_zero()]
            if zero:
                verdict, witness = "degenerate", f"component {zero[0]} vanishes identically"
            elif projmap.has_common_zero(comps):
                verdict, witness = "degenerate", projmap._witness(comps, precision)
            else:
                verdict, witness = "well-defined", None
            return tuple(comps), verdict, witness, reduced

        def planted_zero(k):  # a common zero at a rational point, no factor
            point = [Fraction(rng.randint(-2, 2)) for _ in range(k)] + [Fraction(1)]
            pin = poly.variable(k + 1, k) ** 2
            return [f - pin.scale(f.evaluate(point)) for f in
                    (ps.random_form(rng, k + 1, 2) for _ in range(k + 1))]

        maps = {"factor": [], "zero": [], "common zero": [], "conjugate": []}
        for k, base in ((1, _squaring_p1()), (2, _squaring_p2()), (2, _fs())):
            for _ in range(4):
                g = ps.random_linear(rng, k + 1)
                maps["factor"].append([g * ps.random_form(rng, k + 1, 1 + k % 2)
                                       for _ in range(k + 1)])
                comps = [ps.random_form(rng, k + 1, 2) for _ in range(k + 1)]
                comps[rng.randrange(k + 1)] = poly.zero(k + 1, 2)
                maps["zero"].append(comps)
                if k == 2:
                    maps["common zero"].append(planted_zero(k))
                    maps["factor"].append([g * f for f in planted_zero(k)])
                maps["conjugate"].append(
                    ps.conjugate(base, ps._random_invertible(rng, k + 1)).comps)
        counts = {}
        for kind, cases in maps.items():
            for comps in cases:
                if all(c.is_zero() for c in comps):
                    continue
                m = projmap.ProjectiveMap(comps)
                expected = want(m)
                calls = {"gcd_many": 0, "has_common_zero": 0}
                with monkeypatch.context() as mp:
                    for module, name in ((poly, "gcd_many"), (projmap, "has_common_zero")):
                        def counted(*args, _real=getattr(module, name), _name=name):
                            calls[_name] += 1
                            return _real(*args)
                        mp.setattr(module, name, counted)
                    res = projmap.validate(m)
                assert (res.map.comps, res.verdict, res.witness, res.reduced) == expected, comps
                # The gcd is taken only on a common zero or a zero
                # component, the rank only when no component vanishes, and
                # again only on components that primitivizing changed.
                reduced_comps, verdict, _witness, reduced = expected
                vanishes = any(c.is_zero() for c in comps)
                assert calls["gcd_many"] == (verdict == "degenerate" or reduced)
                assert calls["has_common_zero"] == (not vanishes) * (1 + reduced)
                counts[kind, verdict, reduced] = counts.get((kind, verdict, reduced), 0) + 1
        assert counts[("conjugate", "well-defined", False)] == 12
        assert counts[("factor", "well-defined", True)] > 4
        assert counts[("factor", "degenerate", True)] > 4
        assert counts[("common zero", "degenerate", False)] > 4
        assert counts[("zero", "degenerate", False)] > 2

    def test_p3_unsupported(self):
        vs = [poly.variable(4, i) for i in range(4)]
        m = projmap.ProjectiveMap([v * v for v in vs])
        with pytest.raises(projmap.MapError):
            projmap.validate(m)


class TestHasCommonZero:
    X, Y, Z = (poly.variable(3, i) for i in range(3))

    def test_mixed_degrees_with_a_complex_zero(self):
        # x, y^2 + z^2 and y^3 + y z^2 all vanish at (0 : ±i : 1).
        x, y, z = self.X, self.Y, self.Z
        assert projmap.has_common_zero([x, y * y + z * z, y ** 3 + y * z * z])
        assert not projmap.has_common_zero([x, y * y + z * z, y * z])

    def test_more_forms_than_variables(self):
        # xy, yz and zx vanish together at the three coordinate points
        # only; x + y + z misses them all, and x + y passes through (0:0:1).
        x, y, z = self.X, self.Y, self.Z
        assert not projmap.has_common_zero([x * y, y * z, z * x, x + y + z])
        assert projmap.has_common_zero([x * y, y * z, z * x, x + y])

    def test_few_zero_or_constant_forms(self):
        x, y = self.X, self.Y
        assert projmap.has_common_zero([x, poly.zero(3, 2), y])
        assert projmap.has_common_zero([x * y, x])
        assert not projmap.has_common_zero([x, y, poly.constant(3, 5)])


class TestIterate:
    def test_square_of_squaring(self):
        m2 = projmap.iterate(_squaring_p2(), 2)
        x = poly.variable(3, 0)
        y = poly.variable(3, 1)
        z = poly.variable(3, 2)
        assert m2.comps == (x ** 4, y ** 4, z ** 4)

    def test_first_iterate_is_the_map(self):
        m = _fs()
        assert projmap.iterate(m, 1) == m

    def test_nesting_multiplies(self):
        m = _squaring_p1()
        assert projmap.iterate(projmap.iterate(m, 2), 3) == projmap.iterate(m, 6)

    def test_sparse_iterate_at_the_degree_cap(self):
        # A product that packs a whole form into one integer is dense in the
        # degree and takes minutes here; the keyed sparse product does not.
        started = time.perf_counter()
        powers = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        m12 = projmap.iterate(_squaring_p2(), 12)
        assert m12.comps == tuple(poly.monomial(3, [4096 * k for k in e]) for e in powers)
        subs = [poly.monomial(3, [2048 * k for k in e]) for e in powers]
        x = poly.variable(3, 0)
        assert poly.compose(x * x, subs) == poly.monomial(3, (4096, 0, 0))
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"took {elapsed:.2f}s, ceiling is 2s"

    def test_degree_cap_trips(self):
        with pytest.raises(projmap.DegreeCapError):
            projmap.iterate(_squaring_p2(), 13)  # 2^13 = 8192 > 4096

    def test_rejects_nonpositive_count(self):
        with pytest.raises(projmap.MapError):
            projmap.iterate(_squaring_p1(), 0)


class TestJacobian:
    def test_squaring_p2_jacobian(self):
        x = poly.variable(3, 0)
        y = poly.variable(3, 1)
        z = poly.variable(3, 2)
        j = projmap.jacobian_det(_squaring_p2())
        assert j == (x * y * z).scale(8)

    def test_p1_jacobian(self):
        # Newton's map for z^2 - 2: (s^2 + 2t^2 : 2st).
        s, t = poly.variable(2, 0), poly.variable(2, 1)
        m = projmap.ProjectiveMap([s * s + (t * t).scale(2), (s * t).scale(2)])
        assert projmap.jacobian_det(m) == (s * s).scale(4) - (t * t).scale(8)

    def test_rejects_p3(self):
        m = projmap.ProjectiveMap([poly.variable(4, i) for i in range(4)])
        with pytest.raises(projmap.MapError):
            projmap.jacobian_det(m)

    def test_degree_formula(self):
        for name in catalog.names():
            m = catalog.get(name).map
            j = projmap.jacobian_det(m)
            assert j.degree == (m.k + 1) * (m.d - 1)

    def test_chain_rule_on_catalog(self):
        # D(f о f) agrees with (Df о f) * Df up to the constant that
        # primitivization of the iterate may absorb.
        for name in ("squaring-p2", "fs-1992-a"):
            m = catalog.get(name).map
            m2 = projmap.iterate(m, 2)
            lhs = poly.canonical(projmap.jacobian_det(m2))
            j = projmap.jacobian_det(m)
            rhs = poly.canonical(poly.compose(j, list(m.comps)) * j)
            assert lhs == rhs


class TestP1Degree:
    def test_reduced_degree(self):
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        m = projmap.ProjectiveMap([s * s, s * t])
        assert projmap.p1_degree(m) == 1

    def test_plain_degree(self):
        assert projmap.p1_degree(_squaring_p1()) == 2

    def test_rejects_plane_maps(self):
        with pytest.raises(projmap.MapError):
            projmap.p1_degree(_squaring_p2())


class TestEmbeddings:
    def test_hyperplane_embedding_lies_on_hyperplane(self):
        form = poly.linear_form([1, -2, 3])
        emb = projmap.embedding_for_hyperplane(form)
        assert emb.ambient_dim == 2
        assert emb.source_dim == 1
        for pt in [(Fraction(1), Fraction(0)), (Fraction(2), Fraction(5))]:
            image = emb.apply(pt)
            assert form.evaluate(image) == 0

    def test_point_embedding_corank(self):
        emb = projmap.embedding_for_point([Fraction(1), Fraction(1), Fraction(1)], 2)
        assert emb.ambient_dim - emb.source_dim == 2
        assert emb.apply((Fraction(3),)) == (3, 3, 3)

    def test_rank_checked(self):
        with pytest.raises(projmap.MapError):
            projmap.LinearEmbedding(((1, 1), (2, 2), (0, 0)))


class TestRestrict:
    def test_squaring_on_coordinate_line(self):
        m = _squaring_p2()
        line = projmap.embedding_for_hyperplane(poly.linear_form([1, 0, 0]))
        g = projmap.restrict(m, line, line)
        s = poly.variable(2, 0)
        t = poly.variable(2, 1)
        assert g.comps == (s * s, t * t)

    def test_functorial_under_iteration(self):
        m = _squaring_p2()
        line = projmap.embedding_for_hyperplane(poly.linear_form([0, 1, 0]))
        lhs = projmap.restrict(projmap.iterate(m, 2), line, line)
        rhs = projmap.iterate(projmap.restrict(m, line, line), 2)
        assert lhs == rhs

    def test_non_invariant_pair_raises(self):
        m = _squaring_p2()
        src = projmap.embedding_for_hyperplane(poly.linear_form([1, 0, 0]))
        dst = projmap.embedding_for_hyperplane(poly.linear_form([1, -1, 0]))
        with pytest.raises(projmap.RestrictionError):
            projmap.restrict(m, src, dst)

    def test_restriction_to_fixed_point_rejected(self):
        m = _squaring_p2()
        pt = projmap.embedding_for_point([Fraction(1), Fraction(0), Fraction(0)], 2)
        with pytest.raises(projmap.MapError):
            projmap.restrict(m, pt, pt)

    def test_fs_three_line_cycle_restriction(self):
        # The line y = z sits in a 3-cycle of lines (y=z -> x=y -> x=z), so
        # the cube of the map fixes it and restricts to a degree-8 line map.
        m = _fs()
        line = projmap.embedding_for_hyperplane(poly.linear_form([0, 1, -1]))
        m3 = projmap.iterate(m, 3)
        g = projmap.restrict(m3, line, line)
        assert g.k == 1
        assert projmap.p1_degree(g) == 8

    def test_fs_cycle_steps(self):
        # One application of the map carries each cycle line to the next.
        m = _fs()
        forms = [
            poly.linear_form([0, 1, -1]),
            poly.linear_form([1, -1, 0]),
            poly.linear_form([1, 0, -1]),
        ]
        for i in range(3):
            src = projmap.embedding_for_hyperplane(forms[i])
            dst = projmap.embedding_for_hyperplane(forms[(i + 1) % 3])
            g = projmap.restrict(m, src, dst)
            assert g.k == 1
            assert g.d == 2


    def test_seeded_restrictions_match_rref(self):
        # m is built so that m * S = T * g for random embeddings S, T and
        # forms g; a perturbed m may leave the target.  The oracle reduces
        # [T | h] and either names the first monomial with no solution or
        # reads off g up to a common scalar.
        rng = random.Random(2029)
        raised = solved = 0
        for trial in range(60):
            k = 2 + trial % 2  # maps of P^2 and P^3
            n = 2 + trial // 2 % (k - 1)  # restricted to lines, and planes of P^3
            d = 1 + trial % 3
            while True:
                a = _seeded_matrix(rng, k + 1, k + 1, k + 1)
                t = _seeded_matrix(rng, k + 1, n, n)
                inv = [list(row) + [Fraction(int(i == j)) for j in range(k + 1)]
                       for i, row in enumerate(a)]
                if (len(_gauss_jordan(inv, k + 1)) == k + 1
                        and len(_gauss_jordan([list(r) for r in t], n)) == n):
                    break
            left = [poly.linear_form(row[k + 1:]) for row in inv[:n]]  # left * S = 1
            g = [_p(n, d, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                           for e in _exponents(n, d)}) for _ in range(n)]
            comps = [poly.zero(k + 1, d) for _ in range(k + 1)]
            for i in range(k + 1):
                for b in range(n):
                    comps[i] = comps[i] + poly.compose(g[b], left).scale(t[i][b])
            if trial % 3 == 0:
                e = rng.choice(_exponents(k + 1, d))
                comps[rng.randrange(k + 1)] += _p(k + 1, d, {e: rng.randint(1, 3)})
            if all(c.is_zero() for c in comps):
                continue
            src = projmap.LinearEmbedding(tuple(tuple(row[:n]) for row in a))
            dst = projmap.LinearEmbedding(tuple(map(tuple, t)))
            pushed = [poly.compose(c, [poly.linear_form(row) for row in src.matrix])
                      for c in comps]
            exps = sorted({e for q in pushed for e in q.terms})
            system = [list(row) + [q.terms.get(e, Fraction(0)) for e in exps]
                      for row, q in zip(t, pushed)]
            pivots = _gauss_jordan(system, n + len(exps))
            m = projmap.ProjectiveMap(comps)
            if len(pivots) > n:
                raised += 1
                with pytest.raises(projmap.RestrictionError,
                                   match=re.escape(f"at monomial {exps[pivots[n] - n]}")):
                    projmap.restrict(m, src, dst)
                continue
            solved += 1
            want = [{e: system[a][n + j] for j, e in enumerate(exps) if system[a][n + j]}
                    for a in range(n)]
            got = projmap.restrict(m, src, dst).comps
            scale = next(q / want[a][e] for a, c in enumerate(got) for e, q in c.terms.items())
            assert [c.terms for c in got] == [{e: q * scale for e, q in w.items()} for w in want]
        assert raised > 5 and solved > 30


class TestNumericEvaluation:
    def test_pushforward_normalizes(self):
        m = _squaring_p2()
        with mpmath.workprec(128):
            pt = ps.pushforward_point(m, (1, 2, 3), 128)
            # (1 : 4 : 9) scaled so the largest coordinate is exactly 1.
            x, y, z = ps.coords(pt)
            assert z == mpmath.mpc(1)
            assert mpmath.fabs(x - mpmath.mpf(1) / 9) < mpmath.mpf(10) ** -30
            assert mpmath.fabs(y - mpmath.mpf(4) / 9) < mpmath.mpf(10) ** -30

    def test_orbit_excludes_start(self):
        m = _squaring_p1()
        with mpmath.workprec(128):
            pts = ps.orbit(m, (Fraction(1, 2), 1), 3, 128)
            assert len(pts) == 3
            # Images of 1/2 are 1/4, 1/16, 1/256; the start is not included.
            for got, want in zip(pts, (4, 16, 256)):
                x, y = ps.coords(got)
                assert y == mpmath.mpc(1)
                err = mpmath.fabs(x - mpmath.mpf(1) / want)
                assert err < mpmath.mpf(10) ** -30


def _gauss_jordan(rows, ncols):
    """Reference oracle: reduce Fraction rows in place to reduced row
    echelon form on their first ncols columns.  Returns the pivot columns;
    pivot row r carries a 1 in pivots[r]."""
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        pivot = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [x * inv for x in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                fac = rows[r][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def _oracle_kernel(rows, ncols):
    """The kernel basis from the oracle's reduced form: for each free column
    the vector with 1 there, 0 at the other free columns, scaled to
    coprime integers with its first non-zero entry positive."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = _gauss_jordan(m, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        den = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
        basis.append(tuple(v // g for v in ints))
    return basis


def _seeded_matrix(rng, nrows, ncols, rank):
    """A random rational matrix of the given shape and rank at most
    ``rank``: a product through that inner width, with fractions, and a
    zero row now and then."""
    left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(rank)] for _ in range(nrows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(ncols)] for _ in range(rank)]
    rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*right)] if right else [Fraction(0)] * ncols
            for row in left]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return rows


def _exponents(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    return [(i,) + e for i in range(degree + 1) for e in _exponents(nvars - 1, degree - i)]


# One-row, square, tall and wide shapes.
SHAPES = [(1, 1), (1, 4), (4, 1), (3, 3), (5, 3), (3, 5), (6, 6)]


class TestLinearAlgebra:
    def test_exact_rank(self):
        rows = [
            [Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4)],
            [Fraction(0), Fraction(1)],
        ]
        assert projmap.exact_rank(rows) == 2

    def test_exact_rank_matches_rref(self):
        rng = random.Random(1503)
        for trial in range(210):
            nrows, ncols = SHAPES[trial % len(SHAPES)]
            rows = _seeded_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            want = len(_gauss_jordan([list(r) for r in rows], ncols))
            assert projmap.exact_rank(rows) == want, rows
        assert projmap.exact_rank([]) == 0

    def test_nullspace_matches_rref(self):
        # The basis is the oracle's, vector for vector, on rank-deficient,
        # full-rank, one-row, zero-row and fractional systems.
        rng = random.Random(1717)
        for trial in range(270):
            nrows, ncols = SHAPES[trial % len(SHAPES)]
            rows = _seeded_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
            basis = projmap.nullspace_basis(rows)
            assert basis == _oracle_kernel(rows, ncols), rows
            for vec in basis:
                assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        assert projmap.nullspace_basis([]) == []
        assert projmap.nullspace_basis([[0, 0]]) == [(1, 0), (0, 1)]

    def test_nullspace_orthogonal(self):
        rows = [[Fraction(1), Fraction(-2), Fraction(3)]]
        basis = projmap.nullspace_basis(rows)
        assert len(basis) == 2
        for vec in basis:
            assert sum(rows[0][i] * vec[i] for i in range(3)) == 0

    def test_invert_matrix(self):
        rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        inv = ps.invert_matrix(rows)
        assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]

    def test_invert_matrix_matches_rref(self):
        rng = random.Random(1889)
        for trial in range(120):
            n = 1 + trial % 5
            rows = _seeded_matrix(rng, n, n, n if trial % 4 else rng.randint(0, n))
            m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                 for i, row in enumerate(rows)]
            if len(_gauss_jordan(m, n)) < n:
                with pytest.raises(projmap.MapError, match="singular"):
                    ps.invert_matrix(rows)
            else:
                assert ps.invert_matrix(rows) == [row[n:] for row in m], rows

    def test_singular_matrix_rejected(self):
        rows = [[Fraction(1, 2), Fraction(1)], [Fraction(-1), Fraction(-2)]]
        with pytest.raises(projmap.MapError, match="singular"):
            ps.invert_matrix(rows)


class TestRandomizedLaws:
    def test_iterate_composition_laws(self):
        assert ps.suite_iterate_additivity(n=60) == 60

    def test_p1_degree_power_law(self):
        assert ps.suite_p1_degree_power(n=60) == 60
