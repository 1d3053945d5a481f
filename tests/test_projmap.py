"""Map layer: validation, iteration, Jacobians, restriction, embeddings."""

import random
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
        assert emb.corank == 2
        assert emb.apply((Fraction(3),)) == (3, 3, 3)

    def test_compose_shapes(self):
        plane = projmap.embedding_for_hyperplane(poly.linear_form([1, 0, 0]))
        point = projmap.embedding_for_point([Fraction(1), Fraction(0)], 1)
        through = plane.compose(point)
        assert through.ambient_dim == 2
        assert through.source_dim == 0

    def test_canonical_columns_ignore_scale_and_order(self):
        a = projmap.embedding_for_hyperplane(poly.linear_form([0, 0, 1]))
        # Same columns as the hyperplane basis, rescaled and swapped.
        rows = tuple(
            tuple(Fraction(v) for v in row) for row in ((0, -2), (5, 0), (0, 0))
        )
        b = projmap.LinearEmbedding(rows)
        assert a.canonical_columns() == b.canonical_columns()

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


class TestNumericEvaluation:
    def test_pushforward_normalizes(self):
        m = _squaring_p2()
        with mpmath.workprec(128):
            pt = projmap.pushforward_point(m, (1, 2, 3), 128)
            # (1 : 4 : 9) scaled so the largest coordinate is exactly 1.
            assert pt[2] == mpmath.mpc(1)
            assert mpmath.fabs(pt[0] - mpmath.mpf(1) / 9) < mpmath.mpf(10) ** -30
            assert mpmath.fabs(pt[1] - mpmath.mpf(4) / 9) < mpmath.mpf(10) ** -30

    def test_orbit_excludes_start(self):
        m = _squaring_p1()
        with mpmath.workprec(128):
            pts = projmap.orbit(m, (Fraction(1, 2), 1), 3, 128)
            assert len(pts) == 3
            # Images of 1/2 are 1/4, 1/16, 1/256; the start is not included.
            for got, want in zip(pts, (4, 16, 256)):
                assert got[1] == mpmath.mpc(1)
                err = mpmath.fabs(got[0] - mpmath.mpf(1) / want)
                assert err < mpmath.mpf(10) ** -30


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
        shapes = [(1, 1), (1, 4), (4, 1), (3, 3), (5, 3), (3, 5), (6, 6)]
        for trial in range(210):
            nrows, ncols = shapes[trial % len(shapes)]
            rank = rng.randint(0, min(nrows, ncols))
            # A product of random factors through the chosen inner width,
            # with some rows zeroed and some fractions.
            left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(rank)] for _ in range(nrows)]
            right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(ncols)] for _ in range(rank)]
            rows = [[sum((a * b for a, b in zip(row, col)), Fraction(0))
                     for col in zip(*right)] if right else [Fraction(0)] * ncols
                    for row in left]
            if rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
            want = len(projmap._rref([list(r) for r in rows], ncols))
            assert projmap.exact_rank(rows) == want, rows
        assert projmap.exact_rank([]) == 0

    def test_nullspace_orthogonal(self):
        rows = [[Fraction(1), Fraction(-2), Fraction(3)]]
        basis = projmap.nullspace_basis(rows)
        assert len(basis) == 2
        for vec in basis:
            assert sum(rows[0][i] * vec[i] for i in range(3)) == 0

    def test_invert_matrix(self):
        rows = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        inv = projmap.invert_matrix(rows)
        assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


class TestRandomizedLaws:
    def test_iterate_composition_laws(self):
        assert ps.suite_iterate_additivity(n=60) == 60

    def test_p1_degree_power_law(self):
        assert ps.suite_p1_degree_power(n=60) == 60
