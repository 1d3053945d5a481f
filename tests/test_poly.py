"""Exact polynomial layer: frozen desk values plus seeded randomized laws."""

import contextlib
import random
import signal
from fractions import Fraction
from math import gcd

import pytest

from pcflab import poly
from pcflab.poly import HomPoly, PolynomialError

import property_suites as ps


def _p(nvars, degree, terms):
    return HomPoly(nvars, degree, terms)


X2, Y2 = (2, 0), (0, 2)
XY = (1, 1)


@contextlib.contextmanager
def _within(seconds):
    """Raise TimeoutError inside the block once it has run ``seconds``."""
    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestConstruction:
    def test_rejects_wrong_degree_sum(self):
        with pytest.raises(PolynomialError):
            _p(2, 2, {(1, 0): 1})

    def test_rejects_negative_exponent(self):
        with pytest.raises(PolynomialError):
            _p(2, 0, {(-1, 1): 1})

    def test_rejects_single_variable(self):
        with pytest.raises(PolynomialError):
            _p(1, 1, {(1,): 1})

    def test_public_constructor_checks_every_term(self):
        # Forms that poly builds itself skip these checks; input never does.
        for nvars, degree, terms in ((3, 2, {(1, 1): 1}),        # tuple too short
                                     (3, 2, {(1, 1, 0): 1, (2, 0, 1): 1}),  # wrong degree tag
                                     (3, 2, {(3, -1, 0): 1})):   # negative exponent
            with pytest.raises(PolynomialError):
                _p(nvars, degree, terms)

    def test_zero_coefficients_dropped(self):
        p = _p(2, 2, {X2: 0, Y2: 3})
        assert p.terms == {Y2: Fraction(3)}

    def test_zero_keeps_degree_tag(self):
        z = poly.zero(2, 3)
        assert z.is_zero() and z.degree == 3
        assert poly.partial(z, 0).degree == 2

    def test_monomial_variable_constant(self):
        assert poly.variable(3, 1) == _p(3, 1, {(0, 1, 0): 1})
        assert poly.monomial(2, (1, 1), 5) == _p(2, 2, {XY: 5})
        assert poly.constant(2, Fraction(7, 2)).degree == 0


class TestArithmetic:
    def test_product_difference_of_squares(self):
        x_plus_y = poly.linear_form([1, 1])
        x_minus_y = poly.linear_form([1, -1])
        assert x_plus_y * x_minus_y == _p(2, 2, {X2: 1, Y2: -1})

    def test_square_binomial(self):
        x_plus_y = poly.linear_form([1, 1])
        assert x_plus_y * x_plus_y == _p(2, 2, {X2: 1, XY: 2, Y2: 1})

    def test_products_of_one_degree_share_exponent_tuples(self):
        x, y, z = (poly.variable(3, i) for i in range(3))
        a = x * (y * y)
        b = (x + z) * (y * y - z * z)
        # Keys turn back into tuples through one cache, per key and degree.
        shared = [next(k for k in f.terms if k == (1, 2, 0)) for f in (a, b)]
        assert shared[0] is shared[1]
        info = poly._exponents.cache_info()
        assert info.maxsize == 1 << 16 and info.currsize <= info.maxsize

    def test_partial_derivative(self):
        p = _p(3, 3, {(2, 1, 0): 1})  # x^2 y
        assert poly.partial(p, 0) == _p(3, 2, {(1, 1, 0): 2})
        assert poly.partial(p, 2) == poly.zero(3, 2)

    def test_evaluate_exact(self):
        p = _p(2, 2, {X2: 1, Y2: -1})
        assert p.evaluate((Fraction(3), Fraction(2))) == 5

    def test_compose_squares(self):
        p = _p(2, 2, {X2: 1, Y2: 1})
        q = poly.compose(p, [poly.monomial(2, X2), poly.monomial(2, Y2)])
        assert q == _p(2, 4, {(4, 0): 1, (0, 4): 1})


class TestNormalization:
    def test_canonical_clears_denominators_and_sign(self):
        p = _p(2, 1, {(1, 0): Fraction(-1, 2), (0, 1): Fraction(1, 3)})
        assert poly.canonical(p) == _p(2, 1, {(1, 0): 3, (0, 1): -2})

    def test_int_primitive_removes_content(self):
        p = _p(2, 2, {X2: 4, Y2: -6})
        assert poly.int_primitive(p) == _p(2, 2, {X2: 2, Y2: -3})

    def test_canonical_idempotent(self):
        p = _p(2, 2, {X2: 4, XY: -2})
        assert poly.canonical(poly.canonical(p)) == poly.canonical(p)


class TestDivisionAndGcd:
    def test_exact_divide_round_trip(self):
        a = _p(2, 2, {X2: 1, XY: 1})
        b = poly.linear_form([2, -3])
        assert poly.exact_divide(a * b, b) == a

    def test_exact_divide_rejects_nondivisor(self):
        a = _p(2, 2, {X2: 1, Y2: 1})
        assert poly.exact_divide(a, poly.linear_form([1, 1])) is None

    def test_division_by_a_form_of_higher_degree(self):
        # Packed in a base that covers only the dividend's degree, the
        # quartic's keys collide and the reduction never ends.
        a = _p(3, 2, {(2, 0, 0): 1, (1, 1, 0): -4, (0, 2, 0): 4})
        b = _p(3, 4, {(4, 0, 0): 1, (1, 0, 3): 2, (0, 3, 1): 1, (0, 2, 2): 1})
        with _within(0.5):
            assert poly.remainder(a, b) == a
            assert poly.exact_divide(a, b) is None

    def test_gcd_of_shifted_products(self):
        u = poly.linear_form([1, 1])
        v = poly.linear_form([1, -1])
        g = poly.gcd(u * u * v, u * v * v)
        assert g == poly.canonical(u * v)

    def test_gcd_coprime_is_constant(self):
        assert poly.gcd(poly.linear_form([1, 1]),
                        poly.linear_form([1, -1])).is_constant()

    def test_squarefree_part_strips_multiplicity(self):
        u = poly.linear_form([1, 1])
        v = poly.linear_form([1, -1])
        assert poly.squarefree_part(u * u * v) == poly.canonical(u * v)

    def test_slice_poly_in_any_variable_count(self):
        p = _p(4, 2, {(1, 0, 1, 0): 3, (0, 0, 2, 0): Fraction(1, 2), (0, 1, 0, 1): -1})
        assert poly.slice_poly(p, 1) == _p(3, 2, {(1, 1, 0): 3, (0, 2, 0): Fraction(1, 2)})
        assert poly.slice_poly(p, 3) == _p(3, 2, {(1, 0, 1): 3, (0, 0, 2): Fraction(1, 2)})
        # Quaternary gcds take contents through it.
        u, v, w = (poly.linear_form(c) for c in ([1, 2, 0, -1], [0, 1, 1, 3], [2, 0, -1, 1]))
        assert poly.gcd(u * u * v, u * w * w) == poly.canonical(u)


class TestBinaryImage:
    def test_values_over_the_common_denominator(self):
        # (s^2 + t^2/2 : 3st) at (1/2 : 1), whose primitive vector is (1, 2):
        # the values 3 and 6, times the denominator 2.
        forms = [_p(2, 2, {X2: 1, Y2: Fraction(1, 2)}), _p(2, 2, {XY: 3})]
        assert poly.binary_image(forms, (Fraction(1, 2), Fraction(1))) == (6, 12)

    def test_agrees_with_evaluate(self):
        rng = random.Random(11)
        for _ in range(50):
            d = rng.randint(0, 6)
            forms = [ps.random_form(rng, 2, d, max_terms=d + 1, allow_fractions=True)
                     for _ in range(2)]
            pt = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(1, 5)))
            got = poly.binary_image(forms, pt)
            want = [f.evaluate(poly.primitive_vector(pt)) for f in forms]
            den = got[0] / want[0] if want[0] else got[1] / want[1] if want[1] else 1
            assert den.denominator == 1 and den > 0
            assert list(got) == [w * den for w in want]


class TestDenseBinary:
    """The dense path of binary gcd, square-free part and composition.

    Oracles: the gcd rule of the first non-vanishing subresultant, which
    ``gcd`` applies only to forms in more variables; a common factor known
    by construction; and exact evaluation at deg + 1 distinct points, which
    pins a binary form of degree deg.
    """

    X0, X1 = poly.variable(2, 0), poly.variable(2, 1)

    @staticmethod
    def _linears(rng, count, first=None):
        """``count`` pairwise non-proportional linear forms with rational
        coefficients, starting with the coordinate ``first`` if given."""
        seen = set()
        out = []
        if first is not None:
            seen.add((1, 0) if first == 0 else (0, 1))
            out.append(poly.variable(2, first))
        while len(out) < count:
            vec = (rng.randint(-6, 6), rng.randint(-6, 6))
            if vec == (0, 0):
                continue
            g = gcd(*vec)
            key = (vec[0] // g, vec[1] // g)
            key = key if key > (0, 0) else (-key[0], -key[1])
            if key not in seen:
                seen.add(key)
                scale = Fraction(rng.choice((-1, 1)), rng.randint(1, 3))
                out.append(poly.linear_form([v * scale for v in vec]))
        return out

    @staticmethod
    def _product(forms, rng):
        p = poly.constant(2, Fraction(rng.choice((-1, 1)) * rng.randint(1, 12),
                                      rng.randint(1, 5)))
        for f in forms:
            p = p * f ** rng.randint(1, 3)
        return p

    @staticmethod
    def _subresultant_rule(a, b):
        """gcd of nonzero binary forms: the x0-content of a binary form is a
        power of x1, and the x0-primitive part of the first non-vanishing
        subresultant in x0 of the x0-primitive parts is their gcd; when
        every S_j vanishes, the operand of the smaller x0-degree is."""
        power = poly.variable(2, 1) ** min(a.min_var_degree(1), b.min_var_degree(1))
        a, b = poly.strip_var(a, 1), poly.strip_var(b, 1)
        if a.var_degree(0) > b.var_degree(0):
            a, b = b, a
        for j in range(a.var_degree(0)):
            s = poly.subresultant(a, b, 0, j)
            if s:
                return poly.canonical(power * poly.strip_var(s, 1))
        return poly.canonical(power * a)

    def test_gcd_matches_subresultant_rule_and_known_factor(self):
        rng = random.Random(811)
        for _ in range(240):
            first = rng.choice((0, 1)) if rng.random() < 0.4 else None
            lin = self._linears(rng, rng.randint(1, 7), first)
            rng.shuffle(lin)
            cut1 = rng.randint(0, len(lin))
            cut2 = rng.randint(cut1, len(lin))
            common, only_a, only_b = lin[:cut1], lin[cut1:cut2], lin[cut2:]
            c = self._product(common, rng)
            a = c * self._product(only_a, rng)
            b = c * self._product(only_b, rng)
            got = poly.gcd(a, b)
            assert got == self._subresultant_rule(a, b), (a, b)
            assert got == poly.canonical(c), (a, b)

    def test_gcd_matches_subresultant_rule_on_random_forms(self):
        rng = random.Random(812)
        for _ in range(200):
            shared = ps.random_form(rng, 2, rng.randint(0, 3), allow_fractions=True)
            a = shared * ps.random_form(rng, 2, rng.randint(0, 4), allow_fractions=True)
            b = shared * ps.random_form(rng, 2, rng.randint(0, 4), allow_fractions=True)
            assert poly.gcd(a, b) == self._subresultant_rule(a, b), (a, b)

    def test_gcd_edge_cases(self):
        x0, x1 = self.X0, self.X1
        u = poly.linear_form([2, -3])
        v = poly.linear_form([1, 1])
        # Integer content drops out: gcd(2x, 4x) = x.
        assert poly.gcd(x0.scale(2), x0.scale(4)) == x0
        assert poly.gcd(x1.scale(-2), x1.scale(Fraction(4, 3))) == x1
        # A constant operand.
        assert poly.gcd(poly.constant(2, 6), u * v) == poly.constant(2, 1)
        assert poly.gcd(u * v, poly.constant(2, Fraction(-1, 2))) == poly.constant(2, 1)
        # Identical operands, negative leading coefficient.
        assert poly.gcd(-(u * u * v), -(u * u * v)) == poly.canonical(u * u * v)
        # Coprime operands.
        assert poly.gcd(u ** 3, v ** 2) == poly.constant(2, 1)
        # Powers of the coordinates: the power of x1 is kept apart from the
        # dehomogenized gcd, the power of x0 lives in it.
        assert poly.gcd(x1 ** 3 * u, x1 ** 2 * v) == x1 ** 2
        assert poly.gcd(x1 ** 3 * u, x1 ** 5 * u * v) == poly.canonical(x1 ** 3 * u)
        assert poly.gcd(x0 ** 4 * x1, x0 ** 2 * x1 ** 3) == x0 ** 2 * x1
        assert poly.gcd(x0 ** 2 * u, x1 ** 2 * u) == poly.canonical(u)
        assert poly.gcd(x1 ** 2, x1 ** 2) == x1 ** 2
        # The zero form.
        assert poly.gcd(poly.zero(2, 3), u.scale(-4)) == poly.canonical(u)

    def test_squarefree_part_with_coordinate_powers(self):
        x0, x1 = self.X0, self.X1
        u = poly.linear_form([3, -5])
        v = poly.linear_form([Fraction(1, 2), 7])
        q = poly.HomPoly(2, 2, {(2, 0): 1, (0, 2): 2})  # irreducible
        cases = [
            (x1 * u * u, x1 * u),
            (x1 ** 4 * v, x1 * v),
            (x0 * v ** 3, x0 * v),
            (x0 ** 5 * x1 ** 2, x0 * x1),
            (x0 ** 3 * x1 ** 3 * u ** 2 * v * q ** 2, x0 * x1 * u * v * q),
            (x1 ** 6, x1),
            (x0 ** 2, x0),
            ((-u) ** 3 * q.scale(Fraction(-2, 7)), u * q),
            (u * v, u * v),
        ]
        for p, want in cases:
            assert poly.squarefree_part(p) == poly.canonical(want), p

    def test_squarefree_part_matches_gcd_with_both_partials(self):
        rng = random.Random(813)
        for _ in range(200):
            p = self._product(self._linears(rng, rng.randint(1, 5)), rng)
            if rng.random() < 0.5:
                p = p * ps.random_form(rng, 2, rng.randint(1, 3), allow_fractions=True)
            for i in range(2):
                if rng.random() < 0.4:
                    p = p * poly.variable(2, i) ** rng.randint(1, 3)
            g = poly.gcd(poly.gcd(p, poly.partial(p, 0)), poly.partial(p, 1))
            assert poly.squarefree_part(p) == poly.canonical(poly.exact_divide(p, g)), p

    @staticmethod
    def _irreducibles(rng, count):
        """``count`` pairwise coprime irreducible binary forms with rational
        coefficients and no coordinate factor: linear forms with both
        coefficients non-zero, and quadratics whose discriminant is not a
        square."""
        seen, out = set(), []
        while len(out) < count:
            if rng.random() < 0.7:
                vec = (rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6), 0)
            else:
                vec = (rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(-4, 4),
                       rng.randint(1, 4))
                disc = vec[1] ** 2 - 4 * vec[0] * vec[2]
                if disc >= 0 and round(disc ** 0.5) ** 2 == disc:
                    continue
            form = (poly.linear_form(vec[:2]) if not vec[2]
                    else poly.HomPoly(2, 2, {(2, 0): vec[0], (1, 1): vec[1], (0, 2): vec[2]}))
            key = poly.canonical(form)
            if key not in seen:
                seen.add(key)
                out.append(form.scale(Fraction(rng.choice((-1, 1)), rng.randint(1, 5))))
        return out

    def test_squarefree_decomposition_of_known_pieces(self):
        # p = c * x0^m0 * x1^m1 * prod_k P_k^k with the P_k square-free and
        # pairwise coprime: the coordinate powers come back as their own
        # pieces, then one canonical piece per multiplicity 1..4.
        rng = random.Random(815)
        coords = (self.X0, self.X1)
        by_key = lambda mp: (mp[0], mp[1].sort_key())
        for _ in range(300):
            p = poly.constant(2, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                          rng.randint(1, 5)))
            want = []
            classes = {}
            for f in self._irreducibles(rng, rng.randint(0, 6)):
                classes.setdefault(rng.randint(1, 4), []).append(f)
            for mult, forms in classes.items():
                piece = poly.constant(2, 1)
                for f in forms:
                    piece = piece * f
                want.append((mult, poly.canonical(piece)))
                p = p * piece ** mult
            for i in range(2):
                if rng.random() < 0.4:
                    mult = rng.randint(1, 4)
                    want.append((mult, coords[i]))
                    p = p * coords[i] ** mult
            assert poly.binary_squarefree_decomposition(p) == sorted(want, key=by_key), p

    def test_squarefree_decomposition_edge_cases(self):
        x0, x1 = self.X0, self.X1
        u = poly.linear_form([Fraction(-3, 2), 5])
        q = poly.HomPoly(2, 2, {(2, 0): Fraction(2, 3), (0, 2): 1})  # irreducible
        cu, cq = poly.canonical(u), poly.canonical(q)
        cases = [
            (u ** 4, [(4, cu)]),  # a pure power
            (q.scale(-7) ** 3, [(3, cq)]),
            (x0 ** 4, [(4, x0)]),
            (x1 ** 3, [(3, x1)]),
            (x0 ** 2 * x1 ** 2 * u ** 2, [(2, x0), (2, x1), (2, cu)]),
            (x1 * u * q ** 4, [(1, x1), (1, cu), (4, cq)]),
            (poly.constant(2, Fraction(-5, 3)), []),
        ]
        for p, want in cases:
            assert poly.binary_squarefree_decomposition(p) == sorted(
                want, key=lambda mp: (mp[0], mp[1].sort_key())), p

    @staticmethod
    def _agrees_pointwise(p, subs):
        out = poly.compose(p, subs)
        assert out.nvars == 2 and out.degree == p.degree * subs[0].degree
        for j in range(out.degree + 1):
            pt = (Fraction(j, 1 + j % 3), Fraction(1))
            assert out.evaluate(pt) == p.evaluate([q.evaluate(pt) for q in subs])

    def test_compose_matches_evaluation(self):
        rng = random.Random(814)
        for _ in range(200):
            nvars = rng.choice((2, 3))
            p = ps.random_form(rng, nvars, rng.randint(0, 4), max_terms=8,
                               allow_fractions=True)
            e = rng.randint(0, 4)
            subs = [ps.random_form(rng, 2, e, max_terms=5, allow_fractions=True)
                    for _ in range(nvars)]
            if rng.random() < 0.2:
                subs[rng.randrange(nvars)] = poly.zero(2, e)
            self._agrees_pointwise(p, subs)

    def test_compose_edge_cases(self):
        x0, x1 = self.X0, self.X1
        u = poly.linear_form([Fraction(-2, 3), Fraction(5, 7)])
        p = poly.HomPoly(3, 2, {(2, 0, 0): Fraction(-3, 4), (0, 1, 1): 5,
                                (1, 0, 1): Fraction(1, 6)})
        self._agrees_pointwise(p, [u, x0, x1.scale(Fraction(-9, 2))])
        self._agrees_pointwise(poly.constant(3, Fraction(-5, 3)), [u, u, x0])
        self._agrees_pointwise(p, [x0 ** 3, x1 ** 3, (x0 * x1 * u).scale(-1)])
        # x*z - y^2 vanishes on the conic (s^2 : s*t : t^2): the zero form
        # keeps its degree tag.
        conic = poly.HomPoly(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})
        out = poly.compose(conic, [x0 * x0, (x0 * x1).scale(Fraction(3, 2)),
                                   (x1 * x1).scale(Fraction(9, 4))])
        assert out.is_zero() and out.degree == 4
        # Substituting constants: a constant result with its exact value.
        two, third = poly.constant(2, 2), poly.constant(2, Fraction(1, 3))
        assert poly.compose(p, [two, third, two]) == poly.constant(
            2, Fraction(-3, 4) * 4 + 5 * Fraction(2, 3) + Fraction(1, 6) * 4)


class TestTernaryGcd:
    """gcd of forms in three or more variables.

    Oracle: a certificate that takes no subresultant.  g must be canonical,
    divide both operands exactly, and leave cofactors whose restrictions to
    some line have a binary gcd of 1.  A common factor of positive degree
    would restrict to a common factor of the same degree or to zero, so
    such a line proves the cofactors coprime.
    """

    @staticmethod
    def _certified(a, b, rng):
        g = poly.gcd(a, b)
        assert not g.is_zero() and g == poly.canonical(g), (a, b)
        ca, cb = poly.exact_divide(a, g), poly.exact_divide(b, g)
        assert ca is not None and cb is not None, (a, b, g)
        one = poly.constant(2, 1)
        for _ in range(20):
            line = [poly.linear_form([rng.randint(-9, 9), rng.randint(-9, 9)])
                    for _ in range(a.nvars)]
            if poly.gcd(poly.compose(ca, line), poly.compose(cb, line)) == one:
                return g
        raise AssertionError(f"no line separates the cofactors of {a} and {b}")

    @staticmethod
    def _free_of(rng, i, degree, nvars=3):
        """A random nonzero form of the given degree free of x_i."""
        p = ps.random_form(rng, nvars - 1, degree, max_terms=6, allow_fractions=True)
        return HomPoly(nvars, degree,
                       {e[:i] + (0,) + e[i:]: c for e, c in p.terms.items()})

    def _check(self, a, b, common, rng):
        g = self._certified(a, b, rng)
        assert poly.exact_divide(g, common) is not None, (a, b, common)
        assert self._certified(b, a, rng) == g
        return g

    def test_pinned_pair(self):
        x, y, z = (poly.variable(3, i) for i in range(3))
        h = x + y + z
        a = h * h * (x - z.scale(2))
        b = (h * (y * y - x * z)).scale(Fraction(-3, 4))
        assert poly.gcd(a, b) == h
        assert poly.gcd(a, h * (x - z.scale(2))) == poly.canonical(h * (x - z.scale(2)))

    def test_random_pairs_with_planted_factors(self):
        rng = random.Random(901)
        for _ in range(80):
            nvars = 4 if rng.random() < 0.15 else 3
            common = ps.random_form(rng, nvars, rng.randint(0, 2), max_terms=5,
                                    allow_fractions=True)
            a = common * ps.random_form(rng, nvars, rng.randint(0, 3), max_terms=6,
                                        allow_fractions=True)
            b = common * ps.random_form(rng, nvars, rng.randint(0, 3), max_terms=6,
                                        allow_fractions=True)
            self._check(a, b, common, rng)

    def test_variable_in_one_operand_only(self):
        rng = random.Random(902)
        for k in range(45):
            i = k % 3
            common = self._free_of(rng, i, rng.randint(0, 2))
            a = common * self._free_of(rng, i, rng.randint(0, 3))
            b = common * ps.random_form(rng, 3, rng.randint(1, 3), max_terms=6,
                                        allow_fractions=True)
            if b.var_degree(i) == 0:
                b = b * poly.variable(3, i)
            self._check(a, b, common, rng)

    def test_common_factor_free_of_one_variable(self):
        # The x_i-content of each operand carries the common factor.
        rng = random.Random(903)
        for k in range(45):
            i = k % 3
            common = self._free_of(rng, i, rng.randint(1, 2))
            a = common * ps.random_form(rng, 3, rng.randint(1, 3), max_terms=6,
                                        allow_fractions=True)
            b = common * ps.random_form(rng, 3, rng.randint(1, 3), max_terms=6,
                                        allow_fractions=True)
            self._check(a, b, common, rng)

    def test_one_operand_divides_the_other(self):
        rng = random.Random(904)
        for _ in range(40):
            b = ps.random_form(rng, 3, rng.randint(1, 3), max_terms=6,
                               allow_fractions=True)
            a = b * ps.random_form(rng, 3, rng.randint(0, 2), max_terms=4,
                                   allow_fractions=True)
            g = self._check(a, b, b, rng)
            assert g == poly.canonical(b)
        c = ps.random_form(rng, 3, 3, max_terms=6, allow_fractions=True)
        assert poly.gcd(c, c.scale(Fraction(-5, 7))) == poly.canonical(c)

    def test_repeated_common_factor(self):
        rng = random.Random(905)
        for _ in range(40):
            h = ps.random_form(rng, 3, rng.randint(1, 2), max_terms=4,
                               allow_fractions=True)
            ka, kb = rng.randint(1, 3), rng.randint(1, 3)
            a = h ** ka * ps.random_form(rng, 3, rng.randint(0, 2), max_terms=5)
            b = h ** kb * ps.random_form(rng, 3, rng.randint(0, 2), max_terms=5)
            self._check(a, b, h ** min(ka, kb), rng)

    def test_fraction_coefficients(self):
        x, y, z = (poly.variable(3, i) for i in range(3))
        h = (x.scale(Fraction(1, 2)) - y.scale(Fraction(2, 3)) + z.scale(Fraction(5, 7)))
        a = (h * (x * y.scale(Fraction(-3, 11)) + z * z)).scale(Fraction(13, 17))
        b = h * h * (x + z.scale(Fraction(1, 9)))
        assert poly.gcd(a, b) == poly.canonical(h)
        rng = random.Random(906)
        for _ in range(30):
            common = ps.random_form(rng, 3, rng.randint(1, 2), max_terms=5,
                                    allow_fractions=True)
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 50))
            a = (common * ps.random_form(rng, 3, rng.randint(1, 2),
                                         allow_fractions=True)).scale(scale)
            b = common * ps.random_form(rng, 3, rng.randint(1, 2), allow_fractions=True)
            self._check(a, b, common, rng)

    def test_constant_operands(self):
        rng = random.Random(907)
        one = poly.constant(3, 1)
        f = ps.random_form(rng, 3, 3, max_terms=6, allow_fractions=True)
        for c in (poly.constant(3, 6), poly.constant(3, Fraction(-2, 9))):
            assert poly.gcd(c, f) == one
            assert poly.gcd(f, c) == one
            assert poly.gcd(c, poly.constant(3, Fraction(4, 15))) == one
            assert poly.gcd(poly.zero(3, 2), c) == one
        assert poly.gcd(poly.zero(3, 1), f) == poly.canonical(f)
        assert poly.gcd(f, poly.zero(3, 4)) == poly.canonical(f)
        assert poly.gcd(poly.zero(3, 2), poly.zero(3, 3)).is_zero()


def _rref_pivots(matrix):
    """Pivot columns of the reduced row echelon form, over Fractions."""
    m = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        s = len(pivots)
        r = next((r for r in range(s, len(m)) if m[r][col]), None)
        if r is None:
            continue
        m[s], m[r] = m[r], m[s]
        m[s] = [x / m[s][col] for x in m[s]]
        for i, row in enumerate(m):
            if i != s and row[col]:
                m[i] = [x - row[col] * y for x, y in zip(row, m[s])]
        pivots.append(col)
    return pivots


class TestEchelon:
    """``poly.echelon`` against Fraction arithmetic: its pivot columns are
    those of the rref, and every reduced entry is the determinant of its
    minor."""

    @staticmethod
    def _matrix(rng):
        """A seeded integer matrix, with zero leading columns, a row that
        repeats a combination of others, or a zero top-left entry that
        forces a swap, each about a third of the time."""
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 7)
        m = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
             for _ in range(nrows)]
        if rng.random() < 0.3:
            zeros = rng.randint(1, ncols)
            m = [[0] * zeros + row[zeros:] for row in m]
        if nrows > 2 and rng.random() < 0.3:
            a, b = rng.sample(range(nrows), 2)
            ka, kb = rng.randint(-3, 3), rng.randint(-3, 3)
            cut = rng.randint(1, ncols)
            target = rng.choice([r for r in range(nrows) if r not in (a, b)])
            m[target][:cut] = [ka * x + kb * y for x, y in zip(m[a][:cut], m[b][:cut])]
        if nrows > 1 and rng.random() < 0.3:
            m[0][0] = 0
            m[rng.randrange(1, nrows)][0] = rng.choice((-1, 1)) * rng.randint(1, 9)
        return m

    def test_pivots_and_minors_match_fractions(self):
        rng = random.Random(1968)
        swapped = deficient = skipped = 0
        for _ in range(400):
            m = self._matrix(rng)
            nrows, ncols = len(m), len(m[0])
            rows = [list(r) for r in m]
            origin = {id(r): i for i, r in enumerate(rows)}
            pivots, out, sign = poly.echelon(rows)
            assert out is rows and pivots == _rref_pivots(m), m
            # The rows are reduced in place and only reordered.
            order = [origin[id(r)] for r in out]
            assert sorted(order) == list(range(nrows))
            swapped += order != list(range(nrows))
            skipped += pivots != list(range(len(pivots)))
            moved = [m[i] for i in order]
            for r, pc in enumerate(pivots):
                assert all(x == 0 for x in out[r][:pc]), m
                for c in range(pc, ncols):
                    minor = [[moved[i][j] for j in pivots[:r] + [c]] for i in range(r + 1)]
                    assert out[r][c] == _gauss_det(minor), (m, r, c)
            assert not any(x for row in out[len(pivots):] for x in row), m
            # The last row's minors, in the original row order: the
            # subresultant's reading, zeros when the leading columns lack
            # a pivot.
            k = nrows - 1
            lead = pivots[:k] == list(range(k))
            deficient += not lead
            for c in range(k, ncols):
                minor = [[row[j] for j in list(range(k)) + [c]] for row in m]
                assert (sign * out[-1][c] if lead else 0) == _gauss_det(minor), (m, c)
        assert swapped > 50 and deficient > 50 and skipped > 50

    def test_edge_cases(self):
        assert poly.echelon([]) == ([], [], 1)
        assert poly.echelon([[0, 0], [0, 0]]) == ([], [[0, 0], [0, 0]], 1)
        assert poly.echelon([[0, 2], [3, 1]]) == ([0, 1], [[3, 1], [0, 6]], -1)
        assert poly.echelon([[2, 4, 1], [1, 2, 5]]) == ([0, 2], [[2, 4, 1], [0, 0, 9]], 1)


class TestResultants:
    def test_linear_pair_value_matches_root_oracle(self):
        # Res(x - 2y, x - 3y) up to sign is the second form at the first
        # form's root (2, 1): 2 - 3 = -1.
        a = poly.linear_form([1, -2])
        b = poly.linear_form([1, -3])
        r = poly.resultant_wrt(a, b, 0)
        assert abs(r.evaluate((Fraction(1), Fraction(1)))) == 1

    def test_vanishes_exactly_on_shared_root(self):
        a = poly.linear_form([1, -2])
        assert poly.resultant_wrt(a, a * a, 0).is_zero()

    def test_requires_positive_degree(self):
        with pytest.raises(PolynomialError):
            poly.resultant_wrt(poly.variable(2, 1), poly.variable(2, 0), 0)


# -- oracle: subresultants as Sylvester minors over Fractions -------------------
#
# S_j of a and b in x_i, of x_i-degrees da and db, is the sum over k <= j
# of x_i^k times the minor of the Sylvester matrix on the rows of
# x_i^t * a (t < db - j) and x_i^t * b (t < da - j), highest first, and on
# the columns of the powers da + db - j - 1 down to j + 1, then the power k.
# At a point of the other variables each minor is a determinant of numbers,
# taken here by Gaussian elimination over Fractions.  A coefficient of S_j
# is a form of degree at most D in the other variables, so agreeing at D + 1
# points (u : 1) of a plane proves it equal.


def _gauss_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            for k in range(c, len(m)):
                m[r][k] -= f * m[c][k]
    return det


def _minor(ca, cb, j, k):
    """Coefficient of x^k in S_j of the coefficient lists ca, cb (low first)."""
    da, db = len(ca) - 1, len(cb) - 1
    cols = list(range(da + db - j - 1, j, -1)) + [k]
    rows = [[c[p - s] if 0 <= p - s < len(c) else 0 for p in cols]
            for c, shifts in ((ca, db - j), (cb, da - j))
            for s in range(shifts - 1, -1, -1)]
    return _gauss_det(rows)


def _coefficients(p, i, d, point):
    rows = poly.ladder(p, i)
    return [rows[t].evaluate(point) if t < len(rows) else Fraction(0)
            for t in range(d + 1)]


class TestSubresultantOracle:
    def test_matches_sylvester_minors(self):
        rng = random.Random(120)
        seen = set()
        checked = 0
        while checked < 150:
            nvars = rng.choice((2, 3))
            i = rng.randrange(nvars)
            # Some binary linear pairs, whose resultants are constants.
            top = 1 if nvars == 2 and checked % 4 == 0 else 3
            a = ps.random_form(rng, nvars, rng.randint(1, top), allow_fractions=True)
            b = ps.random_form(rng, nvars, rng.randint(1, top), allow_fractions=True)
            if rng.random() < 0.3:
                g = ps.random_form(rng, nvars, 1)
                a, b = a * g, b * g
            da, db = a.var_degree(i), b.var_degree(i)
            if min(da, db) == 0:
                continue
            j = rng.randrange(min(da, db))
            s = poly.subresultant(a, b, i, j)
            if j == 0:
                assert s == poly.resultant_wrt(a, b, i)
            # Row weights deg a + t and deg b + t, column weights -power.
            top = (sum(a.degree + t for t in range(db - j))
                   + sum(b.degree + t for t in range(da - j))
                   - sum(range(j + 1, da + db - j)))
            assert s.degree == max(top, 0)
            rest = [v for v in range(nvars) if v != i]
            for u in range(s.degree + 1 if nvars == 3 else 1):
                point = [Fraction(1)] * nvars
                point[rest[0]] = Fraction(u) if nvars == 3 else Fraction(1)
                ca = _coefficients(a, i, da, point)
                cb = _coefficients(b, i, db, point)
                got = _coefficients(s, i, j, point)
                assert got == [_minor(ca, cb, j, k) for k in range(j + 1)], (
                    poly.format_poly(a), poly.format_poly(b), i, j)
            seen.add((nvars, j == 0, s.is_zero()))
            checked += 1
        for nvars in (2, 3):
            assert any(k[0] == nvars for k in seen)
        assert any(k[2] for k in seen)
        assert any(k[1] for k in seen) and any(not k[1] for k in seen)

    def test_index_out_of_range(self):
        a = _p(2, 2, {X2: 1, Y2: -2})
        with pytest.raises(PolynomialError):
            poly.subresultant(a, a, 0, 2)


class TestLinearFactors:
    def test_splits_rational_part(self):
        a = poly.linear_form([1, -2])
        b = poly.linear_form([1, 3])
        resid = _p(2, 2, {X2: 1, XY: 1, Y2: 1})
        factors, residual = poly.linear_factors(a * b * resid)
        got = sorted((f for f, _ in factors), key=lambda f: f.sort_key())
        want = sorted([poly.canonical(a), poly.canonical(b)],
                      key=lambda f: f.sort_key())
        assert got == want
        assert all(m == 1 for _, m in factors)
        assert residual == poly.canonical(resid)

    def test_multiplicity_counted(self):
        a = poly.linear_form([2, -1])
        factors, residual = poly.linear_factors(a * a)
        assert factors == [(poly.canonical(a), 2)]
        assert residual.is_constant()

    # Pinned cases for the p-adic root search: each must come out complete.

    def test_seven_digit_prime_coefficients(self):
        a = poly.linear_form([1000003, -9999991])
        p = a * poly.linear_form([2, 1]) * _p(2, 2, {X2: 1, Y2: 1})
        factors, residual = poly.linear_factors(p)
        assert factors == [(poly.linear_form([2, 1]), 1),
                           (poly.canonical(a), 1)]
        assert poly.canonical(residual) == _p(2, 2, {X2: 1, Y2: 1})
        assert (factors, residual) == _oracle_linear_factors(p)

    def test_root_of_height_two_to_the_4000(self):
        a = poly.canonical(poly.linear_form([2 ** 4000 + 1, -3 ** 2524]))
        b = poly.linear_form([1, 1])
        irreducible = _p(2, 2, {X2: 1, Y2: 1})
        for p, want, rest in ((a, {a: 1}, 0), (a * a * irreducible, {a: 2}, 2),
                              (a * b, {a: 1, b: 1}, 0)):
            factors, residual = poly.linear_factors(p)
            assert dict(factors) == want
            assert residual.degree == rest

    def test_double_roots_modulo_small_primes(self):
        # s - i*t for i = 1..12: every prime below 13 sees two roots collide.
        s, t = poly.variable(2, 0), poly.variable(2, 1)
        p = poly.constant(2, 1)
        for i in range(1, 13):
            p = p * (s - t.scale(i))
        factors, residual = poly.linear_factors(p)
        assert dict(factors) == {poly.linear_form([1, -i]): 1 for i in range(1, 13)}
        assert residual.is_constant()
        assert (factors, residual) == _oracle_linear_factors(p)

    def test_leading_coefficient_of_six_primes(self):
        lead = 2 * 3 * 5 * 7 * 11 * 13
        p = (poly.linear_form([lead, -17]) * poly.linear_form([lead, 1])
             * poly.linear_form([1, -1]) * _p(2, 2, {X2: 1, XY: 1, Y2: 1}))
        factors, residual = poly.linear_factors(p)
        assert {f for f, _ in factors} == {poly.linear_form([lead, -17]),
                                          poly.linear_form([lead, 1]),
                                          poly.linear_form([1, -1])}
        assert residual.degree == 2
        assert (factors, residual) == _oracle_linear_factors(p)

    def test_irrational_roots_stay_in_residual(self):
        p = _p(2, 2, {X2: 1, Y2: -2})  # roots +-sqrt(2)
        factors, residual = poly.linear_factors(p)
        assert factors == []
        assert residual == p


class TestRandomizedLaws:
    """Smoke-level volume here; full 500-instance runs live in acceptance."""

    def test_ring_axioms(self):
        assert ps.suite_ring_axioms(n=60) >= 60

    def test_compose_degree(self):
        assert ps.suite_compose_degree(n=60) >= 60

    def test_exact_divide(self):
        assert ps.suite_exact_divide(n=60) >= 60

    def test_gcd_associate(self):
        assert ps.suite_gcd_associate(n=60) >= 60

    def test_squarefree(self):
        assert ps.suite_squarefree(n=60) >= 60

    def test_resultant_gcd(self):
        assert ps.suite_resultant_gcd(n=60) >= 60

    def test_linear_factors(self):
        assert ps.suite_linear_factors(n=60) >= 60

    def test_products(self):
        assert ps.suite_products(n=60) == 60

    def test_division(self):
        assert ps.suite_division(n=60) == 60


# -- oracle: the rational root theorem, exhaustively ----------------------------
#
# A rational root -b/a of a binary form with no coordinate factor, scaled to
# integers with content 1, has a dividing its x0^d coefficient and b dividing
# its x1^d coefficient.  The oracle tries every such pair, with no bound on
# its height, and must return exactly what linear_factors returns: the same
# factors, multiplicities and residual.


def _divisors(n):
    """Positive divisors of the nonzero integer n, by trial division."""
    n = abs(n)
    divs = [1]
    k = 2
    while k * k <= n:
        e = 0
        while n % k == 0:
            n //= k
            e += 1
        divs = [d * k ** i for d in divs for i in range(e + 1)]
        k += 1
    if n > 1:
        divs += [d * n for d in divs]
    return divs


def _oracle_binary_roots(p):
    """Every linear factor of a nonzero binary form as a pair (a, b) with
    a > 0, or a = 0 and b > 0, and gcd 1."""
    out = [pair for pair in ((1, 0), (0, 1))
           if p.evaluate((Fraction(-pair[1]), Fraction(pair[0]))) == 0]
    q = p
    for i in range(2):
        q = poly.exact_divide(q, poly.variable(2, i) ** q.min_var_degree(i))
    if q.is_constant():
        return out
    terms = [(e, int(c)) for e, c in poly.int_primitive(q).terms.items()]
    for a in _divisors(dict(terms)[(q.degree, 0)]):
        for b in _divisors(dict(terms)[(0, q.degree)]):
            for sb in (b, -b):
                # a^d * q(-sb/a, 1), in integers
                if gcd(a, b) == 1 and sum(c * (-sb) ** e[0] * a ** e[1]
                                          for e, c in terms) == 0:
                    out.append((a, sb))
    return out


def _normalized(vec):
    g = gcd(*vec)
    vec = tuple(v // g for v in vec)
    lead = next(v for v in vec if v)
    return vec if lead > 0 else tuple(-v for v in vec)


def _slice(q, i):
    keep = [j for j in range(3) if j != i]
    terms = {tuple(e[j] for j in keep): c for e, c in q.terms.items() if e[i] == 0}
    return HomPoly(2, q.degree, terms)


def _oracle_ternary_candidates(q):
    sl_z, sl_y, sl_x = _slice(q, 2), _slice(q, 1), _slice(q, 0)
    out = set()
    if not sl_z.is_zero() and not sl_y.is_zero():
        for a1, b1 in _oracle_binary_roots(sl_z):
            for a2, c2 in _oracle_binary_roots(sl_y):
                if a1 and a2:
                    out.add(_normalized((a1 * a2, b1 * a2, c2 * a1)))
    if not sl_x.is_zero():
        for b3, c3 in _oracle_binary_roots(sl_x):
            if b3 and c3:
                out.add(_normalized((0, b3, c3)))
    return sorted(out)


def _oracle_linear_factors(p):
    found = []
    q = p
    for i in range(p.nvars):
        m = q.min_var_degree(i)
        if m > 0 and not q.is_constant():
            found.append((poly.variable(p.nvars, i), m))
            q = poly.exact_divide(q, poly.variable(p.nvars, i) ** m)
    vectors = []
    if not q.is_constant():
        vectors = (_oracle_binary_roots(q) if p.nvars == 2
                   else _oracle_ternary_candidates(q))
    for vec in vectors:
        if q.is_constant():
            break
        if sum(1 for x in vec if x) < 2:
            continue
        form = poly.linear_form(vec)
        mult = 0
        while (quotient := poly.exact_divide(q, form)) is not None:
            q = quotient
            mult += 1
        if mult:
            found.append((form, mult))
    found.sort(key=lambda fm: fm[0].sort_key())
    return found, q


def _primitive_linear(rng, nvars, height, exact=False):
    """A random primitive linear form with two or more nonzero coefficients
    and height <= ``height`` (exactly ``height`` when ``exact``)."""
    while True:
        vec = [rng.randint(-height, height) for _ in range(nvars)]
        if exact:
            vec[rng.randrange(nvars)] = rng.choice((height, -height))
        if sum(1 for v in vec if v) >= 2 and gcd(*vec) == 1:
            return poly.linear_form(vec)


def _random_factor_instance(rng):
    """(form, a factor of height one above the others or None)."""
    nvars = rng.choice((2, 3))
    height = 20 if rng.random() < 0.05 else rng.choice((2, 3, 5, 8))
    p = poly.constant(nvars, Fraction(ps._coeff(rng), rng.randint(1, 6)))
    for _ in range(rng.randint(0, 3)):
        p = p * _primitive_linear(rng, nvars, height) ** rng.randint(1, 3)
    if rng.random() < 0.5:
        p = p * poly.variable(nvars, rng.randrange(nvars)) ** rng.randint(1, 2)
    if rng.random() < 0.3:
        p = p * ps.random_form(rng, nvars, 2)
    beyond = None
    if rng.random() < 0.5:
        beyond = _primitive_linear(rng, nvars, height + 1, exact=True)
        p = p * beyond
        # Draws that once scaled a caller-supplied candidate, kept so that
        # seed 108 still gives the same 300 forms.
        if rng.random() < 0.3:
            rng.randint(1, 3), rng.randint(1, 3)
    return p, beyond


def test_linear_factors_match_exhaustive_sweep():
    rng = random.Random(108)
    for _ in range(300):
        p, beyond = _random_factor_instance(rng)
        got = poly.linear_factors(p)
        assert got == _oracle_linear_factors(p), poly.format_poly(p)
        if beyond is not None:
            assert any(form == poly.canonical(beyond) for form, _ in got[0])
