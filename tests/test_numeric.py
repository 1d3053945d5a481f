"""Certified-precision numeric layer: roots, chart systems, rationalization."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from pcflab import numeric, poly, projmap

import property_suites as ps


def _p(nvars, degree, terms):
    return poly.HomPoly(nvars, degree, terms)


def _random_form(rng, nvars, degree, precision):
    """A seeded form with integer, non-integer rational and wide coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        kind = rng.randrange(3)
        if kind == 0:
            c = Fraction(rng.randint(-50, 50))
        elif kind == 1:
            c = Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 10**6))
        else:  # numerator, and maybe denominator, wider than the mantissa
            c = Fraction(rng.getrandbits(precision + 64) - 2 ** (precision + 63),
                         rng.choice((1, rng.getrandbits(precision + 16) | 1)))
        terms[tuple(e)] = terms.get(tuple(e), 0) + c
    return _p(nvars, degree, terms)


def _fraction(x) -> Fraction:
    """The exact value of an mpf."""
    sign, man, exp, _bc = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


def _exact(c) -> tuple:
    """A coordinate as the exact pair (real part, imaginary part) of Fractions."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c), Fraction(0)
    c = c if hasattr(c, "_mpc_") or hasattr(c, "_mpf_") else mpmath.mpc(c)
    return (_fraction(c.real), _fraction(c.imag)) if hasattr(c, "_mpc_") else (_fraction(c), 0)


def _modulus(z) -> mpmath.mpf:
    """|z| of an exact pair, to 1200 bits."""
    with mpmath.workprec(1200):
        sq = z[0] * z[0] + z[1] * z[1]
        return mpmath.sqrt(mpmath.mpf(sq.numerator) / sq.denominator)


def _value(form, z) -> tuple:
    """F(z) exactly, for an exact point z."""
    re, im = Fraction(0), Fraction(0)
    for e, c in form.terms.items():
        tr, ti = Fraction(1), Fraction(0)
        for (x, y), k in zip(z, e):
            for _ in range(k):
                tr, ti = tr * x - ti * y, tr * y + ti * x
        re, im = re + c * tr, im + c * ti
    return re, im


class TestMpForm:
    @pytest.mark.parametrize("precision", [24, 64, 256, 512])
    def test_within_error_bound(self, precision):
        # |MpForm(z) - F(z)| <= 3d 2^-W sum|c_a| (2 max|z_i|)^d + 2^-p |F(z)|
        # against exact evaluation, W = p + GUARD_BITS: forms with integer,
        # Fraction and wide coefficients at points scaled by 10^+-300 and at
        # points whose coordinates differ in size by up to 10^+-40.
        rng = random.Random(precision)
        width = precision + numeric.GUARD_BITS
        for trial in range(60):
            nvars = 2 + trial % 2
            degree = rng.randint(1, 5)
            form = _random_form(rng, nvars, degree, precision)
            if trial % 10 == 0:
                form = _p(nvars, degree, {})
            elif trial % 10 == 1:
                form = _random_form(rng, nvars, 0, precision)
            # Coordinates carry more bits than the precision.
            with mpmath.workprec(2 * precision + 64):
                scale = mpmath.mpf(10) ** rng.choice((0, 300, -300))
                coords = tuple(mpmath.mpc(mpmath.mpf(rng.random() - 0.5) / 3,
                                          mpmath.mpf(rng.random() - 0.5) / 7)
                               * scale * mpmath.mpf(10) ** (rng.randint(-40, 0) if trial % 3 else 0)
                               for _ in range(nvars))
            with mpmath.workprec(precision):
                got = numeric.MpForm(form)(coords)
            z = [_exact(c) for c in coords]
            want = _value(form, z)
            err = (_exact(got)[0] - want[0], _exact(got)[1] - want[1])
            with mpmath.workprec(1200):
                size = max(_modulus(c) for c in z)
                total = sum(_modulus((c, 0)) for c in form.terms.values())
                bound = (3 * degree * mpmath.ldexp(total, -width) * (2 * size) ** degree
                         + mpmath.ldexp(_modulus(want), -precision))
                assert _modulus(err) <= bound, (precision, trial)

    def test_values_share_a_scale_and_bound_the_terms(self):
        # compile_forms puts forms over one denominator; fixed() returns
        # F(z) den 2^W exactly up to the truncations, and its bound lies
        # between sum |n_a||z^a| and sqrt(2) times it.
        x, y, z = (poly.variable(3, i) for i in range(3))
        forms = [x * x * Fraction(1, 3) - y * z, (x * y).scale(Fraction(5, 2))]
        with mpmath.workprec(64):
            a, b = numeric.compile_forms(forms)
            assert a.den == b.den == 6
            pt = numeric.normalize_point((mpmath.mpc(1, 2), Fraction(1, 2), 3))[0]
            width = pt.width
            point = [_exact(c) for c in pt]
            for f, form in ((a, forms[0]), (b, forms[1])):
                (sr, si), size = f.fixed(pt.fixed, bound=True)
                want = _value(form, [(Fraction(u, 2 ** width), Fraction(v, 2 ** width))
                                     for u, v in pt.fixed])
                assert abs(Fraction(sr, 6 << width) - want[0]) < Fraction(64, 2 ** width)
                assert abs(Fraction(si, 6 << width) - want[1]) < Fraction(64, 2 ** width)
                terms = sum(abs(c) * _modulus(_value(poly.monomial(3, e), point))
                            for e, c in form.terms.items())
                with mpmath.workprec(1200):
                    assert terms * 0.999 <= mpmath.mpf(size) / (6 << width) <= terms * 1.415
                assert f.fixed(pt.fixed) == (sr, si)


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


# -- the point kernels in exact rationals ----------------------------------------


def _floor_div(a, b) -> tuple:
    """a / b for exact complex pairs, each part floored."""
    d = b[0] * b[0] + b[1] * b[1]
    return (math.floor(Fraction(a[0] * b[0] + a[1] * b[1], d)),
            math.floor(Fraction(a[1] * b[0] - a[0] * b[1], d)))


def _reference_normalize(coords, floor=True):
    """normalize_point's steps in Fractions: the fixed coordinates and the pivot.

    Each part is truncated at 2^(W - e), e the least integer above the log2
    of every part; the pivot is the first coordinate whose |z|^2 is within a
    factor 1 - 2^-p of the largest, and the others are z / pivot scaled by
    2^W and floored.  With ``floor``, a largest modulus below 2^-(p-8) raises.
    """
    prec = mpmath.mp.prec
    width = prec + numeric.GUARD_BITS
    parts = [_exact(c) for c in coords]
    # |x| lies in (2^(k-1), 2^(k+1)) for k the difference of the bit lengths
    mags = [k + (abs(x) >= Fraction(2) ** k) for pair in parts for x in pair if x
            for k in [abs(x.numerator).bit_length() - x.denominator.bit_length()]]
    e = max(mags, default=0)
    ints = [tuple(math.trunc(x * Fraction(2) ** (width - e)) for x in pair) for pair in parts]
    sizes = [x * x + y * y for x, y in ints]
    top = max(sizes)
    if top == 0 or floor and Fraction(top) * Fraction(4) ** (e - width) < Fraction(4) ** (8 - prec):
        raise numeric.IndeterminatePointError("all coordinates below the zero floor")
    best = next(i for i, size in enumerate(sizes) if size >= top * (1 - Fraction(1, 2 ** prec)))
    return tuple((1 << width, 0) if i == best else _floor_div((x << width, y << width), ints[best])
                 for i, (x, y) in enumerate(ints)), best


def _reference_distance(p, q):
    """proj_distance in exact rationals: the largest cross product of the
    reference-normalized points (a Point as it is), rounded once by
    mpmath's sqrt."""
    prec = mpmath.mp.prec
    width = prec + numeric.GUARD_BITS
    a, b = (x.fixed if isinstance(x, numeric.Point) else _reference_normalize(x, floor=False)[0]
            for x in (p, q))
    top = max(((a[i][0] * b[j][0] - a[i][1] * b[j][1] - a[j][0] * b[i][0] + a[j][1] * b[i][1]) ** 2
               + (a[i][0] * b[j][1] + a[i][1] * b[j][0] - a[j][0] * b[i][1] - a[j][1] * b[i][0]) ** 2
               for i in range(len(a)) for j in range(i + 1, len(a))), default=0)
    with mpmath.workprec(top.bit_length() + 8):
        exact = mpmath.mpf(top)
    with mpmath.workprec(prec):
        return mpmath.ldexp(mpmath.sqrt(exact), -2 * width)


def _outcome(fn, *args):
    """fn(*args) with every mpc, mpf and Point as its bits, or the exception type."""
    def bits(x):
        if isinstance(x, (tuple, list)):
            return tuple(bits(y) for y in x)
        if isinstance(x, numeric.Point):
            return x.fixed, x.pivot
        return getattr(x, "_mpc_", getattr(x, "_mpf_", x))
    try:
        return bits(fn(*args))
    except numeric.NumericalError as exc:
        return type(exc)


def _kernel_inputs(rng, prec):
    """Seeded points at precision prec for the point kernels.

    Coordinates are mpc values carried at 2 prec bits (as a linear fiber's
    y arrives), mpc and real mpf values at prec bits, Fractions, exact zeros
    and values of 10^+-400; then points whose moduli tie, such as (1 : i : 0)
    and (3+4i : 5 : 0), rotated and permuted, and points with a coordinate
    exactly 1 beside wide ones.
    """
    def wide(bits):
        return mpmath.mpf(((rng.getrandbits(bits) | 1 << (bits - 1)) * rng.choice((1, -1)),
                           -bits - rng.randint(-3, 3)))

    def coordinate():
        kind = rng.randrange(8)
        if kind == 0:
            return mpmath.mpc(wide(2 * prec), wide(2 * prec))
        if kind == 1:
            return mpmath.mpc(wide(prec), wide(prec))
        if kind == 2:
            return wide(rng.choice((prec, 2 * prec)))  # a real root
        if kind == 3:
            return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
        if kind == 4:
            return rng.choice((mpmath.mpc(0), Fraction(0), 0))
        if kind == 5:
            return mpmath.mpc(wide(prec), 0) * mpmath.mpf(10) ** rng.choice((400, -400))
        return mpmath.mpc(wide(2 * prec), wide(prec))

    out = []
    with mpmath.workprec(2 * prec + 64):
        for _ in range(60):
            pt = [coordinate() for _ in range(rng.choice((2, 3)))]
            if rng.random() < 0.2:
                pt = [c * mpmath.mpf(10) ** rng.choice((400, -400)) for c in pt]
            out.append(tuple(pt))
        for _ in range(12):
            out.append((coordinate(), coordinate(), Fraction(1)))
    with mpmath.workprec(prec):
        # Rotated ties round to moduli a unit apart either way, so some
        # normalized points would move their pivot when normalized again.
        w = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) / 3)
        for tie in ((1, 1j, 0), (3 + 4j, 5, 0), (1, w, 0), (2, 2j, -2)):
            out.append(tuple(mpmath.mpc(c) for c in tie))
            for _ in range(40):
                turn = mpmath.exp(2 * mpmath.pi * mpmath.mpc(0, 1) * rng.random())
                pt = [mpmath.mpc(c) * turn for c in tie]
                rng.shuffle(pt)
                out.append(tuple(pt))
    return out


class TestPointKernels:
    """normalize_point and proj_distance on fixed-point values give the bits
    of the same steps taken in exact rationals."""

    @pytest.mark.parametrize("precision", [24, 64, 128, 256, 320])
    def test_bit_for_bit(self, precision):
        rng = random.Random(precision)
        points = _kernel_inputs(rng, precision)
        with mpmath.workprec(precision):
            built = []
            for pt in points:
                want = _outcome(_reference_normalize, pt)
                got = _outcome(numeric.normalize_point, pt)
                assert got == (want if isinstance(want, type) else (want, want[1])), pt
                if isinstance(want, type):
                    continue
                got = numeric.normalize_point(pt)[0]
                # a Point comes back as it is, and its coordinates are the
                # fixed values rounded once
                assert numeric.normalize_point(got)[0] is got
                assert got[got.pivot] == 1 and [_exact(c) for c in got] == [
                    _exact(mpmath.mpc(mpmath.mpf((x, -got.width)), mpmath.mpf((y, -got.width))))
                    for x, y in got.fixed]
                built.append((pt, got))
            for (p, gp), (q, gq) in zip(built, built[1:] + built[:1]):
                if len(p) != len(q):
                    continue
                assert (_outcome(numeric.proj_distance, p, q)
                        == _outcome(_reference_distance, p, q))
                assert (_outcome(numeric.proj_distance, gp, gq)
                        == _outcome(_reference_distance, gp, gq))
                assert (_outcome(numeric.proj_distance, gp, q)
                        == _outcome(_reference_distance, gp, q))

    def test_inputs_reach_ties_and_wide_unit_pivots(self):
        # Some pivots are not the first coordinate of exactly largest |z|^2,
        # as moduli within the 2^-p window tie, and some pivots are exactly
        # 1 beside mpc coordinates wider than the precision.
        with mpmath.workprec(256):
            width = 256 + numeric.GUARD_BITS
            found = []
            for pt in _kernel_inputs(random.Random(256), 256):
                if not isinstance(_outcome(_reference_normalize, pt), type):
                    sizes = [x * x + y * y for x, y in (
                        tuple(math.trunc(v * 2 ** width) for v in _exact(c)) for c in pt)]
                    found.append((pt, numeric.normalize_point(pt)[1], sizes.index(max(sizes))))
        assert {pivot == first for _pt, pivot, first in found} == {True, False}
        assert [pt for pt, pivot, _first in found if pt[pivot] == 1 and any(
            hasattr(c, "_mpc_") and c._mpc_[0][3] > 256 for c in pt)]


def _reference_find(points, pt, tol):
    """The first known point within tol of pt by a linear scan of exact
    distances."""
    def dist2(p, q):
        p, q = [_exact(c) for c in p], [_exact(c) for c in q]
        cross = max((p[i][0] * q[j][0] - p[i][1] * q[j][1] - p[j][0] * q[i][0] + p[j][1] * q[i][1]) ** 2
                    + (p[i][0] * q[j][1] + p[i][1] * q[j][0] - p[j][0] * q[i][1] - p[j][1] * q[i][0]) ** 2
                    for i in range(len(p)) for j in range(i + 1, len(p)))
        size = max(x * x + y * y for x, y in p) * max(x * x + y * y for x, y in q)
        return cross / size
    limit = _fraction(tol) ** 2
    for i, known in enumerate(points):
        if dist2(known, pt) < limit:
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
            step = target / _reference_distance(pt, moved)
            s *= step
            if mpmath.fabs(step - 1) < mpmath.mpf(2) ** -(2 * prec + 32):
                break
    return tuple(+c for c in moved)  # unary plus rounds at the working precision


def _cloud(rng, nvars, tol):
    """Seeded points at the working precision for the point set.

    Base points are spread out, some with a zero coordinate, some scaled
    by 10^+-400 as a whole and some with one coordinate of that size,
    outside double range.  Each base point is followed by a rescaled copy,
    near duplicates at 0.5 and 2 times tol, and points near distance tol,
    where a comparison of a rounded distance could fall on the other side
    of the tolerance.
    """
    big = mpmath.mpf(10) ** 400
    # two rounding units at the precision and at 53 bits, or half of tol
    # where that is smaller
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
            with pytest.raises(numeric.NumericalError):
                points.add(zero)
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

    def test_rational_root_of_longer_piece_is_exact(self):
        # s^3 - t^3 is square-free and not linear: its rational root (1 : 1)
        # comes back in Fractions, ahead of the two others as Points.
        roots = numeric.binary_form_roots(_p(2, 3, {(3, 0): 1, (0, 3): -1}), 256)
        assert [m for _r, m in roots] == [1, 1, 1]
        assert roots[0][0] == (1, 1) and numeric.is_exact(roots[0][0])
        with mpmath.workprec(256):
            ratios = [complex(r[0] / r[1]) for r, _m in roots[1:]]
            assert all(isinstance(r, numeric.Point) and mpmath.fabs((r[0] / r[1]) ** 3 - 1)
                       < mpmath.mpf(10) ** -70 for r, _m in roots[1:])
        assert ratios == pytest.approx([complex(-0.5, -3 ** 0.5 / 2), complex(-0.5, 3 ** 0.5 / 2)])

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
            points = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 1
            assert numeric.proj_distance(
                points[0], (mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(1))
            ) < mpmath.mpf(10) ** -40

    def test_conic_meets_line_in_two_points(self):
        with mpmath.workprec(256):
            conic = _p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})  # xz - y^2
            line = poly.variable(3, 1)
            points = numeric.solve_pair_p2(conic, line, 256)
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
        # the eliminant has triple roots, yet all nine points come back,
        # the intersection number, so each is simple.
        with mpmath.workprec(256):
            a = _p(3, 3, {(3, 0, 0): 1, (0, 3, 0): -1})  # x^3 - y^3
            b = _p(3, 3, {(0, 3, 0): 1, (0, 0, 3): -1})  # y^3 - z^3
            points = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 9

    def test_rational_points_are_exact(self):
        # xz - y^2 and y - N x meet at (1 : N : N^2) and (0 : 0 : 1); the
        # first has denominators near 10^14 once normalized.
        n = 10**7 + 19
        conic = _p(3, 2, {(1, 0, 1): 1, (0, 2, 0): -1})
        line = poly.linear_form([-n, 1, 0])
        points = numeric.solve_pair_p2(conic, line, 256)
        assert all(numeric.is_exact(pt) for pt in points)
        assert sorted(projmap.primitive_vector(list(pt)) for pt in points) == [
            (0, 0, 1), (1, n, n * n)]

    def test_rational_fibers_compile_no_forms(self, monkeypatch):
        # x^2 - z^2 and y^2 - 4z^2 meet in four rational simple points, so
        # no fiber is evaluated numerically and no form is compiled.
        built = []

        class Counting(numeric.MpForm):
            def __init__(self, p):
                built.append(p)
                super().__init__(p)

        monkeypatch.setattr(numeric, "MpForm", Counting)
        a = _p(3, 2, {(2, 0, 0): 1, (0, 0, 2): -1})
        b = _p(3, 2, {(0, 2, 0): 1, (0, 0, 2): -4})
        points = numeric.solve_pair_p2(a, b, 256)
        assert len(points) == 4
        assert all(numeric.is_exact(pt) for pt in points)
        assert built == []

    def test_fibers_hold_only_common_zeros(self):
        # Every point over every eliminant root is a common zero: nothing
        # is filtered out, and the count is the intersection number.
        with mpmath.workprec(256):
            a = _p(3, 3, {(3, 0, 0): 1, (1, 2, 0): 2, (0, 1, 2): -3, (0, 0, 3): 1})
            b = _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (1, 1, 0): 1, (0, 1, 1): 2,
                          (0, 0, 2): -5})
            points = numeric.solve_pair_p2(a, b, 256)
            assert len(points) == 6
            for pt in points:
                for form in (a, b):
                    assert mpmath.fabs(numeric.MpForm(form)(pt)) < mpmath.mpf(10) ** -60

    def test_one_split_per_piece_and_one_compile_per_solve(self, monkeypatch):
        # The eliminant is split into square-free pieces once; a piece, or
        # what its rational roots leave, is never split again.  Newton's
        # method polishes the six irrational points with a and b compiled
        # once for the whole solve.
        real = poly.binary_squarefree_decomposition
        seen, resplit, built = set(), [], []

        def decomposition(q):
            if not q.is_constant() and poly.canonical(q) in seen:
                resplit.append(q)
            pieces = real(q)
            seen.update(piece for _m, piece in pieces)
            return pieces

        class Counting(numeric.MpForm):
            def __init__(self, p):
                built.append(p)
                super().__init__(p)

        monkeypatch.setattr(poly, "binary_squarefree_decomposition", decomposition)
        monkeypatch.setattr(numeric, "MpForm", Counting)
        a = _p(3, 3, {(3, 0, 0): 1, (1, 2, 0): 2, (0, 1, 2): -3, (0, 0, 3): 1})
        b = _p(3, 2, {(2, 0, 0): 1, (0, 2, 0): -1, (1, 1, 0): 1, (0, 1, 1): 2,
                      (0, 0, 2): -5})
        points = numeric.solve_pair_p2(a, b, 256)
        assert sum(not numeric.is_exact(pt) for pt in points) == 6
        assert seen and resplit == []
        assert built.count(a) == 1 and built.count(b) == 1

    def test_blocked_leading_coefficients_eliminate_x(self):
        # a = xy - z^2 and b = xy^2 - xz^2 - z^3 both have leading
        # coefficient x in y, so x = 0 would specialize S_j wrongly; x is
        # eliminated instead.  b - y*a = z^2 (y - x - z) gives the points.
        a = _p(3, 2, {(1, 1, 0): 1, (0, 0, 2): -1})
        b = _p(3, 3, {(1, 2, 0): 1, (1, 0, 2): -1, (0, 0, 3): -1})
        points = numeric.solve_pair_p2(a, b, 256)
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
    def test_sweep_limit_raises(self, monkeypatch):
        q = _p(2, 2, {(2, 0): 1, (0, 2): -2})
        assert len(numeric.binary_form_roots(q, 256)) == 2
        monkeypatch.setattr(numeric, "SWEEPS", 1)
        with pytest.raises(numeric.NumericalError, match="1 sweeps"):
            numeric.binary_form_roots(q, 256)

    def test_other_errors_propagate(self, monkeypatch):
        # A fault inside the iteration is neither retried nor turned into
        # a NumericalError.
        calls = []

        def sweeps(*args):
            calls.append(args)
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(numeric, "_sweeps", sweeps)
        with pytest.raises(ZeroDivisionError):
            numeric.binary_form_roots(_p(2, 2, {(2, 0): 1, (0, 2): -2}), 256)
        assert len(calls) == 1

    def test_failed_fiber_raises(self, monkeypatch):
        # A fiber whose roots cannot be found fails the solve instead of
        # coming back empty.  The eliminant x^2 - 2z^2 is solved first; the
        # quadratic fibers of y^2 + xy - z^2 over x = +-sqrt(2) then stop
        # at a sweep limit of 1.
        real = numeric._polyroots
        calls = []

        def polyroots(*args):
            calls.append(args)
            if len(calls) > 1:
                monkeypatch.setattr(numeric, "SWEEPS", 1)
            return real(*args)

        monkeypatch.setattr(numeric, "_polyroots", polyroots)
        a = _p(3, 2, {(2, 0, 0): 1, (0, 0, 2): -2})
        b = _p(3, 2, {(0, 2, 0): 1, (1, 1, 0): 1, (0, 0, 2): -1})
        with pytest.raises(numeric.NumericalError, match="sweeps"):
            numeric.solve_pair_p2(a, b, 256)
        assert len(calls) == 2  # the eliminant, then the first fiber


def _gaussian_coeffs(coeffs):
    """int, Fraction, mpf or mpc coefficients as exact Gaussian integers at one scale."""
    parts = [(Fraction(c), Fraction(0)) if isinstance(c, (int, Fraction)) else
             tuple(Fraction(*mpmath.libmp.to_rational(x)) for x in mpmath.mpc(c)._mpc_)
             for c in coeffs]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))
    return [tuple(int(x * den) for x in pair) for pair in parts]


def _clustered_coeffs():
    """(x - 1)(x - 1 - 10^-6)(x - 1 - 2 10^-6)(x + 3)(x^2 + 1), as mpf at
    the working precision."""
    cluster = [Fraction(1) + Fraction(k, 10**6) for k in range(3)]
    coeffs = [Fraction(1)]
    for r in cluster + [Fraction(-3)]:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    coeffs = [a + b for a, b in zip(coeffs + [0, 0], [0, 0] + coeffs)]
    return [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]


def _extreme_coeffs():
    """(x - 10^30)(x + 2 10^-30)(x^2 + 10^60)(x^2 - x + 10^-60)(x - 5), its
    coefficients rounded to mpf at the working precision."""
    big, small = 10 ** 30, Fraction(1, 10 ** 30)
    coeffs = [Fraction(1)]
    for factor in ([1, -big], [1, 2 * small], [1, 0, big * big],
                   [1, -1, small * small], [1, -5]):
        coeffs = [sum(coeffs[i - k] * c for k, c in enumerate(factor)
                      if 0 <= i - k < len(coeffs))
                  for i in range(len(coeffs) + len(factor) - 1)]
    return [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]


class TestDoubleSeeds:
    """From seeds of about double precision (the low-width run), the
    full-width run finds what mpmath.polyroots, the oracle, finds."""

    def _check(self, coeffs, precision=256):
        roots, width = numeric._polyroots(_gaussian_coeffs(coeffs), precision)
        with mpmath.workprec(precision):
            got = [mpmath.mpc((x, -width), (y, -width)) for x, y in roots]
            want = mpmath.polyroots(coeffs, maxsteps=800, extraprec=precision)
            # the same roots, each to within a few units of the last place
            assert len(got) == len(want)
            left = list(want)
            for r, (_x, y) in zip(got, roots):
                near = min(left, key=lambda w: mpmath.fabs(r - w))
                assert mpmath.fabs(r - near) <= mpmath.ldexp(max(1, mpmath.fabs(near)),
                                                            8 - precision)
                # clean-up: a real root has no imaginary part
                assert (y == 0) == (type(near) is mpmath.mpf)
                left.remove(near)
            # by |imaginary part|, then real part, values within dedup tied
            tol = numeric.tolerances(precision).dedup
            for a, b in zip(got, got[1:]):
                assert mpmath.fabs(a.imag) <= mpmath.fabs(b.imag) + tol
                if mpmath.fabs(mpmath.fabs(a.imag) - mpmath.fabs(b.imag)) <= tol:
                    assert a.real <= b.real + tol
            return got

    def test_random_integer_polynomials(self):
        rng = random.Random(20240611)
        for _ in range(40):
            degree = rng.randint(2, 12)
            coeffs = [rng.randint(-50, 50) for _ in range(degree + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or -1
            self._check(coeffs)

    def test_random_complex_polynomials(self):
        # mpc coefficients with wide mantissas, as a fiber over an
        # irrational point has them
        rng = random.Random(7)
        for precision in (64, 256):
            with mpmath.workprec(precision):
                for _ in range(20):
                    coeffs = [mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) / 3 ** rng.randint(0, 9)
                              for _ in range(rng.randint(3, 14))]
                    self._check(coeffs, precision)

    def test_roots_of_unity(self):
        got = self._check([1] + [0] * 30 + [-1])
        with mpmath.workprec(256):
            assert all(mpmath.fabs(r ** 31 - 1) < mpmath.mpf(10) ** -60 for r in got)

    def test_clustered_roots(self):
        with mpmath.workprec(256):
            self._check(_clustered_coeffs())

    def test_extreme_moduli(self):
        # The oracle check holds every root to the last places, and each
        # lies near the root it stands for.
        big = 10 ** 30
        with mpmath.workprec(256):
            got = self._check(_extreme_coeffs())
            tiny = mpmath.mpf(10) ** -30
            w = mpmath.sqrt(1 - 4 * tiny ** 2)
            want = [big, -2 * tiny, big * 1j, -big * 1j,
                    (1 + w) / 2, (1 - w) / 2, 5]
            for r in got:
                assert min(mpmath.fabs(r / x - 1) for x in want) < mpmath.mpf(10) ** -15

    def test_scaled_coefficients_are_seeded(self):
        big = mpmath.ldexp(1, 3000)
        got = self._check([big, -3 * big, 2 * big])
        assert got == [1, 2]

    def test_range_beyond_doubles(self):
        # (x - 1)(x^2 - 2^1000): the coefficients span more than doubles hold.
        with mpmath.workprec(256):
            big = mpmath.ldexp(1, 1000)
            got = self._check([1, -1, -big, big])
            want = [1, mpmath.sqrt(big), -mpmath.sqrt(big)]
            assert all(min(mpmath.fabs(r / w - 1) for w in want) < mpmath.mpf(10) ** -60
                       for r in got)

    def test_zero_constant_terms(self):
        # Trailing zero coefficients give exact zero roots.
        assert self._check([1, -1, 0]) == [0, 1]
        got, width = numeric._polyroots([(1, 0), (0, 0), (1, 0), (0, 0), (0, 0), (0, 0)], 256)
        assert got[:3] == [(0, 0)] * 3
        assert len(got) == 5 and [complex(x / 2 ** width, y / 2 ** width)
                                  for x, y in got[3:]] == [-1j, 1j]
        assert numeric._polyroots([(2, 0), (0, 0)], 256)[0] == [(0, 0)]


def _exact_roots(coeffs, precision):
    """_polyroots' roots as exact values x / 2^width."""
    roots, width = numeric._polyroots(coeffs, precision)
    return [(Fraction(x, 1 << width), Fraction(y, 1 << width)) for x, y in roots]


def _stage_roots(monkeypatch, coeffs, precision=256):
    """The exact roots with the double-precision stage and with it forced to
    step aside, which must agree in value and order, and whether the stage
    gave the start points."""
    real, ran = numeric._double_start, []

    def stage(*args):
        points = real(*args)
        ran.append(points is not None)
        return points

    with monkeypatch.context() as m:
        m.setattr(numeric, "_double_start", stage)
        got = _exact_roots(coeffs, precision)
        m.setattr(numeric, "_double_start", lambda *args: None)
        assert _exact_roots(coeffs, precision) == got
    return got, all(ran)


CYCLOTOMIC_31 = [(1, 0)] * 31  # the degree-30 piece of period 5 of squaring-p1


class TestDoubleStart:
    """The double-precision stage moves only the start points of the
    fixed-point runs, never the roots they converge to."""

    def test_random_integer_polynomials(self, monkeypatch):
        rng = random.Random(31)
        stepped_aside = 0
        for _ in range(200):
            degree = rng.randint(2, 40)
            height = 2 ** rng.randint(1, 60)
            coeffs = [(rng.randint(-height, height), 0) for _ in range(degree + 1)]
            coeffs[0] = coeffs[0][0] or 1, 0
            coeffs[-1] = coeffs[-1][0] or -1, 0
            stepped_aside += not _stage_roots(monkeypatch, coeffs)[1]
        assert stepped_aside == 0

    def test_fiber_like_complex_coefficients(self, monkeypatch):
        # mpc coefficients with wide mantissas, as a fiber over an
        # irrational point has them
        rng = random.Random(7)
        for precision in (64, 256):
            with mpmath.workprec(precision):
                for _ in range(20):
                    coeffs = [mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) / 3 ** rng.randint(0, 9)
                              for _ in range(rng.randint(3, 20))]
                    assert _stage_roots(monkeypatch, _gaussian_coeffs(coeffs), precision)[1]

    def test_cyclotomic_piece(self, monkeypatch):
        roots, ran = _stage_roots(monkeypatch, CYCLOTOMIC_31)
        assert ran and len(roots) == 30

    def test_clustered_and_extreme_moduli(self, monkeypatch):
        with mpmath.workprec(256):
            cases = [_clustered_coeffs(), _extreme_coeffs()]
        for coeffs in cases:
            assert _stage_roots(monkeypatch, _gaussian_coeffs(coeffs))[1]

    def test_seed_run_converges_in_two_sweeps(self, monkeypatch):
        # From the polygon's points the low-width run takes 18 sweeps on
        # this piece; from the stage's points it takes at most 2.
        ps.limit_seed_sweeps(monkeypatch, 2)
        assert len(numeric._polyroots(CYCLOTOMIC_31, 256)[0]) == 30
        monkeypatch.setattr(numeric, "_double_start", lambda *args: None)
        with pytest.raises(numeric.NumericalError, match="2 sweeps"):
            numeric._polyroots(CYCLOTOMIC_31, 256)

    def test_narrow_range_of_large_coefficients_runs_the_stage(self, monkeypatch):
        # 2^3000 (x - 1)(x - 2): each coefficient is shifted exactly before
        # it is rounded to a double
        big = 1 << 3000
        roots, ran = _stage_roots(monkeypatch, [(big, 0), (-3 * big, 0), (2 * big, 0)])
        assert ran and roots == [(1, 0), (2, 0)]
        # (x - 2^-600)(x - 2^600) spans 601 bits, which doubles still hold;
        # the small root falls below 2^(1-p) and is cleaned to 0
        e = 1 << 600
        roots, ran = _stage_roots(monkeypatch, [(e, 0), (-(e * e + 1), 0), (e, 0)])
        assert ran and roots == [(0, 0), (e, 0)]

    def test_range_beyond_doubles_steps_aside(self, monkeypatch):
        # 2^1060 (x^2 - x) + 2^5: the constant over the largest coefficient,
        # 2^-1056, would round to a subnormal double
        coeffs = [(1 << 1060, 0), (-1 << 1060, 0), (1 << 5, 0)]
        assert numeric._double_start(coeffs, 1061, [(1.0, 0.0), (-1.0, 0.0)], 48) is None
        assert not _stage_roots(monkeypatch, coeffs)[1]
        # (x - 2^-1100)(x - 2^1100): the first and last coefficients over
        # the largest are about 2^-1101, beyond the doubles altogether
        e = 1 << 1100
        coeffs = [(e, 0), (-(e * e + 1), 0), (e, 0)]
        assert numeric._double_start(coeffs, 2201, [(1.0, 0.0), (-1.0, 0.0)], 48) is None
        roots, ran = _stage_roots(monkeypatch, coeffs)
        # clean-up drops only parts below 2^(1-p), so the large root keeps a
        # relatively tiny imaginary part
        small, (x, y) = roots
        assert not ran and small == (0, 0) and x == e and abs(y) < e >> 1000

    def test_non_finite_start_steps_aside(self):
        coeffs = [(1, 0), (0, 0), (-1, 0)]
        assert numeric._double_start(coeffs, 1, [(math.inf, 0.0), (0.5, 0.0)], 48) is None
        got = numeric._double_start(coeffs, 1, [(0.5, 0.5), (-0.5, -0.5)], 48)
        assert [complex(*w) for w in sorted(got)] == pytest.approx([-1, 1], abs=1e-14)

    def test_coinciding_points_step_aside(self):
        # the sum over z_i - z_j divides by zero; the stage never raises
        coeffs = [(1, 0), (0, 0), (-1, 0)]
        assert numeric._double_start(coeffs, 1, [(0.5, 0.0), (0.5, 0.0)], 48) is None

    def test_merged_stage_points_fall_back_to_the_polygon(self, monkeypatch):
        # Points that the low width cannot tell apart would divide by zero
        # in the fixed-point sum, so the runs start from the polygon's points.
        coeffs = [(1, 0), (0, 0), (-2, 0)]
        want = _exact_roots(coeffs, 256)
        monkeypatch.setattr(numeric, "_double_start", lambda *args: [(0.5, 0.0), (0.5, 0.0)])
        assert _exact_roots(coeffs, 256) == want


class TestCanonicalOrder:
    def test_order_ignores_root_finder_order(self, monkeypatch):
        # Conjugate pairs and equal real parts: the iteration's own order
        # follows its start points, the reported order must not.
        q = (_p(2, 2, {(2, 0): 1, (0, 2): 1})  # x^2 + y^2
             * _p(2, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 5})  # x^2 - 2xy + 5y^2
             * poly.linear_form([1, 3]))
        real = numeric._sweeps
        orders = []
        for shuffle in (lambda r: r, lambda r: r[::-1], lambda r: [(x, -y) for x, y in r]):
            def sweeps(a, z, width, bits, watch, shuffle=shuffle):
                gap = real(a, z, width, bits, watch)
                if bits == 256:  # the full-width run
                    z[:] = shuffle(z)
                return gap

            monkeypatch.setattr(numeric, "_sweeps", sweeps)
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
