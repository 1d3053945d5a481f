"""Seeded randomized suites shared by the module tests and the acceptance run.

Each suite returns the number of instances it actually checked so callers
can assert the required volume.  All randomness flows through a private
``random.Random`` per suite; identical seeds give identical instance
streams, keeping failures reproducible by seed alone.
"""

import math
import random
from fractions import Fraction

import mpmath
from mpmath.libmp import from_rational, fzero

from pcflab import fatou, numeric, pcf, periodic, poly, projmap


# -- generators ----------------------------------------------------------------


def make_component(form):
    """Normalize a form into a pcf.Component (square-free, canonical)."""
    if form.is_zero():
        raise pcf.PcfError("a component cannot be the zero form")
    f = poly.canonical(poly.squarefree_part(form))
    if f.is_constant():
        raise pcf.PcfError("a component cannot be a constant")
    return pcf.Component(f)


def _coeff(rng, allow_fractions=False):
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    if allow_fractions and rng.random() < 0.3:
        return Fraction(num, rng.randint(1, 4))
    return Fraction(num)


def _exponent(rng, nvars, degree):
    cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(degree - prev)
    return tuple(parts)


def random_form(rng, nvars, degree, max_terms=4, allow_fractions=False):
    """A random nonzero homogeneous form."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[_exponent(rng, nvars, degree)] = _coeff(rng, allow_fractions)
        p = poly.HomPoly(nvars, degree, terms)
        if not p.is_zero():
            return p


def random_linear(rng, nvars):
    return random_form(rng, nvars, 1, max_terms=nvars)


def random_triangular_map(rng, k, d):
    """A well-defined degree-d self-map of P^k (triangular construction).

    Component i is a nonzero multiple of x_i^d plus terms in the later
    variables only, so the common zero locus collapses coordinatewise to
    the origin.
    """
    n = k + 1
    comps = []
    for i in range(n):
        terms = {tuple(d if j == i else 0 for j in range(n)): _coeff(rng)}
        for _ in range(rng.randint(0, 2)):
            e = [0] * n
            rest = d
            for j in range(i + 1, n):
                e[j] = rng.randint(0, rest)
                rest -= e[j]
            e[i + 1 if i + 1 < n else i] += rest
            if e[i] == d:
                continue
            key = tuple(e)
            terms[key] = terms.get(key, Fraction(0)) + _coeff(rng)
        comps.append(poly.HomPoly(n, d, terms))
    return projmap.ProjectiveMap(comps)


def _random_invertible(rng, size):
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                for _ in range(size)]
        if projmap.exact_rank(rows) == size:
            return rows


def invert_matrix(rows):
    """A^-1 for a square rational matrix A, read off the kernel of [A | I].

    When A is invertible the free columns of [A | I] are its last n, and the
    kernel vector of column n + j is (u, v) with v = c*e_j and A u = -v, so
    column j of A^-1 is -u / c.
    """
    n = len(rows)
    if projmap.exact_rank(rows) < n:
        raise projmap.MapError("matrix is singular")
    basis = projmap.nullspace_basis([list(row) + [int(i == j) for j in range(n)]
                                     for i, row in enumerate(rows)])
    cols = [[-x / vec[n + j] for x in vec[:n]] for j, vec in enumerate(basis)]
    return [[col[i] for col in cols] for i in range(n)]


def conjugate(m, a_rows):
    """A^-1 after m after A, exact, without any normalization."""
    inv = invert_matrix(a_rows)
    subs = [poly.linear_form(row) for row in a_rows]
    pushed = [poly.compose(c, subs) for c in m.comps]
    comps = []
    for row in inv:
        acc = poly.zero(m.k + 1, m.d)
        for coeff, q in zip(row, pushed):
            acc = acc + q.scale(coeff)
        comps.append(acc)
    return projmap.ProjectiveMap(comps)


# -- points of any coordinates ---------------------------------------------------
# numeric takes rational coordinates and Points only; these build Points of
# mpmath and Python complex values, and read Points back as mpc.


def exact_parts(c) -> tuple:
    """A coordinate as the exact pair (real part, imaginary part) of
    Fractions: an int or Fraction as it is, an mpf or mpc exactly, a float
    or complex as mpmath.mpc rounds it at the working precision."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c), Fraction(0)
    parts = getattr(c, "_mpc_", None) or ((c._mpf_, fzero) if hasattr(c, "_mpf_")
                                          else mpmath.mpc(c)._mpc_)
    return tuple((-1) ** sign * man * Fraction(2) ** exp for sign, man, exp, _bc in parts)


def point(coords, floor=True):
    """coords as a numeric.Point at the working precision (a Point as it
    is), each coordinate taken by :func:`exact_parts`: the steps of
    numeric.normalize_point on complex values.  Every part is truncated at
    2^(W - e), e the least integer above the log2 of every part; with
    ``floor`` a point below the zero floor raises, without it only the
    zero vector."""
    if isinstance(coords, numeric.Point):
        return coords
    width = mpmath.mp.prec + numeric.GUARD_BITS
    parts = [exact_parts(c) for c in coords]
    e = max((m for pair in parts for m in map(numeric._part_mag, pair) if m is not None), default=0)
    ints = [tuple(numeric._part_fixed(x, width - e) for x in pair) for pair in parts]
    return numeric._normal(ints, width, 1 << max(0, 2 * (numeric.GUARD_BITS + 8 - e)) if floor else 1)


def coords(pt) -> tuple:
    """A Point's coordinates as mpc of its parts; rational ones as they are."""
    if isinstance(pt, numeric.Point):
        return tuple(mpmath.mp.make_mpc(pair) for pair in pt.parts)
    return tuple(pt)


def value(form, pt):
    """F at a Point: MpForm.fixed's value rounded once to an mpc at the
    working precision."""
    f = numeric.MpForm(form)
    prec, rnd = mpmath.mp._prec_rounding
    return mpmath.mp.make_mpc(tuple(from_rational(s, f.den << pt.width, prec, rnd)
                                    for s in f.fixed(pt.fixed)))


def pushforward_point(m, coords, precision=None):
    """Image of a point, max-modulus normalized, at the given precision:
    each component's :func:`value`, normalized by :func:`point`."""
    precision = numeric.resolve_precision(precision)
    with mpmath.workprec(precision):
        start = point(coords)
        return point([value(c, start) for c in m.comps])


def orbit(m, coords, length, precision=None):
    """The first ``length`` images of a point (not including the point)."""
    precision = numeric.resolve_precision(precision)
    out = []
    with mpmath.workprec(precision):
        current = point(coords)
        for _ in range(length):
            current = pushforward_point(m, current, precision)
            out.append(current)
    return out


def limit_seed_sweeps(monkeypatch, sweeps):
    """Make every low-width (unwatched) root-finding run raise after
    ``sweeps`` sweeps; the watched runs keep numeric.SWEEPS."""
    real, limit = numeric._sweeps, numeric.SWEEPS

    def limited(a, z, width, bits, watch):
        numeric.SWEEPS = limit if watch else sweeps
        try:
            return real(a, z, width, bits, watch)
        finally:
            numeric.SWEEPS = limit

    monkeypatch.setattr(numeric, "_sweeps", limited)


# -- poly suites ---------------------------------------------------------------


def suite_ring_axioms(n=500, seed=101):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        da = rng.randint(1, 3)
        a = random_form(rng, nvars, da, allow_fractions=True)
        b = random_form(rng, nvars, da, allow_fractions=True)
        c = random_form(rng, nvars, rng.randint(1, 2), allow_fractions=True)
        assert (a + b) * c == a * c + b * c
        assert a * c == c * a
        d2 = random_form(rng, nvars, da)
        assert (a + b) + d2 == a + (b + d2)
        count += 1
    return count


def suite_compose_degree(n=500, seed=102):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        p = random_form(rng, nvars, rng.randint(1, 3))
        e = rng.randint(1, 2)
        subs = [random_form(rng, nvars, e) for _ in range(nvars)]
        q = poly.compose(p, subs)
        assert q.degree == p.degree * e
        count += 1
    return count


def suite_exact_divide(n=500, seed=103):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        a = random_form(rng, nvars, rng.randint(1, 3), allow_fractions=True)
        b = random_form(rng, nvars, rng.randint(1, 2), allow_fractions=True)
        q = poly.exact_divide(a * b, b)
        assert q == a
        count += 1
    return count


def suite_gcd_associate(n=500, seed=104):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        a = random_form(rng, nvars, rng.randint(1, 2))
        b = random_form(rng, nvars, rng.randint(1, 2))
        g = random_form(rng, nvars, rng.randint(1, 2), max_terms=2)
        lhs = poly.gcd(a * g, b * g)
        rhs = poly.canonical(poly.gcd(a, b) * g)
        assert lhs == rhs, (poly.format_poly(lhs), poly.format_poly(rhs))
        count += 1
    return count


def suite_squarefree(n=500, seed=105):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        p = random_form(rng, nvars, rng.randint(1, 2), max_terms=2)
        q = random_form(rng, nvars, rng.randint(1, 2), max_terms=2)
        lhs = poly.squarefree_part(p * p * q)
        rhs = poly.squarefree_part(p * q)
        assert lhs == rhs, (poly.format_poly(lhs), poly.format_poly(rhs))
        count += 1
    return count


def _product_of_linears(rng, nvars, nfactors):
    p = poly.constant(nvars, 1)
    factors = []
    for _ in range(nfactors):
        lf = random_linear(rng, nvars)
        p = p * lf
        factors.append(lf)
    return p, factors


def _binary_root(lf):
    """The projective zero (alpha, beta) of a binary linear form."""
    coeffs = [Fraction(0), Fraction(0)]
    for e, c in lf.terms.items():
        coeffs[e.index(1)] = c
    return (-coeffs[1], coeffs[0])


def suite_resultant_gcd(n=500, seed=106):
    """Vanishing iff shared x_i-degree, cross-checked by a root-product oracle."""
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        i = rng.randrange(nvars)
        a = random_form(rng, nvars, rng.randint(1, 2))
        b = random_form(rng, nvars, rng.randint(1, 2))
        if rng.random() < 0.4:
            g = random_form(rng, nvars, 1)
            a, b = a * g, b * g
        if a.var_degree(i) == 0 or b.var_degree(i) == 0:
            continue
        r = poly.resultant_wrt(a, b, i)
        g = poly.gcd(a, b)
        assert r.is_zero() == (g.var_degree(i) > 0), (
            poly.format_poly(a), poly.format_poly(b), i)
        count += 1

        # Oracle cross-check on split binary forms: with the factorization
        # f = scale * prod of (beta_j s - alpha_j t), the resultant against q
        # is scale^deg(q) * prod of q(alpha_j, beta_j), up to sign.
        if nvars == 2 and count < n:
            scale = _coeff(rng, allow_fractions=True)
            fac, factors = _product_of_linears(rng, 2, rng.randint(1, 3))
            fac = fac.scale(scale)
            q = random_form(rng, 2, rng.randint(1, 2))
            # Full s-degrees on both sides keep every projective root affine,
            # which is what the product formula counts.
            if fac.var_degree(0) == fac.degree and q.var_degree(0) == q.degree:
                r2 = poly.resultant_wrt(fac, q, 0)
                val = (Fraction(0) if r2.is_zero()
                       else r2.evaluate((Fraction(1), Fraction(1))))
                oracle = scale ** q.degree
                for lf in factors:
                    alpha, beta = _binary_root(lf)
                    oracle *= q.evaluate((alpha, beta))
                assert abs(val) == abs(oracle), (val, oracle)
                count += 1
    return count


def suite_linear_factors(n=500, seed=107):
    rng = random.Random(seed)
    irreducible = poly.HomPoly(2, 2, {(2, 0): 1, (0, 2): 1})  # s^2 + t^2
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        nfac = rng.randint(1, 3)
        p, _factors = _product_of_linears(rng, nvars, nfac)
        with_irreducible = nvars == 2 and rng.random() < 0.4
        if with_irreducible:
            p = p * irreducible
        p = p.scale(_coeff(rng, allow_fractions=True))
        factors, residual = poly.linear_factors(p)
        rebuilt = residual
        for form, mult in factors:
            assert poly.exact_divide(p, form) is not None
            for _ in range(mult):
                rebuilt = rebuilt * form
        # equality up to a rational constant
        assert poly.canonical(rebuilt) == poly.canonical(p)
        # complete: every linear factor is split off, whatever its height
        if with_irreducible:
            assert poly.canonical(residual) == irreducible
        else:
            assert residual.is_constant()
        count += 1
    return count


# The term-by-term Fraction product and composition that ``poly`` used before
# its keyed integer product, kept as the reference for ``suite_products``.


def reference_mul(a, b):
    """a * b by a double loop of Fraction multiply-adds over the terms."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return poly.HomPoly(a.nvars, a.degree + b.degree, acc)


def reference_compose(p, subs):
    """p(subs), each term of p expanded by ``reference_mul``."""
    n = subs[0].nvars
    acc = poly.zero(n, p.degree * subs[0].degree)
    for exps, c in p.terms.items():
        term = poly.constant(n, c)
        for q, k in zip(subs, exps):
            for _ in range(k):
                term = reference_mul(term, q)
        acc = acc + term
    return acc


def _wide_coeff(rng):
    """A nonzero coefficient: small or of size 2^3000, integer or not."""
    num = 0
    while num == 0:
        num = rng.randint(-9, 9)
    kind = rng.random()
    if kind < 0.15:
        return Fraction(num * 2 ** 3000 + rng.randint(-9, 9))
    if kind < 0.25:
        return Fraction(num, 2 ** 3000 + rng.randint(1, 9))
    if kind < 0.55:
        return Fraction(num, rng.randint(2, 12))
    return Fraction(num)


def _wide_form(rng, nvars, degree):
    """A form for the product suite; zero one time in ten."""
    terms = {}
    if rng.random() >= 0.1:
        for _ in range(rng.randint(1, 6)):
            terms[_exponent(rng, nvars, degree)] = _wide_coeff(rng)
    return poly.HomPoly(nvars, degree, terms)


def _same(got, want):
    return (got.nvars, got.degree, got.terms) == (want.nvars, want.degree, want.terms)


def suite_products(n=500, seed=108):
    """``*`` and ``compose`` against the reference, by terms and degree.

    Operands have 2, 3 or 4 variables and degrees 0 to 6, with negative,
    fractional and 2^3000-sized coefficients; some are zero or constant.
    One product in four is (u + v)(u - v), whose cross terms cancel, and
    one composition in four is (x_i - x_j) * r with the same form put in
    for x_i and x_j, whose terms all cancel.
    """
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3, 4))
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        a, b = _wide_form(rng, nvars, da), _wide_form(rng, nvars, db)
        if rng.random() < 0.25:
            v = _wide_form(rng, nvars, da)
            a, b = a + v, a - v
        assert _same(a * b, reference_mul(a, b)), (a, b)
        assert _same(b * a, reference_mul(a, b)), (a, b)

        np_, nq = rng.choice((2, 3, 4)), rng.choice((2, 3, 4))
        dp = rng.randint(0, 6)
        e = rng.randint(0, 2 if dp <= 3 else 1)
        subs = [_wide_form(rng, nq, e) for _ in range(np_)]
        if dp and rng.random() < 0.25:
            i, j = rng.sample(range(np_), 2)
            subs[j] = subs[i]
            diff = poly.variable(np_, i) - poly.variable(np_, j)
            p = diff * _wide_form(rng, np_, dp - 1)
            assert poly.compose(p, subs).is_zero()
        else:
            p = _wide_form(rng, np_, dp)
        got, want = poly.compose(p, subs), reference_compose(p, subs)
        assert _same(got, want), (p, subs)
        assert got.degree == dp * e
        count += 1
    return count


# The term-by-term Fraction reduction that ``poly`` used before its division
# on packed integer keys, kept as the reference for ``suite_division``.


def reference_reduce(a, b, rest=None):
    """Reduce ``a`` by ``b`` term by term from the lex-greatest; the quotient.

    A leading term that ``b``'s does not divide moves into the dict ``rest``,
    or, with no ``rest`` given, ends the loop with None.
    """
    lead_b, coeff_b = b.leading()
    quot = {}
    work = dict(a.terms)
    while work:
        lead = max(work)
        te = tuple(x - y for x, y in zip(lead, lead_b))
        if any(x < 0 for x in te):
            if rest is None:
                return None
            rest[lead] = work.pop(lead)
            continue
        tc = work[lead] / coeff_b
        quot[te] = tc
        for e, c in b.terms.items():
            e2 = tuple(x + y for x, y in zip(te, e))
            s = work.get(e2, 0) - tc * c
            if s:
                work[e2] = s
            else:
                work.pop(e2, None)
    return quot


def reference_remainder(a, b):
    rest = {}
    reference_reduce(a, b, rest)
    return poly.HomPoly(a.nvars, a.degree, rest)


def reference_exact_divide(a, b):
    if a.is_zero():
        return poly.zero(a.nvars, max(a.degree - b.degree, 0))
    if a.degree < b.degree:
        return None
    quot = reference_reduce(a, b)
    return None if quot is None else poly.HomPoly(a.nvars, a.degree - b.degree, quot)


def suite_division(n=500, seed=109):
    """``remainder`` and ``exact_divide`` against the reference, by terms and degree.

    Operands have 2, 3 or 4 variables and degrees 0 to 6, with negative,
    fractional and 2^3000-sized coefficients.  The divisor is nonzero, and
    one time in two its leading coefficient is scaled away from 1.  One
    dividend in three is a random form, of a degree below or above the
    divisor's; one is an exact product q*b, whose remainder cancels to zero;
    and one is q*b plus a stray monomial, which b does not divide unless b
    is itself a monomial.
    """
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3, 4))
        b = _wide_form(rng, nvars, rng.randint(0, 6))
        if b.is_zero():
            continue
        if rng.random() < 0.5:
            b = b.scale(_wide_coeff(rng) / b.leading()[1] * rng.choice((2, -3, 5)))
        kind = count % 3
        if kind == 0:
            a = _wide_form(rng, nvars, rng.randint(0, 6))
        else:
            a = _wide_form(rng, nvars, rng.randint(0, 6 - b.degree)) * b
            if kind == 2:
                stray = _exponent(rng, nvars, a.degree)
                a = a + poly.monomial(nvars, stray, _wide_coeff(rng))
        want_r, want_q = reference_remainder(a, b), reference_exact_divide(a, b)
        if kind == 1:
            assert want_r.is_zero() and want_q is not None
        assert _same(poly.remainder(a, b), want_r), (a, b)
        got_q = poly.exact_divide(a, b)
        if want_q is None:
            assert got_q is None, (a, b)
        else:
            assert _same(got_q, want_q), (a, b)
        count += 1
    return count


# -- projmap suites ------------------------------------------------------------


def suite_iterate_additivity(n=500, seed=201):
    """Iterate and restriction laws on random well-defined maps.

    Nesting multiplies exponents ((f^a)^b = f^(ab)) and composing adds them
    (f^a after f^b = f^(a+b)); both must hold as exact primitive tuples.
    iterate and restrict normalize scalars only, so on a well-defined map
    their tuples must equal primitivize (with its gcd) of the same tuple.
    Restrictions run on a conjugate A^-1 f A, which stays well-defined: in
    P^2 the line A^-1{z = 0} is invariant, and in P^1 the restriction to
    the whole line along A is a second conjugation.
    """
    rng = random.Random(seed)
    count = 0
    while count < n:
        k = rng.choice((1, 2))
        d = rng.choice((2, 3)) if k == 1 else 2
        m = random_triangular_map(rng, k, d)
        if k == 1 and d == 2:
            a, b = rng.randint(1, 2), rng.randint(1, 2)
        else:
            # keep composed degrees desk-scale
            a, b = rng.choice(((1, 1), (1, 2), (2, 1)))
        nested = projmap.iterate(projmap.iterate(m, a), b)
        assert nested.comps == projmap.iterate(m, a * b).comps
        fa, fb = projmap.iterate(m, a), projmap.iterate(m, b)
        composed, reduced = projmap.primitivize(
            [poly.compose(c, list(fb.comps)) for c in fa.comps])
        assert not reduced
        assert tuple(composed) == projmap.iterate(m, a + b).comps

        a_rows = _random_invertible(rng, k + 1)
        conj = conjugate(m, a_rows)
        if k == 1:
            line = projmap.LinearEmbedding(tuple(map(tuple, a_rows)))
        else:
            # the triangular map's last component is c*z^d
            line = projmap.embedding_for_hyperplane(poly.linear_form(a_rows[2]))
        g = projmap.restrict(conj, line, line)
        assert projmap.primitivize(g.comps) == (list(g.comps), False)
        if a == 1:
            assert projmap.restrict(projmap.iterate(conj, 2), line, line) == \
                projmap.iterate(g, 2)
        count += 1
    return count


def _proportional(a, b) -> bool:
    """Whether two tuples of forms are one nonzero rational multiple of each other."""
    ka = next(k for k, q in enumerate(a) if q)
    e, x = next(iter(a[ka].terms.items()))
    y = b[ka].terms.get(e)
    return y is not None and tuple(b) == tuple(q.scale(y / x) for q in a)


def sym2_map():
    """Sym^2 of z -> z^2 - 2 on P^2, (x^2 : y^2 - 2xz : z^2)."""
    x, y, z = (poly.variable(3, i) for i in range(3))
    return projmap.ProjectiveMap([x * x, y * y - 2 * x * z, z * z])


def suite_restrict_iterate(conjugates=4, seed=203):
    """restrict_iterate against the restriction of the ternary iterate.

    On squaring-p2, fs-1992-a, Sym^2 and ``conjugates`` seeded conjugates
    of each, for every periodic line L (embedding e) and n = 1, 2, 3:
    restrict_iterate(m, e, n) raises RestrictionError exactly when
    restrict(iterate(m, n), e, e) does, and otherwise returns that map,
    with orbit[j] a multiple of the components of iterate(m, j) composed
    with e (orbit[0] is e itself).  Returns the number of (map, line, n)
    instances checked.
    """
    from pcflab import catalog
    rng = random.Random(seed)
    bases = [catalog.get("squaring-p2").map, catalog.get("fs-1992-a").map, sym2_map()]
    maps = bases + [conjugate(m, _random_invertible(rng, 3))
                    for m in bases for _ in range(conjugates)]
    count = 0
    for m in maps:
        m = projmap.validate(m).map
        graph, verdict = pcf.postcritical_graph(m)
        assert verdict.ok
        for node in graph.periodic_nodes():
            if not node.linear:
                continue
            emb = projmap.embedding_for_hyperplane(node.form)
            subs = [poly.linear_form(row) for row in emb.matrix]
            for n in (1, 2, 3):
                try:
                    want = projmap.restrict(projmap.iterate(m, n), emb, emb)
                except projmap.RestrictionError:
                    want = None
                try:
                    got, orbit = projmap.restrict_iterate(m, emb, n)
                except projmap.RestrictionError:
                    assert want is None, (m, node.form, n)
                    count += 1
                    continue
                assert got == want, (m, node.form, n)
                assert len(orbit) == n + 1 and orbit[0] == tuple(subs)
                for j in range(1, n + 1):
                    big = projmap.iterate(m, j)
                    assert _proportional(orbit[j], [poly.compose(c, subs) for c in big.comps]), \
                        (m, node.form, n, j)
                count += 1
    return count


def reference_image(m, c):
    """The image of a component by the least-degree M with c | M∘f, solved
    as a linear system over the monomials of each degree in turn: the
    route of pcf.image_of_component for every component."""
    nvars = m.k + 1
    reduced = {(0,) * nvars: poly.constant(nvars, 1)}
    for delta in range(1, m.d * c.form.degree + 1):
        below, reduced = reduced, {}
        for b, r in below.items():
            for i, comp in enumerate(m.comps):
                a = b[:i] + (b[i] + 1,) + b[i + 1:]
                if a not in reduced:
                    reduced[a] = poly.remainder(r * comp, c.form)
        columns = [r.terms for r in reduced.values()]
        rows = sorted(set().union(*columns))
        kernel = projmap.nullspace_basis([[col.get(e, 0) for col in columns] for e in rows])
        if kernel:
            return poly.canonical(poly.HomPoly(nvars, delta, dict(zip(reduced, kernel[0]))))
    return None


def suite_point_images_p1(n=500, seed=204):
    """On seeded maps of P^1 of degree 2 to 4, with fractional coefficients,
    the image of a rational point (a linear component) from
    pcf.image_of_component equals the linear-system image of
    :func:`reference_image`.  Returns the number of points checked."""
    rng = random.Random(seed)
    count = 0
    while count < n:
        m = conjugate(random_triangular_map(rng, 1, rng.randint(2, 4)),
                      _random_invertible(rng, 2))
        vr = projmap.validate(m)
        if not vr.ok:
            continue
        # a second component over a denominator, which the evaluation clears
        m = projmap.ProjectiveMap([vr.map.comps[0],
                                   vr.map.comps[1].scale(Fraction(1, rng.randint(1, 5)))])
        for _ in range(4):
            c = make_component(random_linear(rng, 2))
            assert pcf.image_of_component(m, c).form == reference_image(m, c), (m, c.form)
            count += 1
    return count


def suite_p1_degree_power(n=500, seed=202):
    rng = random.Random(seed)
    count = 0
    while count < n:
        d = rng.choice((2, 3))
        m = random_triangular_map(rng, 1, d)
        vr = projmap.validate(m)
        if not vr.ok:
            continue
        g = vr.map
        base = projmap.p1_degree(g)
        nexp = rng.randint(2, 3)
        assert projmap.p1_degree(projmap.iterate(g, nexp)) == base ** nexp
        count += 1
    return count


# -- pcf suites ----------------------------------------------------------------


def suite_component_normalization(n=500, seed=301):
    rng = random.Random(seed)
    count = 0
    while count < n:
        nvars = rng.choice((2, 3))
        p = random_form(rng, nvars, rng.randint(1, 3), allow_fractions=True)
        c1 = make_component(p)
        c2 = make_component(c1.form)
        assert c1.form == c2.form
        lead = c1.form.leading()[1]
        assert lead.denominator == 1 and lead > 0
        assert poly.squarefree_part(c1.form) == c1.form
        count += 1
    return count


def suite_image_agreement(n=60, seed=302):
    """Line images pass an exact oracle that does not call the image code.

    With e the line's parametrization and g = f∘e, the image M must vanish
    on g identically, and deg M * mu = d, where mu, the degree of L onto its
    image, is the least fiber degree deg gcd(q_i g_j - q_j g_i), q = f(p),
    over 3d rational points p of L.  Any fiber has at least mu points, and a
    form vanishing on the image has degree at least d / mu.
    """
    rng = random.Random(seed)
    maps = [e.map for e in _p2_catalog()]
    count = 0
    while count < n:
        m = maps[count % len(maps)]
        c = make_component(random_linear(rng, 3))
        image = pcf.image_of_component(m, c)
        emb = projmap.embedding_for_hyperplane(c.form)
        g = [poly.compose(comp, [poly.linear_form(row) for row in emb.matrix])
             for comp in m.comps]
        assert poly.compose(image.form, g).is_zero(), poly.format_poly(image.form)
        fiber = m.d
        for j in range(3 * m.d):
            q = [comp.evaluate(emb.apply((Fraction(j), Fraction(1)))) for comp in m.comps]
            cross = [g[b].scale(q[a]) - g[a].scale(q[b])
                     for a in range(3) for b in range(a + 1, 3)]
            fiber = min(fiber, poly.gcd_many([x for x in cross if x]).degree)
        assert image.form.degree * fiber == m.d, (poly.format_poly(image.form), fiber)
        count += 1
    return count


def _p2_catalog():
    from pcflab import catalog
    return [e for e in catalog.entries() if e.k == 2]


# -- periodic suites -----------------------------------------------------------


def _diagonal_map(c0, c1, c2):
    return projmap.ProjectiveMap([
        poly.HomPoly(3, 2, {(2, 0, 0): Fraction(c0)}),
        poly.HomPoly(3, 2, {(0, 2, 0): Fraction(c1)}),
        poly.HomPoly(3, 2, {(0, 0, 2): Fraction(c2)}),
    ])


def _diagonal_fixed_points(coeffs):
    """All 7 fixed points of (c0 x^2 : c1 y^2 : c2 z^2), exactly."""
    points = []
    for mask in range(1, 8):
        support = [i for i in range(3) if mask >> i & 1]
        vec = tuple(Fraction(1, coeffs[i]) if i in support else Fraction(0)
                    for i in range(3))
        points.append(vec)
    return points


def suite_chart_invariance(n=500, seed=401, precision=256):
    """Multiplier spectra agree across admissible chart choices."""
    rng = random.Random(seed)
    count = 0
    with mpmath.workprec(precision):
        while count < n:
            coeffs = [rng.randint(1, 9) for _ in range(3)]
            m = _diagonal_map(*coeffs)
            # the components and their partials over one denominator, so
            # their fixed-point values share one scale
            forms = numeric.compile_forms(
                list(m.comps) + [poly.partial(c, j) for c in m.comps for j in range(3)])
            width = precision + numeric.GUARD_BITS
            for vec in _diagonal_fixed_points(coeffs):
                charts = [i for i in range(3) if vec[i] != 0]
                if len(charts) < 2:
                    continue
                spectra = []
                for ch in charts:
                    # the transition derivative needs the representative
                    # scaled to 1 in its input chart
                    z = [(math.floor(x / vec[ch] * 2 ** width), 0) for x in vec]
                    vals = [f.fixed(z) for f in forms[:3]]
                    dvals = [[f.fixed(z) for f in forms[3 * i + 3:3 * i + 6]] for i in range(3)]
                    jac = periodic._chart_jacobian(vals, dvals, ch, ch, width)
                    eigs = periodic._eigenvalues(jac, width)
                    spectra.append(sorted(eigs, key=lambda z: (mpmath.fabs(z),
                                                               float(z.real),
                                                               float(z.imag))))
                base = spectra[0]
                for other in spectra[1:]:
                    for lam, mu in zip(base, other):
                        scale = max(mpmath.fabs(lam), mpmath.fabs(mu), 1)
                        assert mpmath.fabs(lam - mu) / scale < mpmath.mpf(10) ** -30
                    count += 1
                # the library's own chart selection must agree too
                lib = periodic.multipliers(m, vec, 1, precision)
                for lam, mu in zip(sorted(lib, key=lambda z: (mpmath.fabs(z),
                                                              float(z.real),
                                                              float(z.imag))),
                                   base):
                    scale = max(mpmath.fabs(lam), mpmath.fabs(mu), 1)
                    assert mpmath.fabs(lam - mu) / scale < mpmath.mpf(10) ** -30
    return count


def suite_classify_conjugation(n=500, seed=402):
    rng = random.Random(seed)
    count = 0
    with mpmath.workprec(256):
        while count < n:
            mode = rng.random()
            if mode < 0.2:
                lam = mpmath.mpc(0)
            elif mode < 0.4:
                r = rng.uniform(0.05, 0.95)
                lam = r * mpmath.exp(1j * rng.uniform(0, 6.28))
            elif mode < 0.6:
                q = rng.randint(1, 8)
                lam = mpmath.exp(2j * mpmath.pi * rng.randint(0, q) / q)
            elif mode < 0.8:
                lam = mpmath.exp(1j * rng.uniform(0.1, 6.0))
            else:
                lam = (1 + rng.uniform(0.1, 3)) * mpmath.exp(1j * rng.uniform(0, 6.28))
            a = periodic.classify([lam])[0]
            b = periodic.classify([mpmath.conj(lam)])[0]
            assert a.kind == b.kind and a.root_order == b.root_order, (
                str(lam), a, b)
            count += 1
    return count


# -- fatou suites --------------------------------------------------------------


def _scan_windows(rng, entry):
    k = entry.k
    chart = rng.randrange(k + 1)
    center = tuple(complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
                   for _ in range(k))
    radius = rng.uniform(0.1, 1.2)
    res = rng.choice((4, 5, 6))
    iters = rng.randint(8, 24)
    return fatou.ScanConfig(chart, center, radius, res, iters,
                            1e-9, _probe_candidates(entry))


def _probe_candidates(entry):
    k = entry.k
    pts = []
    for i in range(k + 1):
        pts.append(tuple(Fraction(int(j == i)) for j in range(k + 1)))
    return tuple(pts)


def suite_scan_determinism(n=500, seed=501):
    """Reruns give the same grid, and it equals the reference loop's."""
    from pcflab import catalog
    import scan_reference
    rng = random.Random(seed)
    entries = list(catalog.entries())
    count = 0
    while count < n:
        entry = entries[count % len(entries)]
        config = _scan_windows(rng, entry)
        g1 = fatou.scan(entry.map, config)
        g2 = fatou.scan(entry.map, config)
        ref = scan_reference.scan(entry.map, config)
        for g in (g2, ref):
            assert g1.labels == g.labels
            assert g1.iters == g.iters
            assert g1.decayed == g.decayed
            assert g1.settled == g.settled
            assert g1.failures == g.failures
        count += 1
    return count
