"""Exact arithmetic for homogeneous polynomials with rational coefficients.

A form is stored sparsely as a dictionary mapping exponent tuples to nonzero
Fraction coefficients:

    x^2*y + 3/2*z^3  ->  {(2, 1, 0): Fraction(1), (0, 0, 3): Fraction(3, 2)}

Every exponent tuple of a ``HomPoly`` sums to the same total degree, and the
zero polynomial keeps an explicit degree tag so that degree bookkeeping
survives cancellation.  All operations are pure: no method or function in
this module mutates an existing polynomial, which makes values safe to share
and to use as dictionary keys.

The module deliberately stops short of general multivariate factorization.
It provides the primitives the rest of the package needs: ring arithmetic,
composition, exact division, gcds, square-free parts and decompositions,
fraction-free echelon forms of integer matrices (``echelon``), resultants
and subresultants interpolated from integer Sylvester minors
(``subresultant``), and rational linear-factor extraction for binary and
ternary forms.

Products and compositions, in any number of variables, run one keyed
integer product: each exponent tuple becomes one integer, so multiplying
two monomials is one integer addition, and each operand is scaled by its
common denominator to integer coefficients, so Fractions are built only
once, over the product of the denominators (``_times``).  Exact division
and remainders reduce the same packed keys over integers, from the
lex-greatest key of a heap, and build their Fractions once
(``_lead_reduce``).

Binary forms (``nvars == 2``) take a dense path in ``gcd``,
``squarefree_part``, the rational roots of ``linear_factors`` and
``binary_squarefree_decomposition``.  A binary form of degree d is the
list of its d + 1 coefficients by the power of x0, scaled to integers; the
list with its zero top entries dropped is the dehomogenized polynomial
p(x0, 1), and the number dropped is the power of x1 dividing p.  Gcds run a
univariate primitive remainder sequence on those lists and put the power of
x1 back apart; the square-free part and the decomposition, by Yun's
algorithm, start from one shared step, u / gcd(u, u') and u' / gcd(u, u').

The gcd of forms in more variables is the primitive part, with respect to
one variable, of their first non-vanishing subresultant, times the gcd of
their contents, which are forms in one variable fewer; ternary contents
take the dense binary path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence


class PolynomialError(ValueError):
    """Contract violation in polynomial construction or arithmetic."""


Exponent = tuple  # tuple[int, ...], one entry per variable

# Display names for small variable counts; index by nvars.
_VAR_NAMES = {2: ("s", "t"), 3: ("x", "y", "z")}


class HomPoly:
    """A homogeneous polynomial in ``nvars`` variables over the rationals."""

    __slots__ = ("nvars", "degree", "terms", "_hash")

    def __init__(self, nvars: int, degree: int, terms: dict):
        if nvars < 2:
            raise PolynomialError(f"need at least 2 variables, got {nvars}")
        if degree < 0:
            raise PolynomialError(f"negative degree tag {degree}")
        clean = {}
        for exps, coeff in terms.items():
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise PolynomialError(f"bad exponent tuple {exps} for nvars={nvars}")
            if sum(exps) != degree:
                raise PolynomialError(
                    f"exponent tuple {exps} sums to {sum(exps)}, expected degree {degree}"
                )
            clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("HomPoly is immutable")

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.degree == 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def var_degree(self, i: int) -> int:
        """Largest exponent of variable ``i`` (0 for the zero polynomial)."""
        return max((e[i] for e in self.terms), default=0)

    def min_var_degree(self, i: int) -> int:
        """Smallest exponent of variable ``i`` across terms (0 if zero)."""
        return min((e[i] for e in self.terms), default=0)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the lexicographically greatest term."""
        if not self.terms:
            raise PolynomialError("the zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "HomPoly":
        return _form(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "HomPoly") -> "HomPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise PolynomialError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e, 0) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        return _form(self.nvars, self.degree, acc)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        degree = self.degree + other.degree
        da, db = _denominator(self), _denominator(other)
        acc = _times(_packed(self, da, degree + 1), _packed(other, db, degree + 1))
        return _unpacked(self.nvars, degree, acc, da * db, degree + 1)

    __rmul__ = __mul__

    def scale(self, c) -> "HomPoly":
        c = Fraction(c)
        if c == 0:
            return _form(self.nvars, self.degree, {})
        return _form(self.nvars, self.degree, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int) -> "HomPoly":
        if n < 0:
            raise PolynomialError("negative power")
        result = constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _check_compatible(self, other: "HomPoly"):
        if not isinstance(other, HomPoly):
            raise PolynomialError(f"expected HomPoly, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise PolynomialError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    # -- evaluation ----------------------------------------------------

    def evaluate(self, coords: Sequence):
        """Evaluate at a point whose coordinates live in any commutative ring.

        Works with Fractions (exact), floats, complex, or mpmath numbers.
        Returns 0 (int) for the zero polynomial.
        """
        if len(coords) != self.nvars:
            raise PolynomialError(
                f"point has {len(coords)} coordinates, expected {self.nvars}"
            )
        powers = []
        for i, v in enumerate(coords):
            top = self.var_degree(i)
            row = [1]
            for _ in range(top):
                row.append(row[-1] * v)
            powers.append(row)
        total = 0
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * powers[i][k]
            total = total + term
        return total

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.nvars, self.degree, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        """Deterministic ordering key (degree, then terms in descending lex)."""
        items = tuple(
            sorted(
                (tuple(-x for x in e), (c.numerator, c.denominator))
                for e, c in self.terms.items()
            )
        )
        return (self.degree, self.nvars, items)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"HomPoly({self.nvars}, {self.degree}, {format_poly(self)!r})"


def _form(nvars: int, degree: int, terms: dict) -> HomPoly:
    """A HomPoly from terms that this module built itself: nonzero Fractions
    on exponent tuples of length ``nvars`` that sum to ``degree``.  It skips
    the checks of ``HomPoly.__init__``, which every form from outside takes."""
    p = object.__new__(HomPoly)
    object.__setattr__(p, "nvars", nvars)
    object.__setattr__(p, "degree", degree)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


# -- constructors -------------------------------------------------------


def zero(nvars: int, degree: int) -> HomPoly:
    return HomPoly(nvars, degree, {})


def constant(nvars: int, value) -> HomPoly:
    return HomPoly(nvars, 0, {(0,) * nvars: Fraction(value)})


def variable(nvars: int, i: int) -> HomPoly:
    if not 0 <= i < nvars:
        raise PolynomialError(f"variable index {i} out of range for nvars={nvars}")
    e = [0] * nvars
    e[i] = 1
    return HomPoly(nvars, 1, {tuple(e): Fraction(1)})


def monomial(nvars: int, exps: Sequence[int], coeff=1) -> HomPoly:
    exps = tuple(exps)
    return HomPoly(nvars, sum(exps), {exps: Fraction(coeff)})


def linear_form(coeffs: Sequence) -> HomPoly:
    """The linear form with the given coefficient vector."""
    n = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = Fraction(c)
    return HomPoly(n, 1, terms)


def linear_coeffs(form: HomPoly) -> list:
    """The coefficient vector of a linear form; inverse of :func:`linear_form`."""
    coeffs = [Fraction(0)] * form.nvars
    for e, c in form.terms.items():
        coeffs[e.index(1)] = c
    return coeffs


def root_of_binary_linear(form: HomPoly) -> tuple:
    """The root (x0, x1) of a binary linear form a*x0 + b*x1, namely (-b, a)."""
    a, b = linear_coeffs(form)
    return (-b, a)


def format_poly(p: HomPoly) -> str:
    if p.is_zero():
        return "0"
    names = _VAR_NAMES.get(p.nvars) or [f"x{i}" for i in range(p.nvars)]
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        body = "*".join(factors)
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c}*{body}"
        parts.append(piece)
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


# -- normalization -------------------------------------------------------


def _denominator(*forms: HomPoly) -> int:
    """Least common denominator of the coefficients of the forms."""
    return lcm(*(c.denominator for p in forms for c in p.terms.values()))


def int_primitive(p: HomPoly) -> HomPoly:
    """Scale to integer coefficients with content 1 (sign untouched)."""
    if p.is_zero():
        return p
    den = _denominator(p)
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    g = int_gcd(*ints.values())
    return _form(p.nvars, p.degree, {e: Fraction(x // g) for e, x in ints.items()})


def primitive_vector(vec: Sequence) -> tuple:
    """The integer representative of a rational vector as a projective
    point, as Fractions: content 1, first non-zero entry positive."""
    vec = [Fraction(x) for x in vec]
    den = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = int_gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in ints)


def canonical(p: HomPoly) -> HomPoly:
    """Integer-primitive form with positive lexicographically leading coefficient.

    This is the identity under which forms are compared: two rational
    multiples of the same form canonicalize to the identical HomPoly.
    """
    if p.is_zero():
        return p
    q = int_primitive(p)
    _, lead = q.leading()
    return -q if lead < 0 else q


# -- calculus and composition --------------------------------------------


def partial(p: HomPoly, i: int) -> HomPoly:
    """Partial derivative with respect to variable ``i``."""
    if not 0 <= i < p.nvars:
        raise PolynomialError(f"variable index {i} out of range")
    return _form(p.nvars, max(p.degree - 1, 0),
                 {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.terms.items() if e[i]})


def compose(p: HomPoly, subs: Sequence[HomPoly]) -> HomPoly:
    """Substitute ``subs[i]`` for variable ``i`` of ``p``.

    All substituted forms must share a variable count and a common degree
    ``e``; the result is homogeneous of degree ``p.degree * e``.  With D the
    common denominator of the substituted forms and P that of p,
    p(q) = (P*p)(D*q) / (P * D^deg p) because p is homogeneous, so the
    keyed product runs on integers and only the result has fractions.
    """
    if len(subs) != p.nvars:
        raise PolynomialError(f"{p.nvars} substitutions required, got {len(subs)}")
    n, e = subs[0].nvars, subs[0].degree
    for q in subs:
        if q.nvars != n:
            raise PolynomialError("substituted forms disagree on variable count")
        if q.degree != e:
            raise PolynomialError(
                f"substituted forms disagree on degree: {q.degree} vs {e}"
            )
    out_deg = p.degree * e
    den = _denominator(*subs)
    powers = []  # powers[i][k]: the packed k-th power of den * subs[i]
    for i, q in enumerate(subs):
        row = [{0: 1}, _packed(q, den, out_deg + 1)]
        for _ in range(1, p.var_degree(i)):
            row.append(_times(row[-1], row[1]))
        powers.append(row)
    pden = _denominator(p)
    acc = {}
    for exps, c in p.terms.items():
        term = {0: c.numerator * (pden // c.denominator)}
        for i, k in enumerate(exps):
            if k:
                term = _times(term, powers[i][k])
        for key, x in term.items():
            acc[key] = acc.get(key, 0) + x
    return _unpacked(n, out_deg, acc, pden * den ** p.degree, out_deg + 1)


# -- the keyed integer product ----------------------------------------------
#
# The key of an exponent tuple e is sum of e_i * B^(nvars - 1 - i), with B
# the degree of the product plus one (Monagan and Pearce 2007).  No exponent
# reaches B, so adding two keys multiplies the monomials with no carry, and
# with x0 the most significant digit, key order is the lex order.


def _packed(p: HomPoly, den: int, base: int) -> dict:
    """``den * p``, which must have integer coefficients, as {key: int}."""
    out = {}
    for e, c in p.terms.items():
        k = 0
        for x in e:
            k = k * base + x
        out[k] = c.numerator * (den // c.denominator)
    return out


def _times(a: dict, b: dict) -> dict:
    """The product of two packed forms; a cancelled key stays, at 0."""
    acc = {}
    get = acc.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return acc


@lru_cache(maxsize=1 << 16)
def _exponents(key: int, base: int, nvars: int) -> tuple:
    """The exponent tuple of ``key``, one object for all forms of a degree."""
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        key, out[i] = divmod(key, base)
    return tuple(out)


def _unpacked(nvars: int, degree: int, acc: dict, den: int, base: int) -> HomPoly:
    """The form of the given degree with coefficients acc[key] / den."""
    return _form(nvars, degree, {_exponents(k, base, nvars): Fraction(c, den)
                                 for k, c in acc.items() if c})


# -- dense binary forms ----------------------------------------------------
#
# The list c of a binary form of degree d holds the coefficient of
# x0^i * x1^(d - i) at index i.  Dropping its zero top entries leaves the
# dehomogenized polynomial p(x0, 1), low degree first; the number dropped
# is the power of x1 that divides the form.


def _binary_ints(p: HomPoly, den: int) -> list:
    """The dense list of ``den * p``, which must have integer coefficients."""
    out = [0] * (p.degree + 1)
    for (i, _), c in p.terms.items():
        out[i] = c.numerator * (den // c.denominator)
    return out


def _binary_form(c: list) -> HomPoly:
    """The binary form of degree len(c) - 1 with coefficients c[i]."""
    d = len(c) - 1
    return HomPoly(2, d, {(i, d - i): Fraction(x) for i, x in enumerate(c) if x})


def _trim(c: list) -> list:
    """Drop the zero top entries."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return c[:end]


def _dehomogenize(p: HomPoly) -> list:
    """p(x0, 1) of a nonzero binary form, scaled to integers."""
    return _trim(_binary_ints(p, _denominator(p)))


def _derivative(u: list) -> list:
    return [i * x for i, x in enumerate(u)][1:]


def _primitive(c: list) -> list:
    g = int_gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _dense_prem(f: list, g: list) -> list:
    """A nonzero integer multiple of f mod g, trimmed; len(f) >= len(g) >= 2.

    Each step cancels the top entry of the remainder r by
    (lg/h)*r - (lr/h)*x^k*g with h = gcd(lr, lg), which keeps the multiplier
    as small as the leading coefficients allow.
    """
    r = list(f)
    lg = g[-1]
    dg = len(g) - 1
    while len(r) > dg:
        lr = r.pop()
        if lr:
            h = int_gcd(lr, lg)
            a, b = lg // h, lr // h
            if a != 1:
                r = [a * x for x in r]
            shift = len(r) - dg
            for i in range(dg):
                r[shift + i] -= b * g[i]
    return _trim(r)


def _dense_gcd(f: list, g: list) -> list:
    """Primitive gcd of two nonzero trimmed integer polynomials, by a
    primitive remainder sequence; [1] when they are coprime."""
    if len(f) < len(g):
        f, g = g, f
    g = _primitive(g)
    while len(g) > 1:
        r = _dense_prem(f, g)
        if not r:
            return g
        f, g = g, _primitive(r)
    return [1]


def _dense_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials where b is primitive and divides a.

    By Gauss's lemma the quotient has integer coefficients, so every step
    of the long division is an exact integer division.
    """
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        t = a[k + db] // lb
        if t:
            q[k] = t
            for i in range(db):
                a[k + i] -= t * b[i]
    return q


def _dense_squarefree(u: list) -> tuple:
    """u / g and u' / g for g = gcd(u, u') of a trimmed integer polynomial
    of positive degree: the square-free part of u, in characteristic zero,
    and the first cofactor of Yun's algorithm."""
    du = _derivative(u)
    g = _dense_gcd(u, du)
    return _dense_quotient(u, g), _dense_quotient(du, g)


def _binary_gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """gcd of two nonzero binary forms: the gcd of their dehomogenized
    polynomials times x1^min(v_a, v_b), v being the power of x1 in each."""
    ua, ub = _dehomogenize(a), _dehomogenize(b)
    v = min(a.degree + 1 - len(ua), b.degree + 1 - len(ub))
    return canonical(_binary_form(_dense_gcd(ua, ub) + [0] * v))


# -- exact division ------------------------------------------------------


def exact_divide(a: HomPoly, b: HomPoly) -> Optional[HomPoly]:
    """Return ``a / b`` when the division is exact, else None.

    Uses leading-term reduction in lexicographic order (``_lead_reduce``).
    Because leading terms are multiplicative, it either ends with remainder
    zero, giving the quotient, or proves non-divisibility at the first
    leading term that fails to divide.
    """
    a._check_compatible(b)
    if b.is_zero():
        raise PolynomialError("division by the zero polynomial")
    if a.is_zero():
        return zero(a.nvars, max(a.degree - b.degree, 0))
    if a.degree < b.degree:
        return None
    return _lead_reduce(a, b, exact=True)


def remainder(a: HomPoly, b: HomPoly) -> HomPoly:
    """The remainder of ``a`` under leading-term division by ``b``, lex order.

    No term of it is divisible by the leading term of ``b``, which makes it
    unique: it is zero exactly when ``b`` divides ``a``, it is linear in
    ``a``, and ``remainder(remainder(a) * p, b) == remainder(a * p, b)``.
    A dividend of lower degree than ``b`` is its own remainder.
    """
    a._check_compatible(b)
    if b.is_zero():
        raise PolynomialError("division by the zero polynomial")
    if a.is_zero() or a.degree < b.degree:
        return a
    return _lead_reduce(a, b, exact=False)


def _lead_reduce(a: HomPoly, b: HomPoly, exact: bool) -> Optional[HomPoly]:
    """The remainder of ``a`` by ``b``, deg a >= deg b, from the lex-greatest
    term; with ``exact``, the quotient, or None at the first term that b's
    leading term does not divide.

    Keys are packed in base 2^s, 2^(s-1) > deg a, so each exponent field
    has a clear guard bit, and b's leading key divides a key k exactly when
    k - lead sets none: a field that goes negative borrows into its own
    guard bit (Monagan and Pearce 2007).  Keys come off a heap greatest
    first; each enters it once, and a cancelled key stays in ``work`` at 0.
    With A = den_a * a and B = den_b * b in integers, the loop keeps
    scale * A = Q * B + R + work, multiplying work and the output by
    |lc| / gcd(w, lc) when B's leading coefficient lc does not divide the
    leading coefficient w.  Q * den_b or R over scale * den_a gives the
    Fractions, built once.
    """
    nvars = a.nvars
    s = a.degree.bit_length() + 1
    base = 1 << s
    guard = sum(1 << (s * i + s - 1) for i in range(nvars))
    den_a, den_b = _denominator(a), _denominator(b)
    work = _packed(a, den_a, base)
    divisor = sorted(_packed(b, den_b, base).items(), reverse=True)
    (lead, lc), tail = divisor[0], divisor[1:]
    heap = [-k for k in work]
    heapify(heap)
    out, scale = {}, 1
    while heap:
        k = -heappop(heap)
        w = work.pop(k)
        if not w:
            continue
        t = k - lead
        if t & guard:
            if exact:
                return None
            out[k] = w
            continue
        if w % lc:
            m = abs(lc) // int_gcd(w, lc)
            for d in (work, out):
                for key in d:
                    d[key] *= m
            scale *= m
            w *= m
        q = w // lc
        if exact:
            out[t] = q * den_b
        for kb, cb in tail:
            key = t + kb
            c = work.get(key)
            if c is None:
                heappush(heap, -key)
                c = 0
            work[key] = c - q * cb
    degree = a.degree - b.degree if exact else a.degree
    return _unpacked(nvars, degree, out, scale * den_a, base)


# -- univariate views ----------------------------------------------------


def ladder(p: HomPoly, i: int) -> list:
    """Coefficients of x_i^t for t = 0..var_degree, as x_i-free HomPolys."""
    rows = [{} for _ in range(p.var_degree(i) + 1)]
    for e, c in p.terms.items():
        rows[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    return [_form(p.nvars, p.degree - t, row) for t, row in enumerate(rows)]


def strip_var(p: HomPoly, i: int) -> HomPoly:
    """Divide out the largest power of x_i that divides p."""
    k = p.min_var_degree(i)
    if k == 0:
        return p
    return _form(p.nvars, p.degree - k,
                 {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in p.terms.items()})


def _insert_var(p: HomPoly, i: int) -> HomPoly:
    """The same form with x_i put back at index i: the inverse of
    ``slice_poly`` on x_i-free forms."""
    return HomPoly(p.nvars + 1, p.degree,
                   {e[:i] + (0,) + e[i:]: c for e, c in p.terms.items()})


# -- gcd from the first non-vanishing subresultant --------------------------


def gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """Greatest common divisor, returned integer-primitive and sign-normalized.

    Binary forms take the dense univariate path (``_binary_gcd``).  Forms
    in more variables split each operand into its content with respect to
    a main variable x_i, the gcd of its x_i-coefficients, and its primitive
    part.  The contents are forms in one variable fewer, so for ternary
    forms their gcd takes the dense binary path.  By the fundamental
    theorem of subresultants (Collins 1967) the gcd of the primitive parts
    is the x_i-primitive part of the first of S_0, S_1, ...
    (``subresultant``) that does not vanish; when S_0 .. S_{m-1} all
    vanish, m being the smaller x_i-degree, the primitive part of that
    smaller operand divides the other and is their gcd.  So the cost is one
    subresultant per unit of the gcd's x_i-degree, plus one.  x_i is the
    variable whose degrees in the two operands have the least sum.  A
    variable that only one operand contains drops out: the gcd is free of
    it, so that operand is replaced by its content with respect to it.
    """
    a._check_compatible(b)
    if a.is_zero() and b.is_zero():
        return zero(a.nvars, 0)
    if a.is_zero():
        return canonical(b)
    if b.is_zero():
        return canonical(a)
    return _gcd(a, b)


def gcd_many(polys: Iterable[HomPoly]) -> HomPoly:
    polys = list(polys)
    if not polys:
        raise PolynomialError("gcd of an empty collection")
    g = polys[0]
    for q in polys[1:]:
        g = gcd(g, q)
        if g.is_constant() and not g.is_zero():
            break
    return canonical(g) if not g.is_zero() else g


def _gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """``gcd`` of two nonzero forms."""
    n = a.nvars
    if n == 2:
        return _binary_gcd(a, b)
    if a.is_constant() or b.is_constant():
        return constant(n, 1)
    for i in range(n):
        if not (a.var_degree(i) and b.var_degree(i)):
            return _insert_var(_gcd(_content(a, i), _content(b, i)), i)
    i = min(range(n), key=lambda v: a.var_degree(v) + b.var_degree(v))
    if a.var_degree(i) > b.var_degree(i):
        a, b = b, a
    ca, cb = _content(a, i), _content(b, i)
    g = _insert_var(_gcd(ca, cb), i)
    a, b = _divide_content(a, ca, i), _divide_content(b, cb, i)
    for j in range(a.var_degree(i)):
        s = subresultant(a, b, i, j)
        if s:
            return canonical(g * _divide_content(s, _content(s, i), i))
    return canonical(g * a)


def _content(p: HomPoly, i: int) -> HomPoly:
    """gcd of the x_i-coefficients of a nonzero form, without x_i."""
    rows = [slice_poly(r, i) for r in ladder(p, i) if r]
    g = rows[0]
    for r in rows[1:]:
        if g.is_constant():
            break
        g = _gcd(g, r)
    return g


def _divide_content(p: HomPoly, content: HomPoly, i: int) -> HomPoly:
    """p divided by its x_i-content, as ``_content`` returns it."""
    if content.is_constant():
        return p
    return exact_divide(p, _insert_var(content, i))


# -- square-free part -----------------------------------------------------


def squarefree_part(p: HomPoly) -> HomPoly:
    """Product of the distinct irreducible factors of ``p``, each once.

    Computed as p / gcd(p, dp/dx_0, ..., dp/dx_n): in characteristic zero
    the iterated gcd with all partials strips exactly one copy short of each
    repeated factor.  A binary form takes one univariate gcd instead:
    u / gcd(u, u') for u = p(x0, 1), times x1 when x1 divides p.
    """
    if p.is_zero():
        raise PolynomialError("square-free part of the zero polynomial")
    if p.is_constant():
        return constant(p.nvars, 1)
    if p.nvars == 2:
        u = _dehomogenize(p)
        sf = _dense_squarefree(u)[0] if len(u) > 1 else [1]
        # len(u) <= degree exactly when x1 divides p.
        return canonical(_binary_form(sf + [0] * (len(u) <= p.degree)))
    g = p
    for i in range(p.nvars):
        if p.var_degree(i) == 0:
            continue
        g = gcd(g, partial(p, i))
        if g.is_constant():
            break
    return canonical(exact_divide(p, g))


# -- fraction-free elimination ---------------------------------------------


def echelon(rows: list) -> tuple:
    """Fraction-free row echelon form of an integer matrix, in place; the
    one elimination of the package (Bareiss 1968).

    Column by column, the first row with a non-zero entry is swapped up to
    pivot, and each row below becomes (row * pivot - lead * pivot row) /
    previous pivot.  Returns ``(pivots, rows, sign)``: the pivot columns,
    the reduced rows, pivot rows first and the others zero, and the sign
    of the swaps.  For r up to the rank, row r's entry at column c is the
    minor on the rows now at 0..r and the columns pivots[:r] and c, so each
    division is exact; when r is the last row, the minor on the rows in
    their original order is ``sign`` times the entry.
    """
    columns = range(len(rows[0]) if rows else 0)
    pivots, sign, prev = [], 1, 1
    for col in columns:
        s = len(pivots)
        if s == len(rows):
            break
        r = next((r for r in range(s, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        if r != s:
            rows[s], rows[r] = rows[r], rows[s]
            sign = -sign
        top, rest = rows[s], columns[col + 1:]
        p = top[col]
        for row in rows[s + 1:]:
            lead = row[col]
            if lead:
                row[col] = 0
                for c in rest:
                    row[c] = (row[c] * p - lead * top[c]) // prev
            else:
                for c in rest:
                    row[c] = row[c] * p // prev
        prev = p
        pivots.append(col)
    return pivots, rows, sign


# -- resultants and subresultants by evaluation and interpolation -----------


def subresultant(a: HomPoly, b: HomPoly, i: int, j: int) -> HomPoly:
    """The j-th subresultant S_j of a and b with respect to x_i.

    The Sylvester matrix is built at the x_i-degrees da and db of a and b,
    which must be positive.  S_j is the sum over k = 0..j of x_i^k times
    the minor of the Sylvester matrix on its rows of x_i^t * a (t < db - j)
    and x_i^t * b (t < da - j), highest first, and on its first
    da + db - 2j - 1 columns, highest power first, then the column of
    x_i^k; 0 <= j < min(da, db), and S_0 is the resultant.

    The minors are integers once a and b are scaled to integers and every
    other variable is set to an integer, so they come from the last row of
    ``echelon`` at enough integer points, and each coefficient of x_i^k is
    interpolated from its values (Collins 1971).  The last other variable
    is set to 1 and the others to t, t^(D+1), t^((D+1)^2), ..., where D is
    the degree of S_j, so every exponent of the result reads off in base
    D + 1.  A vanishing S_j keeps D as its degree tag.
    """
    a._check_compatible(b)
    da, db = a.var_degree(i), b.var_degree(i)
    if da == 0 or db == 0:
        raise PolynomialError("resultant requires positive degree in x_i")
    if not 0 <= j < min(da, db):
        raise PolynomialError(f"subresultant index {j} outside 0..{min(da, db) - 1}")
    n = a.nvars
    size = da + db - 2 * j
    degree = (a.degree * (db - j) + b.degree * (da - j) - (da - j) * (db - j)
              - j * (size - 1))
    rest = [v for v in range(n) if v != i]
    free = rest[:-1]
    weights = [(degree + 1) ** t for t in range(len(free))]
    den_a, den_b = _denominator(a), _denominator(b)

    def rows_of(p: HomPoly, d: int, den: int) -> list:
        # Each x_i-coefficient of den * p as {exponent of t: integer}.
        rows = [{} for _ in range(d + 1)]
        for e, c in p.terms.items():
            k = sum(w * e[v] for w, v in zip(weights, free))
            row = rows[e[i]]
            row[k] = row.get(k, 0) + c.numerator * (den // c.denominator)
        return rows

    ra, rb = rows_of(a, da, den_a), rows_of(b, db, den_b)
    count = degree * weights[-1] + 1 if free else 1
    nodes = [(k + 1) // 2 * (-1) ** k for k in range(count)]  # 0, -1, 1, -2, ...
    # The matrix columns hold the powers of x_i from da + db - j - 1 down to
    # j + 1, then the powers 0..j, one for each minor.
    powers = list(range(da + db - j - 1, j, -1)) + list(range(j + 1))
    values = []  # values[t][k]: the coefficient of x_i^k at nodes[t]
    for t in nodes:
        ca = [sum(c * t ** k for k, c in row.items()) for row in ra]
        cb = [sum(c * t ** k for k, c in row.items()) for row in rb]
        matrix = [[coeffs[p - s] if 0 <= p - s <= d else 0 for p in powers]
                  for coeffs, d, shifts in ((ca, da, db - j), (cb, db, da - j))
                  for s in range(shifts - 1, -1, -1)]
        pivots, matrix, sign = echelon(matrix)
        # The minors are 0 when the first size - 1 columns are dependent.
        values.append([sign * x for x in matrix[-1][size - 1:]]
                      if pivots[:size - 1] == list(range(size - 1))
                      else [0] * (j + 1))
    scale = Fraction(1, den_a ** (db - j) * den_b ** (da - j))
    terms = {}
    for k in range(j + 1):
        for big, c in enumerate(_interpolate(nodes, [v[k] for v in values])):
            if c:
                e = [0] * n
                e[i] = k
                for w, v in zip(weights, free):
                    e[v] = big // w % (degree + 1)
                e[rest[-1]] = degree - k - sum(e[v] for v in free)
                terms[tuple(e)] = c * scale
    return HomPoly(n, degree, terms)


def resultant_wrt(a: HomPoly, b: HomPoly, i: int) -> HomPoly:
    """Sylvester resultant of a and b with respect to x_i: ``subresultant``
    with j = 0."""
    return subresultant(a, b, i, 0)


def _interpolate(nodes: list, values: list) -> list:
    """Coefficients, low degree first, of the integer polynomial of degree
    below len(nodes) that takes the given values at the integer nodes.

    Newton's divided differences of a polynomial with integer coefficients
    at integer nodes are integers, so every division is exact.
    """
    diffs = list(values)
    for level in range(1, len(nodes)):
        for t in range(len(nodes) - 1, level - 1, -1):
            diffs[t] = (diffs[t] - diffs[t - 1]) // (nodes[t] - nodes[t - level])
    out = [0] * len(nodes)
    # Horner's rule on the Newton form, highest difference first.
    for t in range(len(nodes) - 1, -1, -1):
        for s in range(len(nodes) - 1, 0, -1):
            out[s] = out[s - 1] - nodes[t] * out[s]
        out[0] = diffs[t] - nodes[t] * out[0]
    return out


# -- linear factor extraction ---------------------------------------------


def _binary_linear_factors(p: HomPoly) -> list:
    """All linear factors (a*x0 + b*x1) of a nonzero binary form; each pair
    is primitive with canonical sign.

    With the coordinate factors stripped, a linear factor is a rational
    root -b/a of the square-free part u of p(x0, 1), and with L the leading
    coefficient of u, N = L * (-b/a) is an integer with |N| at most
    |L| + max|u_i| (Cauchy's bound).  At a prime not dividing L at which
    every root of u is simple, Newton's iteration lifts each root mod p to
    the p-adic root above it; once the modulus m exceeds twice the bound,
    the residue of L times that root in (-m/2, m/2] is N itself.  Each
    candidate N / L is confirmed by exact integer evaluation, so the search
    finds rational roots of any size (Loos 1983).
    """
    coord_factors, q = _strip_variable_factors(p)
    # x0 is the pair (1, 0) and x1 the pair (0, 1): the exponent tuple.
    found = [next(iter(form.terms)) for form, _mult in coord_factors]
    if q.is_constant():
        return found
    u = _primitive(_dense_squarefree(_dehomogenize(q))[0])
    lead = u[-1]
    bound = 2 * (abs(lead) + max(abs(x) for x in u))
    du = _derivative(u)
    m, roots = _simple_roots_mod_prime(u, du)
    while m <= bound:
        m *= m
        roots = [(r - _eval_mod(u, r, m) * pow(_eval_mod(du, r, m), -1, m)) % m
                 for r in roots]
    for r in roots:
        n = lead * r % m
        if 2 * n > m:
            n -= m
        g = int_gcd(n, lead)
        num, den = n // g, lead // g
        if den < 0:
            num, den = -num, -den
        # den^d * u(num / den), by Horner's rule on integers.
        acc, dpow = 0, 1
        for x in reversed(u):
            acc = acc * num + x * dpow
            dpow *= den
        if acc == 0:
            found.append((den, -num))
    return found


def _eval_mod(u: list, r: int, m: int) -> int:
    acc = 0
    for x in reversed(u):
        acc = (acc * r + x) % m
    return acc


def _simple_roots_mod_prime(u: list, du: list):
    """The first prime p not dividing the leading coefficient of the
    square-free integer polynomial u at which every root of u mod p is
    simple, with those roots; du is the derivative of u.  Only the primes
    dividing the leading coefficient or the discriminant of u are passed
    over, so the search ends."""
    p = 1
    while True:
        p += 1
        if any(p % k == 0 for k in range(2, isqrt(p) + 1)) or u[-1] % p == 0:
            continue
        roots = [r for r in range(p) if _eval_mod(u, r, p) == 0]
        if all(_eval_mod(du, r, p) for r in roots):
            return p, roots


def _strip_variable_factors(q: HomPoly):
    """Divide out every coordinate factor, returning (factors, remainder)."""
    factors = []
    for i in range(q.nvars):
        m = q.min_var_degree(i)
        if m:
            factors.append((variable(q.nvars, i), m))
            q = strip_var(q, i)
    return factors, q


def linear_factors(p: HomPoly):
    """Split off the rational linear factors of a binary or ternary form.

    Returns ``(factors, residual)`` where ``factors`` is a list of
    ``(canonical linear form, multiplicity)`` pairs and ``residual`` is the
    exact cofactor, so that the product of all returned factor powers times
    the residual equals ``p``.  A binary form's factors are its rational
    roots, found by the p-adic search of ``_binary_linear_factors``; a
    ternary form's candidates are recombined from the linear factors of its
    three coordinate-plane restrictions.  Every candidate is confirmed by
    exact division, so a non-constant residual has no rational linear
    factor, but may still factor further.
    """
    if p.nvars not in (2, 3):
        raise PolynomialError("linear factor extraction supports 2 or 3 variables")
    if p.is_zero():
        raise PolynomialError("cannot factor the zero polynomial")
    found, q = _strip_variable_factors(p)
    cand_vectors = []
    if not q.is_constant():
        if p.nvars == 2:
            cand_vectors = _binary_linear_factors(q)
        else:
            cand_vectors = _ternary_candidates(q)
    for vec in cand_vectors:
        if q.is_constant():
            break
        if sum(1 for x in vec if x) < 2:
            continue  # coordinate factors were already stripped
        form = linear_form(vec)
        mult = 0
        while True:
            quotient = exact_divide(q, form)
            if quotient is None:
                break
            q = quotient
            mult += 1
        if mult:
            found.append((form, mult))

    found.sort(key=lambda fm: fm[0].sort_key())
    return found, q


def _ternary_candidates(q: HomPoly) -> list:
    """Candidate coefficient vectors of the linear factors of a ternary form
    with no coordinate factor, so that no coordinate-plane slice vanishes.

    A linear factor a*x + b*y + c*z of q restricts to a linear factor of
    each coordinate-plane slice of q, so recombining the complete binary
    factor lists of the three slices reaches every ternary factor.
    """
    out = set()
    fy = _binary_linear_factors(slice_poly(q, 1))  # pairs (a, c)
    for a1, b1 in _binary_linear_factors(slice_poly(q, 2)):  # pairs (a, b)
        for a2, c2 in fy:
            if a1 and a2:
                out.add(primitive_vector((a1 * a2, b1 * a2, c2 * a1)))
    for b3, c3 in _binary_linear_factors(slice_poly(q, 0)):
        if b3 and c3:
            out.add(primitive_vector((0, b3, c3)))
    return sorted(out)


def slice_poly(q: HomPoly, i: int) -> HomPoly:
    """Restriction of a form in three or more variables to the coordinate
    hyperplane x_i = 0, as a form in the remaining variables."""
    return HomPoly(q.nvars - 1, q.degree, {e[:i] + e[i + 1:]: c for e, c in q.terms.items() if e[i] == 0})


# -- square-free decomposition for binary forms ----------------------------


def binary_squarefree_decomposition(p: HomPoly):
    """Multiplicity structure of a binary form.

    Returns a list of ``(multiplicity, form)`` pairs whose product of
    ``form**multiplicity`` equals ``p`` up to a rational constant, each
    form canonical, square-free and coprime to the others.  Coordinate
    factors are peeled first, each its own piece.  The rest, u = p(x0, 1),
    takes Yun's algorithm (Yun 1976) on dense lists: from b = u / gcd(u, u')
    and c = u' / gcd(u, u'), of one degree with b', each step splits off
    a = gcd(b, c - b'), the factors of the next multiplicity, and goes on
    with b / a and (c - b') / a, all integer polynomials (Gauss's lemma).
    """
    if p.nvars != 2:
        raise PolynomialError("binary decomposition needs a binary form")
    if p.is_zero():
        raise PolynomialError("cannot decompose the zero polynomial")
    coord_factors, q = _strip_variable_factors(p)
    pieces = [(mult, form) for form, mult in coord_factors]
    if not q.is_constant():
        b, c = _dense_squarefree(_dehomogenize(q))
        mult = 0
        while len(b) > 1:
            mult += 1
            d = _trim([x - y for x, y in zip(c, _derivative(b))])
            a = _dense_gcd(b, d) if d else _primitive(b)
            if len(a) > 1:
                pieces.append((mult, canonical(_binary_form(a))))
            b, c = _dense_quotient(b, a), _dense_quotient(d, a)
    return sorted(pieces, key=lambda mp: (mp[0], mp[1].sort_key()))
