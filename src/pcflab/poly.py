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
composition, exact division, gcd by subresultant remainder sequences,
square-free parts, Sylvester resultants evaluated fraction-free, and rational
linear-factor extraction for binary and ternary forms.

Binary forms (``nvars == 2``) take a dense path in ``gcd``,
``squarefree_part`` and ``compose``.  A binary form of degree d is the list
of its d + 1 coefficients by the power of x0, scaled to integers; the list
with its zero top entries dropped is the dehomogenized polynomial p(x0, 1),
and the number dropped is the power of x1 dividing p.  Gcds and square-free
parts run a univariate primitive remainder sequence on those lists and put
the power of x1 back apart; compositions onto binary forms multiply the
lists by convolution and divide by one common denominator at the end.
Ternary forms keep the sparse recursive code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence


class PolynomialError(ValueError):
    """Contract violation in polynomial construction or arithmetic."""


Exponent = tuple  # tuple[int, ...], one entry per variable

# Display names for small variable counts; index by nvars.
_VAR_NAMES = {2: ("s", "t"), 3: ("x", "y", "z")}


def _names_for(nvars: int) -> Sequence[str]:
    return _VAR_NAMES.get(nvars, tuple(f"x{i}" for i in range(nvars)))


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

    def constant_value(self) -> Fraction:
        """The value of a degree-0 polynomial (0 for the zero polynomial)."""
        if self.degree != 0:
            raise PolynomialError(f"degree-{self.degree} form is not a constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def var_degree(self, i: int) -> int:
        """Largest exponent of variable ``i`` (0 for the zero polynomial)."""
        return max((e[i] for e in self.terms), default=0)

    def min_var_degree(self, i: int) -> int:
        """Smallest exponent of variable ``i`` across terms (0 if zero)."""
        return min((e[i] for e in self.terms), default=0)

    def variables_present(self) -> tuple:
        return tuple(i for i in range(self.nvars) if self.var_degree(i) > 0)

    def leading(self) -> tuple:
        """(exponent, coefficient) of the lexicographically greatest term."""
        if not self.terms:
            raise PolynomialError("the zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic ----------------------------------------------------

    def __neg__(self) -> "HomPoly":
        return HomPoly(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

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
        return HomPoly(self.nvars, self.degree, acc)

    def __sub__(self, other: "HomPoly") -> "HomPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = acc.get(e, 0) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        return HomPoly(self.nvars, self.degree + other.degree, acc)

    __rmul__ = __mul__

    def scale(self, c) -> "HomPoly":
        c = Fraction(c)
        if c == 0:
            return HomPoly(self.nvars, self.degree, {})
        return HomPoly(self.nvars, self.degree, {e: k * c for e, k in self.terms.items()})

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


def format_poly(p: HomPoly, names: Optional[Sequence[str]] = None) -> str:
    if p.is_zero():
        return "0"
    names = names or _names_for(p.nvars)
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
    den_lcm = _denominator(p)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = int_gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, num_gcd)
    return p.scale(scale)


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
    deg = max(p.degree - 1, 0)
    acc = {}
    for e, c in p.terms.items():
        k = e[i]
        if k == 0:
            continue
        e2 = list(e)
        e2[i] = k - 1
        acc[tuple(e2)] = c * k
    return HomPoly(p.nvars, deg, acc)


def compose(p: HomPoly, subs: Sequence[HomPoly]) -> HomPoly:
    """Substitute ``subs[i]`` for variable ``i`` of ``p``.

    All substituted forms must share a variable count and a common degree
    ``e``; the result is homogeneous of degree ``p.degree * e``.
    """
    if len(subs) != p.nvars:
        raise PolynomialError(
            f"{p.nvars} substitutions required, got {len(subs)}"
        )
    n = subs[0].nvars
    e = subs[0].degree
    for q in subs:
        if q.nvars != n:
            raise PolynomialError("substituted forms disagree on variable count")
        if q.degree != e:
            raise PolynomialError(
                f"substituted forms disagree on degree: {q.degree} vs {e}"
            )
    out_deg = p.degree * e
    # Cache powers of each substituted form up to the largest exponent used.
    max_exp = [0] * p.nvars
    for exps in p.terms:
        for i, k in enumerate(exps):
            if k > max_exp[i]:
                max_exp[i] = k
    if n == 2:
        return _compose_binary(p, subs, max_exp)
    powers = []
    for i, q in enumerate(subs):
        row = [constant(n, 1)]
        for _ in range(max_exp[i]):
            row.append(row[-1] * q)
        powers.append(row)
    acc = {}
    for exps, c in p.terms.items():
        term = constant(n, c)
        for i, k in enumerate(exps):
            if k:
                term = term * powers[i][k]
        for te, tc in term.terms.items():
            s = acc.get(te, 0) + tc
            if s:
                acc[te] = s
            else:
                acc.pop(te, None)
    return HomPoly(n, out_deg, acc)


# -- dense binary forms ----------------------------------------------------
#
# The list c of a binary form of degree d holds the coefficient of
# x0^i * x1^(d - i) at index i.  Dropping its zero top entries leaves the
# dehomogenized polynomial p(x0, 1), low degree first; the number dropped
# is the power of x1 that divides the form.


def _compose_binary(p: HomPoly, subs: Sequence[HomPoly], max_exp: list) -> HomPoly:
    """``compose`` onto binary forms, on dense integer lists.

    With D the common denominator of the substituted forms and P that of p,
    p(q) = (P*p)(D*q) / (P * D^deg p) because p is homogeneous, so all the
    products are of integers and only the final coefficients are fractions.
    """
    den = _denominator(*subs)
    powers = []
    for i, q in enumerate(subs):
        row = [[1]]
        if max_exp[i]:
            row.append(_binary_ints(q, den))
        for _ in range(1, max_exp[i]):
            row.append(_convolve(row[-1], row[1]))
        powers.append(row)
    pden = _denominator(p)
    out_deg = p.degree * subs[0].degree
    acc = [0] * (out_deg + 1)
    for exps, c in p.terms.items():
        term = [c.numerator * (pden // c.denominator)]
        for i, k in enumerate(exps):
            if k:
                term = _convolve(term, powers[i][k])
        for j, x in enumerate(term):
            acc[j] += x
    return _binary_form(acc, pden * den ** p.degree)


def _binary_ints(p: HomPoly, den: int) -> list:
    """The dense list of ``den * p``, which must have integer coefficients."""
    out = [0] * (p.degree + 1)
    for (i, _), c in p.terms.items():
        out[i] = c.numerator * (den // c.denominator)
    return out


def _binary_form(c: list, den: int = 1) -> HomPoly:
    """The binary form of degree len(c) - 1 with coefficients c[i] / den."""
    d = len(c) - 1
    return HomPoly(2, d, {(i, d - i): Fraction(x, den) for i, x in enumerate(c) if x})


def _trim(c: list) -> list:
    """Drop the zero top entries."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    return c[:end]


def _dehomogenize(p: HomPoly) -> list:
    """p(x0, 1) of a nonzero binary form, scaled to integers."""
    return _trim(_binary_ints(p, _denominator(p)))


def _convolve(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


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


def _binary_gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """gcd of two nonzero binary forms: the gcd of their dehomogenized
    polynomials times x1^min(v_a, v_b), v being the power of x1 in each."""
    ua, ub = _dehomogenize(a), _dehomogenize(b)
    v = min(a.degree + 1 - len(ua), b.degree + 1 - len(ub))
    return canonical(_binary_form(_dense_gcd(ua, ub) + [0] * v))


# -- exact division ------------------------------------------------------


def exact_divide(a: HomPoly, b: HomPoly) -> Optional[HomPoly]:
    """Return ``a / b`` when the division is exact, else None.

    Uses leading-term reduction in lexicographic order.  Because leading
    terms are multiplicative, the reduction either terminates with remainder
    zero (giving the quotient) or proves non-divisibility at the first
    leading term that fails to divide.
    """
    a._check_compatible(b)
    if b.is_zero():
        raise PolynomialError("division by the zero polynomial")
    if a.is_zero():
        return zero(a.nvars, max(a.degree - b.degree, 0))
    if a.degree < b.degree:
        return None
    lead_b, coeff_b = b.leading()
    quot = {}
    rem = dict(a.terms)
    qdeg = a.degree - b.degree
    while rem:
        lead_r = max(rem)
        te = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(x < 0 for x in te):
            return None
        tc = rem[lead_r] / coeff_b
        quot[te] = tc
        for e, c in b.terms.items():
            e2 = tuple(x + y for x, y in zip(te, e))
            s = rem.get(e2, 0) - tc * c
            if s:
                rem[e2] = s
            else:
                rem.pop(e2, None)
    return HomPoly(a.nvars, qdeg, quot)


# -- univariate views ----------------------------------------------------


def ladder(p: HomPoly, i: int) -> list:
    """Coefficients of x_i^t for t = 0..var_degree, as x_i-free HomPolys."""
    top = p.var_degree(i)
    rows = [dict() for _ in range(top + 1)]
    for e, c in p.terms.items():
        k = e[i]
        e2 = list(e)
        e2[i] = 0
        rows[k][tuple(e2)] = c
    return [
        HomPoly(p.nvars, p.degree - t if rows[t] else max(p.degree - t, 0), rows[t])
        for t in range(top + 1)
    ]


def _leading_coeff(p: HomPoly, i: int) -> HomPoly:
    """Coefficient of the highest power of x_i (an x_i-free HomPoly)."""
    top = p.var_degree(i)
    acc = {}
    for e, c in p.terms.items():
        if e[i] == top:
            e2 = list(e)
            e2[i] = 0
            acc[tuple(e2)] = c
    return HomPoly(p.nvars, p.degree - top, acc)


def shift_var(p: HomPoly, i: int, k: int) -> HomPoly:
    """Multiply by x_i^k (k may be negative when every term allows it)."""
    if k == 0:
        return p
    acc = {}
    for e, c in p.terms.items():
        if e[i] + k < 0:
            raise PolynomialError("negative exponent in shift")
        e2 = list(e)
        e2[i] = e[i] + k
        acc[tuple(e2)] = c
    return HomPoly(p.nvars, p.degree + k if acc else max(p.degree + k, 0), acc)


def strip_var(p: HomPoly, i: int) -> HomPoly:
    """Divide out the largest power of x_i that divides p."""
    return shift_var(p, i, -p.min_var_degree(i))


def _prem(f: HomPoly, g: HomPoly, i: int) -> HomPoly:
    """Pseudo-remainder of f by g with respect to x_i.

    Satisfies lc(g)^(df-dg+1) * f = q*g + prem for the x_i-degrees df >= dg.
    """
    df, dg = f.var_degree(i), g.var_degree(i)
    if dg == 0:
        raise PolynomialError("pseudo-division by an x_i-free polynomial")
    lg = _leading_coeff(g, i)
    r = f
    e = df - dg + 1
    while not r.is_zero() and r.var_degree(i) >= dg:
        dr = r.var_degree(i)
        t = shift_var(_leading_coeff(r, i), i, dr - dg)
        r = lg * r - t * g
        e -= 1
    for _ in range(e):
        r = lg * r
    return r


# -- gcd by subresultant remainder sequences -------------------------------


def gcd(a: HomPoly, b: HomPoly) -> HomPoly:
    """Greatest common divisor, returned integer-primitive and sign-normalized.

    Binary forms take the dense univariate path (``_binary_gcd``).  For
    more variables the computation is the classical one for multivariate
    polynomial rings: pick a main variable, split each input into content
    and primitive part with respect to it (the content being a gcd of
    lower-variable coefficients, handled recursively), and run a
    subresultant pseudo-remainder sequence on the primitive parts.  The
    subresultant scaling keeps every division exact, avoiding both fraction
    buildup and the coefficient explosion of naive pseudo-remainders.
    """
    a._check_compatible(b)
    if a.is_zero() and b.is_zero():
        return zero(a.nvars, 0)
    if a.is_zero():
        return canonical(b)
    if b.is_zero():
        return canonical(a)
    if a.nvars == 2:
        return _binary_gcd(a, b)
    return canonical(_gcd_int(int_primitive(a), int_primitive(b)))


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


def _gcd_int(a: HomPoly, b: HomPoly) -> HomPoly:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.is_constant() or b.is_constant():
        ca = _integer_content(a)
        cb = _integer_content(b)
        return constant(a.nvars, int_gcd(ca, cb))
    # Main variable: the highest index carrying positive degree in either.
    main = None
    for i in reversed(range(a.nvars)):
        if a.var_degree(i) > 0 or b.var_degree(i) > 0:
            main = i
            break
    if a.var_degree(main) == 0:
        return _gcd_int(a, _content_wrt(b, main))
    if b.var_degree(main) == 0:
        return _gcd_int(_content_wrt(a, main), b)
    cont_a = _content_wrt(a, main)
    cont_b = _content_wrt(b, main)
    cont = _gcd_int(cont_a, cont_b)
    pa = exact_divide(a, cont_a)
    pb = exact_divide(b, cont_b)
    pp = _subresultant_gcd(pa, pb, main)
    return cont * pp


def _integer_content(p: HomPoly) -> int:
    g = 0
    for c in p.terms.values():
        g = int_gcd(g, abs(c.numerator))
    return g


def _content_wrt(p: HomPoly, i: int) -> HomPoly:
    """Gcd of the x_i-ladder coefficients (an x_i-free polynomial)."""
    rows = ladder(p, i)
    g = None
    for r in rows:
        if r.is_zero():
            continue
        g = r if g is None else _gcd_int(g, r)
        if g.is_constant():
            if _integer_content(g) == 1:
                break
    return g


def _subresultant_gcd(f: HomPoly, g: HomPoly, i: int) -> HomPoly:
    """Gcd of two x_i-primitive polynomials via the subresultant sequence."""
    if f.var_degree(i) < g.var_degree(i):
        f, g = g, f
    one = constant(f.nvars, 1)
    gg, hh = one, one
    while True:
        delta = f.var_degree(i) - g.var_degree(i)
        r = _prem(f, g, i)
        if r.is_zero():
            break
        if r.var_degree(i) == 0:
            return one
        denom = gg * (hh ** delta)
        f, g = g, exact_divide(r, denom)
        gg = _leading_coeff(f, i)
        if delta >= 1:
            hh = exact_divide(gg ** delta, hh ** (delta - 1))
    cont = _content_wrt(g, i)
    return exact_divide(g, cont)


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
        sf = [1]
        if len(u) > 1:
            sf = _dense_quotient(u, _dense_gcd(u, _derivative(u)))
        # len(u) <= degree exactly when x1 divides p.
        return canonical(_binary_form(sf + [0] * (len(u) <= p.degree)))
    g = p
    for i in range(p.nvars):
        if p.var_degree(i) == 0:
            continue
        g = gcd(g, partial(p, i))
        if g.is_constant():
            break
    sf = exact_divide(p, g)
    return canonical(sf)


# -- fraction-free determinants and resultants -----------------------------


def _det_graded(cells: list, tags: list, nvars: int) -> HomPoly:
    """Determinant of a graded polynomial matrix by the Bareiss scheme.

    ``cells[r][c]`` is a HomPoly or None (a structural zero); ``tags[r][c]``
    is the degree every nonzero occupant of that cell must have.  Gradedness
    (tags of the form row-weight + column-weight) guarantees each Bareiss
    division is exact and each intermediate entry stays homogeneous.
    """
    n = len(cells)
    if n == 0:
        return constant(nvars, 1)
    cells = [row[:] for row in cells]
    tags = [row[:] for row in tags]
    sign = 1
    prev = None  # previous pivot (None = 1)
    prev_tag = 0
    for k in range(n - 1):
        pivot_row = None
        for r in range(k, n):
            if cells[r][k] is not None and not cells[r][k].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            # A zero column: the determinant vanishes.  Its grade is the sum
            # of the diagonal tags of the untouched principal minor.
            t = sum(tags[j][j] for j in range(k, n)) - (n - 1 - k) * prev_tag
            return zero(nvars, max(t, 0))
        if pivot_row != k:
            cells[k], cells[pivot_row] = cells[pivot_row], cells[k]
            tags[k], tags[pivot_row] = tags[pivot_row], tags[k]
            sign = -sign
        piv = cells[k][k]
        piv_tag = tags[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                left = cells[r][c] * piv if cells[r][c] is not None else None
                lo = cells[r][k]
                hi = cells[k][c]
                right = lo * hi if (lo is not None and hi is not None) else None
                new_tag = tags[r][c] + piv_tag - prev_tag
                if left is None and right is None:
                    val = None
                else:
                    if left is None:
                        left = zero(nvars, tags[r][c] + piv_tag)
                    if right is None:
                        right = zero(nvars, tags[r][k] + tags[k][c])
                    num = left - right
                    if prev is None:
                        val = num
                    else:
                        val = exact_divide(num, prev)
                        if val is None:
                            raise PolynomialError("inexact Bareiss division")
                    if val.is_zero():
                        val = None
                cells[r][c] = val
                tags[r][c] = new_tag
            cells[r][k] = None
        prev = piv
        prev_tag = piv_tag
    last = cells[n - 1][n - 1]
    if last is None or last.is_zero():
        return zero(nvars, max(tags[n - 1][n - 1], 0))
    return last.scale(sign)


def _sylvester(a: HomPoly, b: HomPoly, i: int, da: int, db: int):
    """Sylvester matrix of a and b in x_i at formal x_i-degrees (da, db)."""
    la = ladder(a, i)
    lb = ladder(b, i)
    la += [None] * (da + 1 - len(la))
    lb += [None] * (db + 1 - len(lb))
    n = da + db
    cells = [[None] * n for _ in range(n)]
    tags = [[0] * n for _ in range(n)]
    for r in range(db):  # rows carrying shifts of a
        for c in range(n):
            t = da + r - c
            tags[r][c] = a.degree - da - r + c
            if 0 <= t <= da and la[t] is not None and not la[t].is_zero():
                cells[r][c] = la[t]
    for s in range(da):  # rows carrying shifts of b
        r = db + s
        for c in range(n):
            t = db + s - c
            tags[r][c] = b.degree - db - s + c
            if 0 <= t <= db and lb[t] is not None and not lb[t].is_zero():
                cells[r][c] = lb[t]
    return cells, tags


def resultant_wrt(a: HomPoly, b: HomPoly, i: int, da: Optional[int] = None,
                  db: Optional[int] = None) -> HomPoly:
    """Sylvester resultant of a and b with respect to x_i.

    Give both formal degrees or neither.  Without them the matrix is built
    at the actual x_i-degrees, which must be positive.  Formal degrees
    (da, db) pad it with vanishing top coefficients: the actual x_i-degrees
    may sit below them, never above.  Padded to the total degrees, the
    resultant vanishes at every common projective zero even where an
    x_i-degree drops; for elimination the right formal degree is a form's
    degree in the block of variables being specialized.  The determinant is
    evaluated fraction-free, so the result is exact and homogeneous in the
    remaining variables.
    """
    a._check_compatible(b)
    if da is None and db is None:
        da, db = a.var_degree(i), b.var_degree(i)
        if da == 0 or db == 0:
            raise PolynomialError("resultant requires positive degree in x_i")
    elif da < 1 or db < 1:
        raise PolynomialError("formal resultant degrees must be positive")
    elif a.var_degree(i) > da or b.var_degree(i) > db:
        raise PolynomialError("actual x_i-degree exceeds the formal degree")
    cells, tags = _sylvester(a, b, i, da, db)
    return _det_graded(cells, tags, a.nvars)


def det(matrix: Sequence[Sequence[HomPoly]]) -> HomPoly:
    """Determinant of a small square polynomial matrix by cofactor expansion.

    All nonzero Leibniz terms of a matrix of forms built from one map share
    a total degree, so the expansion stays homogeneous term by term.

    Jacobians keep it: the Bareiss ``_det_graded`` of the resultants took
    0.17 s against 0.09 s on the Jacobian of f^3 for fs-1992-a, and 0.34 s
    against 0.15 s for its dense conjugate (Python 3.11, 2-vCPU Xeon).
    """
    n = len(matrix)
    if n == 0:
        raise PolynomialError("empty matrix")
    nvars = matrix[0][0].nvars
    total = sum(matrix[i][i].degree for i in range(n))

    def expand(rows: tuple, col: int):
        if not rows:
            return constant(nvars, 1)
        acc = None
        for idx, r in enumerate(rows):
            entry = matrix[r][col]
            if entry.is_zero():
                continue
            sub = expand(rows[:idx] + rows[idx + 1 :], col + 1)
            piece = entry * sub
            if idx % 2:
                piece = -piece
            acc = piece if acc is None else acc + piece
        if acc is None:
            deg = sum(matrix[r][r].degree for r in rows) if rows else 0
            return zero(nvars, max(deg, 0))
        return acc

    result = expand(tuple(range(n)), 0)
    if result.is_zero():
        return zero(nvars, max(total, 0))
    return result


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
    u = _dehomogenize(q)
    u = _primitive(_dense_quotient(u, _dense_gcd(u, _derivative(u))))
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


def _normalize_candidate(vec: tuple) -> tuple:
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive."""
    g = int_gcd(*vec)
    if next(v for v in vec if v) < 0:
        g = -g
    return tuple(v // g for v in vec)


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
                out.add(_normalize_candidate((a1 * a2, b1 * a2, c2 * a1)))
    for b3, c3 in _binary_linear_factors(slice_poly(q, 0)):
        if b3 and c3:
            out.add(_normalize_candidate((0, b3, c3)))
    return sorted(out)


def slice_poly(q: HomPoly, i: int) -> HomPoly:
    """Restriction of a ternary form to the coordinate plane x_i = 0,
    as a binary form in the remaining two variables."""
    keep = [j for j in range(q.nvars) if j != i]
    acc = {}
    for e, c in q.terms.items():
        if e[i] == 0:
            acc[tuple(e[j] for j in keep)] = c
    if not acc:
        return zero(2, q.degree)
    return HomPoly(2, q.degree, acc)


# -- square-free decomposition for binary forms ----------------------------


def binary_squarefree_decomposition(p: HomPoly):
    """Multiplicity structure of a binary form.

    Returns a list of ``(multiplicity, form)`` pairs whose product of
    ``form**multiplicity`` equals ``p`` up to a rational constant, with each
    form square-free and pairwise coprime.  Coordinate factors are peeled
    first; the rest follows from iterated gcds with the x0-derivative.
    """
    if p.nvars != 2:
        raise PolynomialError("binary decomposition needs a binary form")
    if p.is_zero():
        raise PolynomialError("cannot decompose the zero polynomial")
    pieces = []
    coord_factors, q = _strip_variable_factors(p)
    for form, mult in coord_factors:
        pieces.append((mult, form))
    q = canonical(q) if not q.is_constant() else q
    if q.is_constant():
        return sorted(pieces, key=lambda mp: (mp[0], mp[1].sort_key()))
    # t_j = gcd(q, q', q'', ...) peels one copy of every repeated factor.
    chain = [q]
    while not chain[-1].is_constant():
        nxt = gcd(chain[-1], partial(chain[-1], 0))
        chain.append(nxt)
        if nxt.is_constant():
            break
    # s_j = t_{j-1}/t_j is the product of factors with multiplicity >= j.
    s = []
    for j in range(1, len(chain)):
        s.append(canonical(exact_divide(chain[j - 1], chain[j])))
    s.append(constant(2, 1))
    for j in range(len(s) - 1):
        piece = exact_divide(s[j], s[j + 1])
        piece = canonical(piece)
        if not piece.is_constant():
            pieces.append((j + 1, piece))
    return sorted(pieces, key=lambda mp: (mp[0], mp[1].sort_key()))
