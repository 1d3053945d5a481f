"""High-precision numerics on top of the exact polynomial layer.

Everything here that is not exact is explicit about its working precision,
given in bits.  Exact rational data stays exact until the moment a value is
converted to fixed point, by :func:`normalize_point` or :class:`MpForm`, or
rounded to an mpc by :func:`mpc_from`, so callers control all rounding.
Root finding takes exact integer coefficients and returns fixed-point roots.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath.libmp import (from_int, from_man_exp, fzero, mpf_div, mpf_shift, mpf_sqrt,
                          round_nearest)

from . import poly
from .poly import HomPoly

DEFAULT_PRECISION = 256  # bits
NEWTON_STEPS = 200  # Newton refinement gives up after this many steps
GUARD_BITS = 64  # fixed-point width beyond the precision (and, in root finding, the ranges)


class NumericalError(RuntimeError):
    """A numeric routine could not reach its accuracy contract."""


class IndeterminatePointError(NumericalError):
    """Every coordinate of an evaluated point fell below the zero floor."""


def resolve_precision(precision=None) -> int:
    """Working precision in bits: the explicit argument, else the default."""
    p = DEFAULT_PRECISION if precision is None else int(precision)
    if p < 24:
        raise NumericalError(f"precision {p} bits is too low to be meaningful")
    return p


@dataclass(frozen=True)
class Tolerances:
    """Every tolerance of the numeric verdicts that depends on the precision p.

    Built only by :func:`tolerances`, which gives each value at the
    precision it is compared at; report ``bounds`` serialize this object.
    """

    dedup: mpmath.mpf  # 10^-(p//8): points, moduli and periods this close agree
    verify: mpmath.mpf  # 10^-(p//16): residuals below this verify a solution
    zero_floor: mpmath.mpf  # 2^-(p-8): below it a point is indeterminate
    refine_target: mpmath.mpf  # 10^-(0.18p): Newton stops at a backward error below it
    formulas: tuple = field(repr=False, compare=False)  # (field, "base^-exponent")

    def serialize(self) -> dict:
        """Each tolerance as its formula, keyed by field name, for reports."""
        return dict(self.formulas)


def _power_tol(base: int, exponent, precision: int):
    """base^-exponent rounded at precision, with its formula string."""
    with mpmath.workprec(precision):
        return mpmath.mpf(base) ** -exponent, f"{base}^-{exponent:g}"


@functools.lru_cache(maxsize=None)
def tolerances(precision: int) -> Tolerances:
    """The tolerances of a run at ``precision`` bits."""
    p = precision
    built = {
        "dedup": _power_tol(10, p // 8, p),
        "verify": _power_tol(10, p // 16, p),
        "zero_floor": _power_tol(2, p - 8, p),
        "refine_target": _power_tol(10, p * 0.18, p),
    }
    return Tolerances(formulas=tuple((k, text) for k, (_v, text) in built.items()),
                      **{k: value for k, (value, _t) in built.items()})


def mpc_from(value) -> mpmath.mpc:
    """Convert int/Fraction/float/complex/mp values to mpc at current precision."""
    if isinstance(value, Fraction):
        return mpmath.mpc(mpmath.mpf(value.numerator) / value.denominator)
    return mpmath.mpc(value)


# -- fixed point: a complex number is a Gaussian integer scaled by 2^W, W = p + GUARD_BITS


def _part_mag(x):
    """The least e with |x| < 2^e for a nonzero libmp mpf or Fraction x, else None."""
    if isinstance(x, tuple):
        return x[2] + x[3] if x[1] else None
    n, d = abs(x.numerator), x.denominator
    k = n.bit_length() - d.bit_length()  # |x| lies in (2^(k-1), 2^(k+1))
    return (k + (n >= d << k if k >= 0 else n << -k >= d)) if n else None


def _part_fixed(x, k: int) -> int:
    """A libmp mpf or Fraction (or 0) x times 2^k, truncated toward zero."""
    if not isinstance(x, tuple):
        return int(x * (1 << k) if k >= 0 else x / (1 << -k))
    sign, man, exp, _bc = x
    v = man << exp + k if exp + k >= 0 else man >> -exp - k
    return -v if sign else v


def _gaussian(values, width: int):
    """values as Gaussian integers scaled by 2^(width - e), truncated toward
    zero, and e, the least integer above the log2 of every part (0 for a
    zero vector).  Fractions and mpmath values are taken exactly."""
    parts = [(Fraction(v), 0) if isinstance(v, (int, Fraction)) else getattr(v, "_mpc_", None)
             or ((v._mpf_, fzero) if hasattr(v, "_mpf_") else mpmath.mpc(v)._mpc_) for v in values]
    e = max((m for pair in parts for m in map(_part_mag, pair) if m is not None), default=0)
    return [tuple(_part_fixed(x, width - e) for x in pair) for pair in parts], e


def gauss_quotient(a: tuple, b: tuple, width: int) -> tuple:
    """a / b scaled by 2^width and floored, for Gaussian integers at one scale."""
    m = b[0] * b[0] + b[1] * b[1]
    return (((a[0] * b[0] + a[1] * b[1]) << width) // m,
            ((a[1] * b[0] - a[0] * b[1]) << width) // m)


def gauss_mul(a: tuple, b: tuple) -> tuple:
    """The exact product of two Gaussian integers."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cross(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """a b - c d for Gaussian integers, exactly."""
    return tuple(x - y for x, y in zip(gauss_mul(a, b), gauss_mul(c, d)))


class MpForm:
    """The form ``form`` compiled for evaluation at the precision p it is built
    under, which every call must also run under.

    Its coefficients are integers ``n_a`` over one denominator ``den``.
    :meth:`fixed` builds the monomials of a point given as Gaussian integers
    scaled by 2^W by multiply and shift, and sums n_a z^a exactly.  A call
    scales any coordinates by one power of two 2^-e that brings every part
    below 1 (the value comes back exactly as 2^(d e)) and rounds the sum
    once to p bits.  Each truncation is below one unit in each part, so the
    call is within 3d 2^-W sum_a |c_a| (2 max_i |z_i|)^d + 2^-p |F(z)|.
    """

    __slots__ = ("form", "den", "_width", "_tops", "_terms")

    def __init__(self, p: HomPoly):
        self.form, self._width = p, mpmath.mp.prec + GUARD_BITS
        self._tops = [p.var_degree(i) for i in range(p.nvars)]
        self._over(math.lcm(*(c.denominator for c in p.terms.values())))

    def _over(self, den: int) -> "MpForm":
        """Put the numerators over den, a multiple of the form's denominator."""
        offset = [1 + sum(self._tops[:i]) for i in range(self.form.nvars)]
        # powers are stored flat, 1 first and x_i^k at offset[i] + k - 1
        self.den, self._terms = den, [
            (int(c * den), first, tuple(rest)) for e, c in self.form.terms.items()
            for first, *rest in [[offset[i] + k - 1 for i, k in enumerate(e) if k] or [0]]]
        return self

    def fixed(self, z, bound: bool = False):
        """The exact sum of n_a z^a as a Gaussian integer, for z scaled by 2^W.

        With ``bound``, also sum_a |n_a| (|Re z^a| + |Im z^a|), at most
        sqrt(2) times the sum of |n_a| |z^a| at the same scale.
        """
        w = self._width
        powers = [(1 << w, 0)]
        for (x, y), top in zip(z, self._tops):
            if top:
                pr, pi = x, y
                powers.append((x, y))
                for _ in range(1, top):
                    pr, pi = (pr * x - pi * y) >> w, (pr * y + pi * x) >> w
                    powers.append((pr, pi))
        sr = si = size = 0  # the sum and the bound
        for n, first, rest in self._terms:
            tr, ti = powers[first]
            for j in rest:
                ur, ui = powers[j]
                tr, ti = (tr * ur - ti * ui) >> w, (tr * ui + ti * ur) >> w
            sr, si = sr + n * tr, si + n * ti
            if bound:
                size += abs(n) * (abs(tr) + abs(ti))
        return ((sr, si), size) if bound else (sr, si)

    def __call__(self, coords) -> mpmath.mpc:
        w = self._width
        z, e = (coords.fixed, 0) if isinstance(coords, Point) and coords.width == w else _gaussian(coords, w)
        prec, rnd = mpmath.mp._prec_rounding
        shift = self.form.degree * e - w
        return mpmath.mp.make_mpc(tuple(
            from_man_exp(s, shift, prec, rnd) if self.den == 1
            else mpf_div(from_man_exp(s, shift), from_int(self.den), prec, rnd)
            for s in self.fixed(z)))


def compile_forms(forms) -> list:
    """MpForms of forms over their least common denominator, so that their
    fixed values share one scale."""
    den = math.lcm(*(c.denominator for f in forms for c in f.terms.values()))
    return [MpForm(f)._over(den) for f in forms]


class Point(Sequence):
    """A normalized projective point from :func:`normalize_point`.

    ``fixed`` holds its coordinates as Gaussian integers scaled by 2^width,
    the one at ``pivot`` exactly 2^width.  ``parts`` holds them as pairs of
    libmp mpf, each rounded to nearest at width - GUARD_BITS bits, and as a
    sequence it holds them as mpc built from those parts; both are made at
    the first use.
    """

    __slots__ = ("fixed", "pivot", "width", "_parts", "_coords")

    def __init__(self, fixed: tuple, pivot: int, width: int):
        self.fixed, self.pivot, self.width = fixed, pivot, width
        self._parts = self._coords = None

    @property
    def parts(self) -> tuple:
        if self._parts is None:
            prec = self.width - GUARD_BITS
            self._parts = tuple(tuple(from_man_exp(x, -self.width, prec, round_nearest) for x in v)
                                for v in self.fixed)
        return self._parts

    def __len__(self):
        return len(self.fixed)

    def __getitem__(self, i):
        if self._coords is None:
            self._coords = tuple(map(mpmath.mp.make_mpc, self.parts))
        return self._coords[i]


def _normal(ints, width: int, floor: int) -> Point:
    """The Point of Gaussian integers at any one scale.  The pivot is the
    first coordinate whose exact |z|^2 is within a factor 1 - 2^-p of the
    largest, so rounding noise cannot move it off the first of equal
    moduli, such as roots of unity; every other coordinate is z / pivot
    scaled by 2^width and floored.  Raises IndeterminatePointError when the
    largest |z|^2 is below ``floor``."""
    sizes = [x * x + y * y for x, y in ints]
    top = max(sizes)
    if top < floor:
        raise IndeterminatePointError(
            f"all coordinates below {tolerances(width - GUARD_BITS).serialize()['zero_floor']}"
            if floor > 1 else "projective point of a zero vector")
    best = next(i for i, s in enumerate(sizes) if s >= top - (top >> width - GUARD_BITS))
    return Point(tuple((1 << width, 0) if i == best else gauss_quotient(v, ints[best], width)
                       for i, v in enumerate(ints)), best, width)


def normalize_point(coords):
    """Scale a projective representative so its max-modulus coordinate is 1,
    in fixed point (:func:`_gaussian`, :func:`_normal`).  Returns a
    :class:`Point` (a Point as it is) and its pivot.  Raises
    IndeterminatePointError when every coordinate sits below the zero floor."""
    if isinstance(coords, Point):
        return coords, coords.pivot
    ints, e = _gaussian(coords, mpmath.mp.prec + GUARD_BITS)
    # |z| < 2^-(p-8) where the ints, scaled by 2^(p+GUARD_BITS-e), are below 2^(GUARD_BITS+8-e)
    pt = _normal(ints, mpmath.mp.prec + GUARD_BITS, 1 << max(0, 2 * (GUARD_BITS + 8 - e)))
    return pt, pt.pivot


def map_point(forms, pt: Point):
    """The values of forms compiled over one denominator (:func:`compile_forms`)
    at a Point, as Gaussian integers at one scale, and their normalized Point."""
    vals = [f.fixed(pt.fixed) for f in forms]
    return vals, _normal(vals, pt.width, (forms[0].den << GUARD_BITS + 8) ** 2)


def _unit(pt, width: int) -> tuple:
    """pt normalized (a Point of this width as it is), as Gaussian integers
    scaled by 2^width; only the zero vector raises."""
    return (pt.fixed if isinstance(pt, Point) and pt.width == width
            else _normal(_gaussian(pt, width)[0], width, 1).fixed)


def _cross_squares(a, b):
    """|a_i b_j - a_j b_i|^2 over i < j, exactly, one at a time."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            (ar, ai), (br, bi), (cr, ci), (dr, di) = a[i], b[j], a[j], b[i]
            xr = ar * br - ai * bi - cr * dr + ci * di
            xi = ar * bi + ai * br - cr * di - ci * dr
            yield xr * xr + xi * xi


def proj_distance(p, q) -> mpmath.mpf:
    """Projective distance: max cross-difference of normalized representatives,
    exact on their fixed-point coordinates and rounded once.  Zero exactly
    when the two points agree; symmetric; insensitive to scaling."""
    prec, rnd = mpmath.mp._prec_rounding
    width = prec + GUARD_BITS
    top = max(_cross_squares(_unit(p, width), _unit(q, width)), default=0)
    return mpmath.mp.make_mpf(mpf_shift(mpf_sqrt(from_int(top), prec, rnd), -2 * width))


class PointSet:
    """Projective points kept apart by the precision's dedup tolerance.

    Two points match when every exact cross product of their normalized
    fixed-point coordinates is below dedup 2^(2W): when their exact
    distance, which :func:`proj_distance` rounds, is below dedup.
    """

    def __init__(self, precision: int):
        _sign, man, exp, _bc = tolerances(precision).dedup._mpf_
        self.width = precision + GUARD_BITS
        self._limit = (man << exp + 2 * self.width) ** 2
        self.points, self._fixed = [], []  # the points, and their normalized coordinates

    def add(self, pt) -> Optional[int]:
        """Append pt and return None, or return the index of the first known
        point within dedup.  Raises NumericalError when pt is the zero vector."""
        z, limit = _unit(pt, self.width), self._limit
        for i, known in enumerate(self._fixed):
            if all(s < limit for s in _cross_squares(known, z)):
                return i
        self.points.append(pt)
        self._fixed.append(z)
        return None


# -- root finding ----------------------------------------------------------

SWEEPS = 200  # an Aberth run that still moves after this many sweeps fails
STALL_SWEEPS = 8  # a watched run whose largest correction has not shrunk for this many sweeps stalls
SEED_BITS = 48  # the target of the low-width run
SEED_ANGLE = 0.7  # rotation that keeps start points off the real axis


def canonical_order(values, keys, tol):
    """values sorted by each key in turn; key values within tol tie.

    Rounding noise cannot then order values that agree within tol, such as
    the two members of a conjugate pair.
    """
    def compare(a, b):
        for key in keys:
            ka, kb = key(a), key(b)
            if abs(ka - kb) > tol:
                return -1 if ka < kb else 1
        return 0

    return sorted(values, key=functools.cmp_to_key(compare))


def binary_form_roots(q: HomPoly, precision: int):
    """Projective roots of a binary form with exact multiplicities.

    Returns a list of ``((x0, x1), multiplicity)``, each root a pair of
    Fractions or a :class:`Point`.  The form is first split into
    square-free pieces exactly, so the numeric root finder only ever sees
    simple roots (:func:`_exact_binary_roots`).
    """
    if q.nvars != 2:
        raise NumericalError("binary root finding needs a binary form")
    if q.is_zero():
        raise NumericalError("the zero form vanishes everywhere")
    return [(root, mult) for mult, piece in poly.binary_squarefree_decomposition(q)
            for root in _exact_binary_roots(piece, precision)]


def _exact_binary_roots(piece: HomPoly, precision: int) -> list:
    """The roots of a square-free binary form: each rational root an exact
    pair of Fractions from :func:`poly.linear_factors`, ahead of the roots
    of what those factors leave, as Points from :func:`_polyroots`."""
    factors, rest = poly.linear_factors(piece)
    roots = [poly.root_of_binary_linear(form) for form, _m in factors]
    if not rest.is_constant():
        n, c = rest.degree, poly.canonical(rest).terms
        zs, width = _polyroots([(int(c.get((k, n - k), 0)), 0) for k in range(n, -1, -1)], precision)
        roots += [_normal([z, (1 << width, 0)], precision + GUARD_BITS, 1) for z in zs]
    return roots


def _polyroots(coeffs, precision: int):
    """The roots of sum coeffs[k] z^(n-k), for Gaussian-integer coeffs at
    any one scale, as Gaussian integers scaled by 2^width, and the width.

    Each trailing zero coefficient gives an exact zero root.  The others
    come from :func:`_sweeps`, run at a low width, then at the full width
    from where it stopped.  The low-width run starts where
    :func:`_double_start` leaves the Newton polygon's start points, or at
    those points themselves when that stage steps aside or leaves two
    points that the width does not tell apart; only the start points move,
    and every root goes through both runs.  A run with a target of b bits
    (SEED_BITS, then the precision p) works at b + the coefficients' range
    in bits + the largest |log2| of a start radius + GUARD_BITS.  That
    width need not cover 1/|p'| at a root: there |p| rounds to one unit of
    2^-width and the Newton quotient stops above the target.  So a
    full-width run that stalls, g bits above its target, is continued from
    where it stopped at a width g + GUARD_BITS wider, as MPSolve raises its
    precision (Bini and Fiorentino 2000); a run that converges keeps its
    width.  As in mpmath's clean-up, a root of modulus
    below 2^(1-p) becomes 0 and a part below it is dropped; each part is
    rounded to p bits.  The roots are ordered by |imaginary part|, real
    part, then imaginary part, values within dedup tied
    (:func:`canonical_order`).  Raises NumericalError when a run does not
    converge, or when the widened run stalls too.
    """
    n = max(k for k, c in enumerate(coeffs) if c != (0, 0))
    zeros, coeffs = len(coeffs) - 1 - n, coeffs[:n + 1]
    z, width = [], precision + GUARD_BITS
    if n:
        # mpmath's mag: the least e with |c| < 2^e, up to one bit
        mags = [(abs(x) | abs(y)).bit_length() + bool(x and y) for x, y in coeffs if x or y]
        top, (start, reach) = max(mags), _newton_polygon_start(coeffs, precision)
        seed = min(SEED_BITS, precision)
        spare = top - min(mags) + reach + GUARD_BITS
        width = seed + spare

        def fixed(points):
            return [(int(mpmath.ldexp(x, width)), int(mpmath.ldexp(y, width))) for x, y in points]

        z = fixed(_double_start(coeffs, top, start, seed) or start)
        if len(set(z)) < n:  # the width merged two of the stage's points
            z = fixed(start)

        def run(bits: int, wider: int, watch: bool):
            """Sweep z at the width ``wider``, from where it stands."""
            nonlocal z, width
            shift, width, k = wider - width, wider, wider - top
            z = [(x << shift, y << shift) for x, y in z]
            return _sweeps([(x << k, y << k) if k >= 0 else (x >> -k, y >> -k) for x, y in coeffs],
                           z, width, bits, watch)

        run(seed, width, False)
        gap = run(precision, precision + spare, True)
        if gap is not None and (gap := run(precision, width + gap + GUARD_BITS, True)) is not None:
            raise NumericalError(f"polynomial root finding stalled {gap} bits above its target"
                                 f" at a width of {width} bits")
        tol = 1 << (width + 1 - precision)
        z = [(0, 0) if x * x + y * y < tol * tol else (x, 0) if abs(y) < tol
             else (0, y) if abs(x) < tol else (x, y) for x, y in z]
        z = [tuple(_part_fixed(from_man_exp(v, -width, precision, round_nearest), width) for v in w)
             for w in z]
    return canonical_order(z + [(0, 0)] * zeros, (lambda w: abs(w[1]), lambda w: w[0], lambda w: w[1]),
                           _part_fixed(tolerances(precision).dedup._mpf_, width)), width


def _newton_polygon_start(coeffs, precision: int):
    """Start points on circles whose radii the Newton polygon gives (Bini
    1996), as pairs of mpf at the precision, and the largest |log2| of a
    radius, rounded up.

    An edge of the upper convex hull of (i, log|a_i|) from i to j, with a_i
    the coefficient of z^i, places j - i points evenly on the circle of
    radius (|a_i| / |a_j|)^(1/(j-i)).  mpmath takes the logs and the radii,
    so no coefficient range is out of reach.
    """
    n = len(coeffs) - 1
    with mpmath.workprec(precision):
        logs = {i: float(mpmath.log(mpmath.hypot(*c))) for i, c in enumerate(reversed(coeffs))
                if c != (0, 0)}
        hull = []
        for i in sorted(logs):
            while len(hull) >= 2:
                h0, h1 = hull[-2], hull[-1]
                if (h1 - h0) * (logs[i] - logs[h0]) < (logs[h1] - logs[h0]) * (i - h0):
                    break  # h1 lies strictly above the chord from h0 to i
                hull.pop()
            hull.append(i)
        z, reach = [], 0
        for i, j in zip(hull, hull[1:]):
            m = j - i
            log_radius = (logs[i] - logs[j]) / m
            reach = max(reach, math.ceil(abs(log_radius) / math.log(2)))
            z += [(r * math.cos(a), r * math.sin(a)) for r in [mpmath.exp(log_radius)]
                  for a in (2 * math.pi * (t / m + i / n) + SEED_ANGLE for t in range(m))]
    return z, reach


def _double_start(coeffs, top: int, start, bits: int) -> Optional[list]:
    """The points ``start`` moved by the iteration of :func:`_sweeps`, with
    its evaluation and its sum, in complex doubles, as pairs of floats: a
    cheap floating-point phase finds the start points of the fixed-point
    runs, as in MPSolve (Bini and Robol 2014).

    Each coefficient c, of modulus below 2^top, is the exact quotient
    c / 2^top rounded once to a double, so coefficients of any size fit
    whose range doubles hold.  A point stops once its correction falls
    below 2^-bits max(1, |z|).  The stage stops when every point has
    stopped, when the number of moving points has not fallen for
    STALL_SWEEPS sweeps, or after SWEEPS sweeps; it never raises.  Returns
    None, so that the runs start from ``start``, when a nonzero coefficient
    falls below the least normal double, when a start point or a value on
    the way is not finite, or when a divisor is zero.
    """
    scale = 1 << top
    a = [complex(x / scale, y / scale) for x, y in coeffs]
    z = [complex(float(x), float(y)) for x, y in start]
    if (any(abs(c) < sys.float_info.min for c, (x, y) in zip(a, coeffs) if x or y)
            or not all(map(cmath.isfinite, z))):
        return None
    n, tol = len(a) - 1, 2.0 ** -bits
    moving, least, flat = range(n), n, 0  # the fewest moving points, and sweeps since
    try:
        for _ in range(SWEEPS):
            still = []
            for i in moving:
                zi = z[i]
                big = abs(zi) > 1
                w = 1 / zi if big else zi
                p = d = 0j
                for c in reversed(a) if big else a:
                    p, d = p * w + c, d * w + p
                if big:
                    p, d = zi * p, n * p - w * d
                nq, s = p / d, 0j
                for x in z[:i] + z[i + 1:]:
                    s += 1 / (zi - x)
                step = nq / (1 - nq * s)
                z[i] = zi - step
                if not cmath.isfinite(z[i]):
                    return None
                if abs(step) >= tol * max(1, abs(zi)):
                    still.append(i)
            moving = still
            least, flat = (len(moving), 0) if len(moving) < least else (least, flat + 1)
            if not moving or flat == STALL_SWEEPS:
                break
    except (ZeroDivisionError, OverflowError):  # a zero divisor, or an |z| past the largest double
        return None
    return [(w.real, w.imag) for w in z]


def _sweeps(a, z, width: int, bits: int, watch: bool) -> Optional[int]:
    """Gauss-Seidel Aberth-Ehrlich iteration (Aberth 1973) on the points z,
    in place, in fixed point: x + iy is the pair of integers 2^width (x, y).

    a holds the coefficients, highest first, none of modulus above 1.  A
    point stops once its correction falls below 2^-bits max(1, |z|).
    Outside the unit disc p is evaluated through its reversal r at w = 1/z,
    so no power of z grows: there p/p' = z r(w) / (n r(w) - w r'(w)).
    The sum S of 1 / (z_i - z_j) takes one long division per pair, the
    reciprocal of |z_i - z_j|^2 at three times the width.
    Returns None once every point has stopped.  With ``watch``, a run whose
    largest correction among the moving points, g bits above the target,
    has not shrunk for STALL_SWEEPS sweeps stops there and returns g.
    Raises NumericalError when a point still moves after SWEEPS sweeps.
    """
    n, one, cube = len(a) - 1, 1 << width, 1 << 3 * width
    moving, least, flat = range(n), None, 0  # the least largest correction, and sweeps since
    for _ in range(SWEEPS):
        still, gap = [], None
        for i in moving:
            zr, zi = z[i]
            size = zr * zr + zi * zi
            big = size > one * one
            wr, wi = gauss_quotient((one, 0), (zr, zi), width) if big else (zr, zi)
            pr = pi = dr = di = 0
            for cr, ci in reversed(a) if big else a:
                dr, di = ((dr * wr - di * wi) >> width) + pr, ((dr * wi + di * wr) >> width) + pi
                pr, pi = ((pr * wr - pi * wi) >> width) + cr, ((pr * wi + pi * wr) >> width) + ci
            if big:
                dr, di = (n * pr - ((wr * dr - wi * di) >> width),
                          n * pi - ((wr * di + wi * dr) >> width))
                pr, pi = (zr * pr - zi * pi) >> width, (zr * pi + zi * pr) >> width
            nr, ni = gauss_quotient((pr, pi), (dr, di), width)  # N = p / p'
            sr = si = 0  # S, the sum of 1 / (z_i - z_j) over j != i, at 2^(2 width) until the shift
            for xr, xi in z[:i] + z[i + 1:]:
                er, ei = zr - xr, zi - xi
                q = cube // (er * er + ei * ei)  # one reciprocal per pair
                sr, si = sr + er * q, si - ei * q
            sr, si = sr >> width, si >> width
            cr, ci = gauss_quotient((nr, ni), (one - ((nr * sr - ni * si) >> width),
                                          -((nr * si + ni * sr) >> width)), width)
            z[i] = zr - cr, zi - ci  # by N / (1 - N S)
            if (step := (cr * cr + ci * ci) << (2 * bits)) >= (scale := max(one * one, size)):
                still.append(i)
                # the correction's bits above the target, rounded up
                gap = max(gap or 0, (step.bit_length() - scale.bit_length() + 2) // 2)
        moving = still
        if not moving:
            return None
        if watch:
            least, flat = (gap, 0) if least is None or gap < least else (least, flat + 1)
            if flat == STALL_SWEEPS:
                return gap
    raise NumericalError(f"polynomial root finding did not converge in {SWEEPS} sweeps")


# -- Newton refinement ------------------------------------------------------


def newton_refine_pair(a: MpForm, b: MpForm, point, precision: int):
    """Newton-refine an approximate common zero of two ternary forms.

    a and b come compiled at ``precision``, once per solve; the four
    partials are compiled at the first step.  The point, a :class:`Point`
    at the precision, is refined in fixed point in the chart of its pivot,
    each step one exact Gaussian quotient.
    It stops in backward-error form (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 5.1): once each |F(z)| is below refine_target
    max(1, sum_a |c_a| |z^a|), the sum from MpForm's bound.  Returns the
    normalized point and its backward error, or raises NumericalError after
    NEWTON_STEPS steps without convergence.
    """
    with mpmath.workprec(precision):
        width, z, chart = point.width, list(point.fixed), point.pivot
        u, v = [i for i in range(3) if i != chart]
        jacobian, target = None, tolerances(precision).refine_target  # most points need no partials
        _sign, t_man, t_exp, _bc = target._mpf_
        for step in range(NEWTON_STEPS + 1):
            (fa, sa), (fb, sb) = (f.fixed(z, bound=True) for f in (a, b))
            sizes = [(x * x + y * y, max(f.den << width, bound))
                     for (x, y), bound, f in ((fa, sa, a), (fb, sb, b))]
            # |S| < target max(den 2^W, bound), squared and scaled to integers
            done = all(s << -2 * t_exp < (t_man * scale) ** 2 for s, scale in sizes)
            if done or step == NEWTON_STEPS:
                backward = max(mpmath.sqrt(s) / scale for s, scale in sizes)
                if not done:
                    raise NumericalError(f"Newton did not reach a backward error of {mpmath.nstr(target)}"
                                         f" (backward error {mpmath.nstr(backward)})")
                return (point if not step else _normal(z, width, 1)), backward
            if jacobian is None:
                jacobian = [MpForm(poly.partial(f.form, j))._over(f.den) for f in (a, b) for j in (u, v)]
            j00, j01, j10, j11 = (f.fixed(z) for f in jacobian)
            det = _cross(j00, j11, j01, j10)
            if det == (0, 0):
                raise NumericalError("singular Jacobian in Newton refinement")
            # the scales den 2^W of each row cancel in these quotients
            for i, num in ((u, _cross(fa, j11, fb, j01)), (v, _cross(fb, j00, fa, j10))):
                d = gauss_quotient(num, det, width)
                z[i] = z[i][0] - d[0], z[i][1] - d[1]


# -- common zeros of two plane curves ---------------------------------------


def solve_pair_p2(a: HomPoly, b: HomPoly, precision: int):
    """Common projective zeros of two coprime ternary forms.

    Returns the distinct zeros as a list of normalized triples: Fractions
    for a rational point, a :class:`Point` otherwise.  Zeros
    within the dedup tolerance of each other, such as the root cluster of
    a multiple point, are merged into one.  No intersection multiplicity
    comes with them: a point where the curves meet m times comes back
    once.  Every point is a common zero: see
    :func:`_affine_pair_solutions`.  Raises NumericalError when the
    forms share a factor (positive-dimensional intersection), when root
    finding or the Newton refinement of a point fails, or when the chart
    z = 1 cannot be solved in either order.
    """
    if a.nvars != 3 or b.nvars != 3:
        raise NumericalError("pair solver expects ternary forms")
    g = poly.gcd(a, b)
    if not g.is_constant():
        raise NumericalError("forms share a common factor; intersection is a curve")
    points = PointSet(precision)
    with mpmath.workprec(precision):
        # Affine chart z != 0.
        a2 = poly.strip_var(a, 2)
        b2 = poly.strip_var(b, 2)
        if not a2.is_constant() and not b2.is_constant():
            for pt in _affine_pair_solutions(a2, b2, precision):
                points.add(pt)
        # The line z = 0 separately.
        # Both slices vanish only when z divides a and b, which the gcd
        # check above has ruled out.
        for pt in line_points(poly.gcd(poly.slice_poly(a, 2), poly.slice_poly(b, 2)), 2, precision):
            points.add(pt)
    return points.points


def line_points(form: HomPoly, slot: int, precision: int) -> list:
    """The distinct roots of a nonzero binary form, as points of P^2 on the
    line x_slot = 0: the form's two variables are the other coordinates, in
    order.  A rational root comes back as a normalized triple of Fractions,
    any other as a :class:`Point` (:func:`binary_form_roots`)."""
    out = []
    for root, _mult in binary_form_roots(form, precision):
        if is_exact(root):
            out.append(_normalized((*root[:slot], Fraction(0), *root[slot:])))
        else:
            out.append(_normal([*root.fixed[:slot], (0, 0), *root.fixed[slot:]], root.width, 1))
    return out


def is_exact(coords) -> bool:
    """Whether every coordinate is a Fraction, as the pair solver returns
    every rational point."""
    return not isinstance(coords, Point) and all(isinstance(c, Fraction) for c in coords)


def _normalized(coords) -> tuple:
    """A triple of Fractions scaled exactly as :func:`normalize_point` scales
    a point."""
    pivot = max(coords, key=abs)  # the first of equal moduli
    return tuple(c / pivot for c in coords)


def _affine_pair_solutions(a: HomPoly, b: HomPoly, precision: int):
    """Solutions with z != 0 of two coprime ternary forms without z factors.

    The variable eliminated is y, or x when y cannot be: the subresultants
    in y describe the fibers over a value x0 only where the leading
    coefficient of a or of b in y is nonzero at x0, so y is eliminated only
    when those two leading coefficients have no common zero with z = 1.
    See :func:`_fiber_solutions` for the solve itself.
    """
    blocked = []
    for elim, keep in ((1, 0), (0, 1)):
        da, db = a.var_degree(elim), b.var_degree(elim)
        if da == 0 and db == 0:
            return []  # coprime forms in x_keep and z meet only where z = 0
        if da and db:
            leads = [poly.slice_poly(poly.ladder(f, elim)[-1], elim) for f in (a, b)]
            common = poly.strip_var(poly.gcd(*leads), 1)  # z = 0 is not in the chart
            if not common.is_constant():
                blocked.append(f"x{elim} (leading coefficients share {common})")
                continue
        return _fiber_solutions(a, b, elim, keep, precision)
    raise NumericalError("cannot eliminate " + " or ".join(blocked))


def _fiber_solutions(a: HomPoly, b: HomPoly, elim: int, keep: int, precision: int):
    """Solutions with z = 1 of a and b, read fiber by fiber over x_keep.

    The eliminant E(x_keep, z) is the resultant of a and b in x_elim, or
    the form among them free of x_elim.  Each square-free piece of E, with
    its z factor dropped, is split by exact gcds with the top coefficients
    of the forms of :func:`_fiber_chain`: over a root x0 where the first of
    them that does not vanish is that of F, the points are the roots in
    x_elim of F(x0), and each of those is a common zero (González-Vega and
    El Kahoui 1996).  With both forms in x_elim nothing is left over, as the
    top coefficient of the last form is nonzero wherever the other's
    vanishes; with one form free of x_elim, a piece left over has the other
    form a nonzero constant on its fibers, so no point with z = 1.
    """
    da, db = a.var_degree(elim), b.var_degree(elim)
    eliminant = poly.resultant_wrt(a, b, elim) if da and db else (a if da == 0 else b)
    open_pieces = [piece for _mult, piece in poly.binary_squarefree_decomposition(
        poly.strip_var(poly.slice_poly(eliminant, elim), 1))]
    out = []
    # a and b compiled at the precision for Newton's method, at the first irrational point
    pair = functools.cache(mpmath.workprec(precision)(lambda: (MpForm(a), MpForm(b))))
    for rows in _fiber_chain(a, b, elim):
        coeffs = [poly.slice_poly(r, elim) for r in rows]
        # the row's forms compiled at twice the precision, at its first irrational root
        compiled = functools.cache(mpmath.workprec(2 * precision)(
            functools.partial(compile_forms, coeffs)))
        still = []
        for piece in open_pieces:
            rest = poly.gcd(piece, coeffs[-1])
            for root in _exact_binary_roots(poly.exact_divide(piece, rest), precision):
                out += _fiber_points(pair, coeffs, compiled, root, keep, precision)
            if not rest.is_constant():
                still.append(rest)
        open_pieces = still
        if not open_pieces:
            break
    return out


def _fiber_chain(a: HomPoly, b: HomPoly, elim: int):
    """The fiber forms of a and b in x_elim, as their x_elim-ladders.

    With a or b free of x_elim, they are the other form's truncations to
    x_elim-degree t = d, d - 1, ..., 1.  Otherwise they are the
    subresultants S_1, ..., S_(m-1), m the smaller x_elim-degree, truncated
    to degree j, then the form of degree m and the other form.  Where the
    leading coefficient of one form is nonzero, the first of them whose top
    coefficient does not vanish at x0 gives the gcd of a(x0) and b(x0);
    S_j with an identically vanishing top coefficient is skipped.
    """
    da, db = a.var_degree(elim), b.var_degree(elim)
    if da == 0 or db == 0:
        rows = poly.ladder(b if da == 0 else a, elim)
        for t in range(len(rows) - 1, 0, -1):
            yield rows[:t + 1]
        return
    for j in range(1, min(da, db)):
        rows = poly.ladder(poly.subresultant(a, b, elim, j), elim)
        if len(rows) == j + 1:
            yield rows
    yield from sorted((poly.ladder(a, elim), poly.ladder(b, elim)), key=len)


def _fiber_points(pair, coeffs: list, compiled, root, keep: int,
                  precision: int) -> list:
    """The common zeros of a and b over a root (r0 : r1) of the eliminant in
    (x_keep, z), with x_elim a root w = w0 / w1 of the fiber sum_k
    coeffs[k](r0, r1) w^k.  coeffs[k], a binary form in (x_keep, z), has
    degree D - k, so the point is (x_keep : x_elim : z) = (r0 w1 : w0 : r1 w1),
    whatever the size of r0 / r1.

    A rational root gives an exact fiber, and a rational point comes back as
    Fractions.  At a Point root the fiber's coefficients are the values of
    the coeffs as ``compiled()`` gives them, over one denominator at twice
    the precision, once per row.  A linear fiber is one Gaussian quotient
    and a longer one goes to :func:`_polyroots`.  Newton's method polishes
    every point that is not exact, with a and b as ``pair()`` compiles
    them, and its failure raises.
    """
    t, width = len(coeffs) - 1, precision + GUARD_BITS
    if is_exact(root):
        fiber = HomPoly(2, t, {(k, t - k): c.evaluate(root) for k, c in enumerate(coeffs)})
        ws = [w if is_exact(w) else w.fixed for w, _m in binary_form_roots(fiber, precision)]
        r, scale = [(int(c), 0) for c in root], 0  # an eliminant factor is integral
    else:
        r, scale = root.fixed, width
        vals = [f.fixed([(x << precision, y << precision) for x, y in r]) for f in compiled()]
        roots, at = (([gauss_quotient((-vals[0][0], -vals[0][1]), vals[1], width)], width)
                     if t == 1 else _polyroots(vals[::-1], precision))
        ws = [(w, (1 << at, 0)) for w in roots]
    out = []
    for w0, w1 in ws:
        exact = is_exact((w0, w1))
        x, y, z = ((root[0] * w1, w0, root[1] * w1) if exact else
                   (gauss_mul(r[0], w1), (w0[0] << scale, w0[1] << scale), gauss_mul(r[1], w1)))
        pt = (x, y, z) if keep == 0 else (y, x, z)
        out.append(_normalized(pt) if exact
                   else newton_refine_pair(*pair(), _normal(pt, width, 1), precision)[0])
    return out
