"""High-precision numerics on top of the exact polynomial layer.

Everything here that is not exact is explicit about its working precision,
given in bits.  Exact rational data stays exact until the moment a value is
converted with :func:`mpc_from`, so callers control all rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath.libmp import (fone, fzero, mpc_abs, mpc_add, mpc_add_mpf, mpc_div, mpc_mul,
                          mpc_mul_int, mpc_mul_mpf, mpc_sub, mpf_add, mpf_cmp, mpf_div,
                          mpf_lt, mpf_mul, mpf_shift, mpf_sub, normalize, to_float)

from . import poly
from .poly import HomPoly

DEFAULT_PRECISION = 256  # bits
NEWTON_STEPS = 200  # Newton refinement gives up after this many steps


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
    zero_floor: mpmath.mpf  # 2^-(p-8): dedup screen margin; below it a point is indeterminate
    refine_target: mpmath.mpf  # 10^-(0.18p): Newton refinement stops below it
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


class MpForm:
    """A form compiled for evaluation at mpc points.

    Built under the working precision, which every call must also run
    under: each coefficient is converted once, by mpmath's own ``convert``,
    which rounds a coefficient that is not exact at that precision (a
    non-integer Fraction, or an integer wider than the mantissa) toward
    zero.  A call at a tuple of mpc coordinates returns what
    ``p.evaluate(coords)`` returns, bit for bit, by repeating its
    operations in its order on raw libmp values: the first power of a
    coordinate is ``1 * v`` (``mpc_mul_int``, so it is rounded to the
    precision), the coefficient times the first factor of a term is
    ``mpc_mul_mpf``, later powers and factors are ``mpc_mul``, and the sum
    starts with ``0 + term`` (``mpc_add_mpf``) and goes on by ``mpc_add``.
    The zero form gives the int 0 and a constant form its Fraction, and
    ``form`` is the form it was built from.
    """

    __slots__ = ("form", "_prec", "_rnd", "_tops", "_terms", "_value")

    def __init__(self, p: HomPoly):
        self.form = p
        self._prec, self._rnd = mpmath.mp._prec_rounding
        self._tops = [p.var_degree(i) for i in range(p.nvars)]
        constant = p.degree == 0 or p.is_zero()
        self._value = p.terms.get((0,) * p.nvars, 0) if constant else None
        # powers are stored flat, x_i^k at offset[i] + k - 1
        offset = [sum(self._tops[:i]) for i in range(p.nvars)]
        self._terms = []
        for e, c in ({} if constant else p.terms).items():
            first, *rest = [offset[i] + k - 1 for i, k in enumerate(e) if k]
            self._terms.append((mpmath.mp.convert(c)._mpf_, first, tuple(rest)))

    def __call__(self, coords):
        if self._value is not None:
            return self._value
        prec, rnd = self._prec, self._rnd
        powers = []
        for v, top in zip(coords, self._tops):
            if top:
                v = v._mpc_
                power = mpc_mul_int(v, 1, prec, rnd)
                powers.append(power)
                for _ in range(1, top):
                    power = mpc_mul(power, v, prec, rnd)
                    powers.append(power)
        total = None
        for c, first, rest in self._terms:
            term = mpc_mul_mpf(powers[first], c, prec, rnd)
            for j in rest:
                term = mpc_mul(term, powers[j], prec, rnd)
            total = (mpc_add_mpf(term, fzero, prec, rnd) if total is None
                     else mpc_add(total, term, prec, rnd))
        return mpmath.mp.make_mpc(total)


def eval_form(p: HomPoly, coords) -> mpmath.mpc:
    """A form's value at a point, as an mpc at the working precision.

    The coordinates are converted with :func:`mpc_from`, which rounds to
    nearest, and the form is evaluated by :class:`MpForm`: a coefficient
    not exact at the working precision, such as a non-integer Fraction, is
    truncated toward zero, and every power, product and partial sum is
    rounded to nearest again.
    """
    return mpc_from(0) + MpForm(p)(tuple(mpc_from(c) for c in coords))


class Point(tuple):
    """mpc coordinates from :func:`normalize_point`, with their libmp values ``raw``, the
    index ``pivot`` of the 1, and ``stable``: whether normalizing returns them as they are."""

    double = functools.cached_property(lambda self: _double_point(tuple(self)))


def _raw_coords(pt, prec: int, rnd) -> tuple:
    """pt's coordinates as libmp values, rounded as :func:`mpc_from` does."""
    return pt.raw if isinstance(pt, Point) else tuple(
        v if v[0][3] <= prec >= v[1][3] else tuple(normalize(*x, prec, rnd) for x in v)
        for v in (getattr(c, "_mpc_", None) or mpc_from(c)._mpc_ for c in pt))


def _largest(vals, prec: int, rnd):
    """The first index of the largest rounded modulus of libmp mpc values, the rounded
    moduli by index of those whose exact square modulus is within 2^(6-prec) of the
    top's (no other can tie), and the largest."""
    key = functools.cmp_to_key(mpf_cmp)
    squares = [mpf_add(mpf_mul(x, x), mpf_mul(y, y)) for x, y in vals]
    top = max(squares, key=key)
    floor = mpf_sub(top, mpf_shift(top, 6 - prec))
    mods = {i: mpc_abs(vals[i], prec, rnd) for i, s in enumerate(squares) if mpf_cmp(s, floor) >= 0}
    best = max(mods, key=lambda i: key(mods[i]))  # the first of equal moduli
    return best, mods, mods[best]


def normalize_point(coords):
    """Scale a projective representative so its max-modulus coordinate is 1.

    Ties pick the lowest index.  Returns a :class:`Point` (a stable Point
    as it is) and its pivot.  Raises IndeterminatePointError when every
    coordinate sits below the zero floor of the working precision.
    """
    if isinstance(coords, Point) and coords.stable:
        return coords, coords.pivot
    prec, rnd = mpmath.mp._prec_rounding
    best, mods, size = _largest(vals := _raw_coords(coords, prec, rnd), prec, rnd)
    tol = tolerances(prec)
    if mpf_lt(size, tol.zero_floor._mpf_):
        raise IndeterminatePointError(f"all coordinates below {tol.serialize()['zero_floor']}")
    one, pivot = (fone, fzero), vals[best]
    if pivot != one:  # v / 1 would be v, and v / v is 1 exactly
        vals = tuple(one if i == best else mpc_div(v, pivot, prec, rnd) for i, v in enumerate(vals))
        mods = {i: mpc_abs(vals[i], prec, rnd) for i in mods}
    pt = Point(map(mpmath.mp.make_mpc, vals))
    # normalizing again pivots on an earlier modulus 1 or a later one above 1
    pt.raw, pt.pivot, pt.stable = vals, best, all(
        mpf_cmp(mod, fone) < (i > best) for i, mod in mods.items() if i != best)
    return pt, best


def proj_distance(p, q) -> mpmath.mpf:
    """Projective distance: max cross-difference of normalized representatives.

    Zero exactly when the two points agree in projective space; symmetric;
    insensitive to scaling of either argument.
    """
    prec, rnd = mpmath.mp._prec_rounding
    pv, qv = _raw_coords(p, prec, rnd), _raw_coords(q, prec, rnd)
    sizes = [fone if isinstance(x, Point) and x.stable else _largest(v, prec, rnd)[2]
             for x, v in ((p, pv), (q, qv))]
    if fzero in sizes:
        raise NumericalError("projective distance of a zero vector")
    crosses = [mpc_sub(mpc_mul(pv[i], qv[j], prec, rnd), mpc_mul(pv[j], qv[i], prec, rnd),
                       prec, rnd) for i in range(len(pv)) for j in range(i + 1, len(pv))]
    best = _largest(crosses, prec, rnd)[2] if crosses else fzero
    scale = mpf_mul(*sizes, prec, rnd)
    return mpmath.mp.make_mpf(best if scale == fone else mpf_div(best, scale, prec, rnd))


def _double_point(pt):
    """pt scaled by a power of two and rounded to complex doubles.

    The scale 2^-mag puts the largest coordinate in [1/4, 1], so nothing
    overflows; coordinates below 2^-1074 of the largest underflow to 0.
    Returns the coordinates and the largest modulus among them.
    """
    if isinstance(pt, Point):
        return pt.double
    prec, rnd = mpmath.mp._prec_rounding
    vals = _raw_coords(pt, prec, rnd)
    mags = [max(e + bc for _s, m, e, bc in v if m) + bool(v[0][1] and v[1][1])
            for v in vals if v[0][1] or v[1][1]]  # mpmath.mag of the nonzero ones
    if not mags:
        raise NumericalError("projective distance of a zero vector")
    rep = tuple(complex(*(to_float((s, m, e - max(mags), bc), rnd=rnd) if m else 0.0
                          for s, m, e, bc in v)) for v in vals)
    return rep, max(abs(c) for c in rep)


def _double_cross(p, q) -> float:
    """Largest |p_i q_j - p_j q_i| over i < j, in doubles."""
    n = len(p)
    return max(abs(p[i] * q[j] - p[j] * q[i])
               for i in range(n) for j in range(i + 1, n))


# The zero floor at the 53 bits of a double, 2^-45.
_DOUBLE_FLOOR = float(tolerances(53).zero_floor)


class PointSet:
    """Projective points kept apart by the precision's dedup tolerance.

    Comparisons run at the working precision p the set was built for.
    Each stored point keeps a copy in complex doubles, scaled by a power
    of two (:func:`_double_point`).  :meth:`find` first computes the
    distance of :func:`proj_distance` on those copies and skips a known
    point whose double distance exceeds dedup + zero_floor(p) + 2^-45.  The
    mpmath distance is off by a few rounding units of 2^-p, the double one
    by a few units of 2^-53, and the margin is 256 units of each.  So a
    point the screen skips can never pass the mpmath comparison, which
    still decides every match: ``find`` returns the same first index as a
    linear mpmath scan, and ``points`` holds the same list.
    """

    def __init__(self, precision: int):
        tol = tolerances(precision)
        self.tol = tol.dedup
        self._screen = float(tol.dedup) + float(tol.zero_floor) + _DOUBLE_FLOOR
        self.points = []
        self._doubles = []  # (double copy, its largest modulus), parallel to points

    def _find(self, pt, near, size) -> Optional[int]:
        limit = self._screen * size
        for i, (rep, rep_size) in enumerate(self._doubles):
            if (_double_cross(rep, near) <= limit * rep_size
                    and proj_distance(self.points[i], pt) < self.tol):
                return i
        return None

    def find(self, pt) -> Optional[int]:
        """Index of the first known point within dedup of pt, or None.

        Raises NumericalError when pt is the zero vector.
        """
        return self._find(pt, *_double_point(pt))

    def add(self, pt) -> Optional[int]:
        """Append pt and return None, or return the index of a known point within dedup."""
        near, size = _double_point(pt)
        i = self._find(pt, near, size)
        if i is None:
            self.points.append(pt)
            self._doubles.append((near, size))
        return i


# -- root finding ----------------------------------------------------------

SWEEPS = 200  # an Aberth run that still moves after this many sweeps fails
SEED_BITS = 48  # the target of the low-width run
GUARD_BITS = 64  # width beyond the target, the coefficient range and the radii
SEED_ANGLE = 0.7  # rotation that keeps start points off the real axis


def canonical_order(values, keys, tol):
    """values sorted by each key in turn; key values within tol tie.

    Rounding noise cannot then order values that agree within tol, such as
    the two members of a conjugate pair.
    """
    def compare(a, b):
        for key in keys:
            ka, kb = key(a), key(b)
            if mpmath.fabs(ka - kb) > tol:
                return -1 if ka < kb else 1
        return 0

    return sorted(values, key=functools.cmp_to_key(compare))


def binary_form_roots(q: HomPoly, precision: int):
    """Projective roots of a binary form with exact multiplicities.

    Returns a list of ``((x0, x1), multiplicity)`` with mpc coordinates.
    The form is first split into square-free pieces exactly, so the numeric
    root finder only ever sees simple roots (:func:`_piece_roots`).
    """
    if q.nvars != 2:
        raise NumericalError("binary root finding needs a binary form")
    if q.is_zero():
        raise NumericalError("the zero form vanishes everywhere")
    return [(root, mult) for mult, piece in poly.binary_squarefree_decomposition(q)
            for root in _piece_roots(piece, precision)]


def _piece_roots(piece: HomPoly, precision: int) -> list:
    """The roots of a square-free binary form, linear or with no coordinate
    factor, as pairs of mpc.  A longer piece's roots come in a canonical
    order: by |imaginary part|, then real part, then imaginary part, with
    values within the dedup tolerance tied."""
    with mpmath.workprec(precision):
        if piece.degree == 1:
            return [tuple(mpc_from(c) for c in poly.root_of_binary_linear(piece))]
        n = piece.degree
        coeffs = [mpc_from(piece.terms.get((k, n - k), 0)) for k in range(n, -1, -1)]
        roots = canonical_order(
            _polyroots(coeffs, precision),
            (lambda r: mpmath.fabs(r.imag), lambda r: r.real, lambda r: r.imag),
            tolerances(precision).dedup)
        return [(root, mpc_from(1)) for root in roots]


def _polyroots(coeffs, precision: int) -> list:
    """The roots of sum coeffs[k] z^(n-k), as mpmath's ``polyroots`` gives them.

    Each trailing zero coefficient gives an exact zero root.  The others
    come from :func:`_sweeps`, run at a low width from the Newton polygon's
    start points, then at the full width from where it stopped.  A run with
    a target of b bits (SEED_BITS, then the precision p) works at b + the
    coefficients' range in bits + the largest |log2| of a start radius +
    GUARD_BITS.  As in mpmath's clean-up, a root of modulus below 2^(1-p)
    becomes 0 and a part below it is dropped, so a real root is an mpf;
    roots are rounded to p bits and sorted by |imaginary part|, then real
    part.  Raises NumericalError when a run does not converge.
    """
    with mpmath.workprec(precision):
        coeffs = [mpmath.mpc(c) for c in coeffs]
        n = max(k for k, c in enumerate(coeffs) if c)
        zeros, coeffs = len(coeffs) - 1 - n, coeffs[:n + 1]
        z, width = [], 0
        if n:
            mags = [mpmath.mag(c) for c in coeffs if c]
            start, reach = _newton_polygon_start(coeffs)
            spare = max(mags) - min(mags) + reach + GUARD_BITS
            for bits in (min(SEED_BITS, precision), precision):
                shift, width = bits + spare - width, bits + spare
                z = [(x << shift, y << shift) for x, y in z] or [_fixed(w, width) for w in start]
                _sweeps([_fixed(c, width - max(mags)) for c in coeffs], z, width, bits)
            tol = 1 << (width + 1 - precision)
            z = [(0, 0) if x * x + y * y < tol * tol else (x, 0) if abs(y) < tol
                 else (0, y) if abs(x) < tol else (x, y) for x, y in z]
        z = sorted(z + [(0, 0)] * zeros, key=lambda w: (abs(w[1]), w[0]))
        return [mpmath.mpc((x, -width), (y, -width)) if y else mpmath.mpf((x, -width))
                for x, y in z]


def _fixed(c: mpmath.mpc, shift: int) -> tuple:
    """c times 2^shift as a pair of integers, truncated."""
    return int(mpmath.ldexp(c.real, shift)), int(mpmath.ldexp(c.imag, shift))


def _quotient(a: tuple, b: tuple, width: int) -> tuple:
    """a / b for complex numbers in fixed point at width bits."""
    m = b[0] * b[0] + b[1] * b[1]
    return (((a[0] * b[0] + a[1] * b[1]) << width) // m,
            ((a[1] * b[0] - a[0] * b[1]) << width) // m)


def _newton_polygon_start(coeffs):
    """Start points on circles whose radii the Newton polygon gives (Bini
    1996), as mpc, and the largest |log2| of a radius, rounded up.

    An edge of the upper convex hull of (i, log|a_i|) from i to j, with a_i
    the coefficient of z^i, places j - i points evenly on the circle of
    radius (|a_i| / |a_j|)^(1/(j-i)).  mpmath takes the logs and the radii,
    so no coefficient range is out of reach.
    """
    n = len(coeffs) - 1
    logs = {i: float(mpmath.log(abs(c))) for i, c in enumerate(reversed(coeffs)) if c}
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
        z += [mpmath.exp(log_radius) * cmath.rect(1, 2 * math.pi * (t / m + i / n) + SEED_ANGLE)
              for t in range(m)]
    return z, reach


def _sweeps(a, z, width: int, bits: int) -> None:
    """Gauss-Seidel Aberth-Ehrlich iteration (Aberth 1973) on the points z,
    in place, in fixed point: x + iy is the pair of integers 2^width (x, y).

    a holds the coefficients, highest first, none of modulus above 1.  A
    point stops once its correction falls below 2^-bits max(1, |z|).
    Outside the unit disc p is evaluated through its reversal r at w = 1/z,
    so no power of z grows: there p/p' = z r(w) / (n r(w) - w r'(w)).
    Raises NumericalError when a point still moves after SWEEPS sweeps.
    """
    n, one, two = len(a) - 1, 1 << width, 2 * width
    moving = range(n)
    for _ in range(SWEEPS):
        still = []
        for i in moving:
            zr, zi = z[i]
            size = zr * zr + zi * zi
            big = size > one * one
            wr, wi = _quotient((one, 0), (zr, zi), width) if big else (zr, zi)
            pr = pi = dr = di = 0
            for cr, ci in reversed(a) if big else a:
                dr, di = ((dr * wr - di * wi) >> width) + pr, ((dr * wi + di * wr) >> width) + pi
                pr, pi = ((pr * wr - pi * wi) >> width) + cr, ((pr * wi + pi * wr) >> width) + ci
            if big:
                dr, di = (n * pr - ((wr * dr - wi * di) >> width),
                          n * pi - ((wr * di + wi * dr) >> width))
                pr, pi = (zr * pr - zi * pi) >> width, (zr * pi + zi * pr) >> width
            nr, ni = _quotient((pr, pi), (dr, di), width)  # N = p / p'
            sr = si = 0  # S, the sum of 1 / (z_i - z_j) over j != i
            for xr, xi in z[:i] + z[i + 1:]:
                er, ei = zr - xr, zi - xi
                e = er * er + ei * ei
                sr, si = sr + (er << two) // e, si - (ei << two) // e
            cr, ci = _quotient((nr, ni), (one - ((nr * sr - ni * si) >> width),
                                          -((nr * si + ni * sr) >> width)), width)
            z[i] = zr - cr, zi - ci  # by N / (1 - N S)
            if (cr * cr + ci * ci) << (2 * bits) >= max(one * one, size):
                still.append(i)
        moving = still
        if not moving:
            return
    raise NumericalError(f"polynomial root finding did not converge in {SWEEPS} sweeps")


# -- Newton refinement ------------------------------------------------------


def newton_refine_pair(a: MpForm, b: MpForm, point, precision: int):
    """Newton-refine an approximate common zero of two ternary forms.

    a and b come compiled at ``precision`` (:class:`MpForm`), once per
    solve; the four partials are compiled at the first step.  The point is
    refined in the affine chart of its max-modulus coordinate.  Returns
    ``(refined_point, residual)`` with the point normalized, or raises
    NumericalError after NEWTON_STEPS steps without convergence.
    """
    with mpmath.workprec(precision):
        pt, chart = normalize_point(point)
        idx = [i for i in range(3) if i != chart]
        forms = [a, b]
        jacobian = None  # compiled at the first step; most points need none
        zero = mpc_from(0)
        target = tolerances(precision).refine_target
        u, v = pt[idx[0]], pt[idx[1]]
        res, c = None, pt  # the point (u, v) in the chart, before any step
        for _ in range(NEWTON_STEPS):
            fa, fb = (zero + f(c) for f in forms)
            res = max(mpmath.fabs(fa), mpmath.fabs(fb))
            if res < target:
                return normalize_point(c)[0], res
            if jacobian is None:
                jacobian = [MpForm(poly.partial(f.form, j)) for f in forms for j in idx]
            j00, j01, j10, j11 = (zero + f(c) for f in jacobian)
            det = j00 * j11 - j01 * j10
            if mpmath.fabs(det) == 0:
                raise NumericalError("singular Jacobian in Newton refinement")
            du = (fa * j11 - fb * j01) / det
            dv = (fb * j00 - fa * j10) / det
            u, v = u - du, v - dv
            c = tuple(mpc_from(1) if i == chart else u if i == idx[0] else v for i in range(3))
        raise NumericalError(f"Newton did not reach {mpmath.nstr(target)} (residual {mpmath.nstr(res)})")


# -- common zeros of two plane curves ---------------------------------------


def solve_pair_p2(a: HomPoly, b: HomPoly, precision: int):
    """Common projective zeros of two coprime ternary forms.

    Returns the distinct zeros as a list of normalized triples, of
    Fractions for a rational point and of mpc values otherwise.  Zeros
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
        gline = poly.gcd(poly.slice_poly(a, 2), poly.slice_poly(b, 2))
        if not gline.is_constant():
            for _mult, piece in poly.binary_squarefree_decomposition(gline):
                for r0, r1 in _exact_binary_roots(piece, precision):
                    points.add(_normalized((r0, r1, Fraction(0))))
    return points.points


def independent_gradients(va, vb) -> bool:
    """Whether two gradients at a point are independent, to the dedup
    tolerance of the working precision.

    Their largest 2 x 2 minor must exceed dedup times the largest modulus
    of each; a vanishing gradient is never independent of another.
    """
    va, vb = [mpc_from(v) for v in va], [mpc_from(v) for v in vb]
    cross = max(mpmath.fabs(va[j] * vb[k] - va[k] * vb[j])
                for j in range(len(va)) for k in range(j + 1, len(va)))
    na = max(mpmath.fabs(v) for v in va)
    nb = max(mpmath.fabs(v) for v in vb)
    return na > 0 and nb > 0 and cross > tolerances(mpmath.mp.prec).dedup * na * nb


def is_exact(coords) -> bool:
    """Whether every coordinate is a Fraction, as the pair solver returns
    every rational point."""
    return all(isinstance(c, Fraction) for c in coords)


def _normalized(coords) -> tuple:
    """A point scaled as :func:`normalize_point` scales it, kept exact when
    every coordinate is a Fraction."""
    if not is_exact(coords):
        return normalize_point(coords)[0]
    pivot = max(coords, key=abs)  # the first of equal moduli
    return tuple(c / pivot for c in coords)


def _exact_binary_roots(piece: HomPoly, precision: int) -> list:
    """The roots of a square-free binary form: each rational root an exact
    pair of Fractions from :func:`poly.linear_factors`, ahead of the roots
    of what those factors leave, by :func:`_piece_roots`."""
    factors, rest = poly.linear_factors(piece)
    roots = [poly.root_of_binary_linear(form) for form, _m in factors]
    if not rest.is_constant():
        roots += _piece_roots(poly.canonical(rest), precision)
    return roots


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
        compiled = []  # the row's MpForms, built at its first irrational x0
        still = []
        for piece in open_pieces:
            rest = poly.gcd(piece, coeffs[-1])
            for r0, r1 in _exact_binary_roots(poly.exact_divide(piece, rest), precision):
                out += _fiber_points(pair, coeffs, compiled, r0 / r1, keep, precision)
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


def _fiber_points(pair, coeffs: list, compiled: list, x0, keep: int,
                  precision: int) -> list:
    """The common zeros of a and b with x_keep = x0, z = 1 and x_elim a root
    y of sum coeffs[k](x0) y^k, the coeffs being binary forms in (x_keep, z).

    A rational x0 gives an exact fiber, and a rational point comes back as
    Fractions.  Elsewhere the fiber's coefficients are evaluated at twice
    the precision, by ``compiled``: the coeffs as :class:`MpForm` built
    there, filled in at the row's first irrational x0.  A linear fiber is
    solved by one division and a longer one by :func:`_polyroots`.
    Newton's method polishes every point that is not exact, with a and b as
    ``pair()`` compiles them, and its failure raises.
    """
    t = len(coeffs) - 1
    if isinstance(x0, Fraction):
        fiber = HomPoly(2, t, {(k, t - k): c.evaluate((x0, 1)) for k, c in enumerate(coeffs)})
        ys = [y0 / y1 for _m, piece in poly.binary_squarefree_decomposition(fiber)
              for y0, y1 in _exact_binary_roots(piece, precision)]
    else:
        with mpmath.workprec(2 * precision):
            if not compiled:
                compiled.extend(MpForm(c) for c in coeffs)
            at = (mpc_from(x0), mpc_from(1))
            vals = [mpc_from(0) + f(at) for f in compiled]
            ys = [-vals[0] / vals[1]] if t == 1 else None
        ys = ys or _polyroots(vals[::-1], precision)
    pts = [(x0, y, Fraction(1)) if keep == 0 else (y, x0, Fraction(1)) for y in ys]
    return [_normalized(pt) if is_exact(pt) else newton_refine_pair(*pair(), pt, precision)[0]
            for pt in pts]
