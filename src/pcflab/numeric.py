"""High-precision numerics on top of the exact polynomial layer.

Everything here that is not exact is explicit about its working precision,
given in bits.  Exact rational data stays exact until the moment a value is
converted with :func:`mpc_from`, so callers control all rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath.libmp import fzero, mpc_add, mpc_add_mpf, mpc_mul, mpc_mul_int, mpc_mul_mpf

from . import poly
from .poly import HomPoly

DEFAULT_PRECISION = 256  # bits


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
    The zero form gives the int 0 and a constant form its Fraction.
    """

    __slots__ = ("_prec", "_rnd", "_tops", "_terms", "_value")

    def __init__(self, p: HomPoly):
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


def normalize_point(coords):
    """Scale a projective representative so its max-modulus coordinate is 1.

    Ties pick the lowest index.  Raises IndeterminatePointError when every
    coordinate sits below the zero floor of the working precision.
    """
    vals = [mpc_from(c) for c in coords]
    mags = [mpmath.fabs(v) for v in vals]
    best = 0
    for i in range(1, len(vals)):
        if mags[i] > mags[best]:
            best = i
    tol = tolerances(mpmath.mp.prec)
    if mags[best] < tol.zero_floor:
        raise IndeterminatePointError(
            f"all coordinates below {tol.serialize()['zero_floor']}")
    pivot = vals[best]
    return tuple(v / pivot for v in vals), best


def proj_distance(p, q) -> mpmath.mpf:
    """Projective distance: max cross-difference of normalized representatives.

    Zero exactly when the two points agree in projective space; symmetric;
    insensitive to scaling of either argument.
    """
    pv = [mpc_from(c) for c in p]
    qv = [mpc_from(c) for c in q]
    mp_ = max(mpmath.fabs(c) for c in pv)
    mq = max(mpmath.fabs(c) for c in qv)
    if mp_ == 0 or mq == 0:
        raise NumericalError("projective distance of a zero vector")
    best = mpmath.mpf(0)
    n = len(pv)
    for i in range(n):
        for j in range(i + 1, n):
            cross = mpmath.fabs(pv[i] * qv[j] - pv[j] * qv[i])
            if cross > best:
                best = cross
    return best / (mp_ * mq)


def _double_point(pt):
    """pt scaled by a power of two and rounded to complex doubles.

    The scale 2^-mag puts the largest coordinate in [1/4, 1], so nothing
    overflows; coordinates below 2^-1074 of the largest underflow to 0.
    Returns the coordinates and the largest modulus among them.
    """
    vals = [mpc_from(c) for c in pt]
    top = max(mpmath.mag(v) for v in vals)
    if top == -mpmath.inf:
        raise NumericalError("projective distance of a zero vector")
    scale = mpmath.ldexp(mpmath.mpf(1), -top)
    rep = tuple(complex(v * scale) for v in vals)
    return rep, max(abs(c) for c in rep)


def _double_cross(p, q) -> float:
    """Largest |p_i q_j - p_j q_i| over i < j, in doubles."""
    n = len(p)
    return max(abs(p[i] * q[j] - p[j] * q[i])
               for i in range(n) for j in range(i + 1, n))


# 2^-(53-8): the zero floor's formula at the 53 bits of a double.
_DOUBLE_FLOOR = 2.0 ** -45


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

ABERTH_STEPS = 100  # the double-precision seed iteration gives up after this
DOUBLE_RANGE = 960  # bits of coefficient range the seed iteration accepts
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
    root finder only ever sees simple roots.  Each piece's roots come in a
    canonical order: by |imaginary part|, then real part, then imaginary
    part, with values within the dedup tolerance tied.
    """
    if q.nvars != 2:
        raise NumericalError("binary root finding needs a binary form")
    if q.is_zero():
        raise NumericalError("the zero form vanishes everywhere")
    out = []
    with mpmath.workprec(precision):
        for mult, piece in poly.binary_squarefree_decomposition(q):
            if piece.degree == 1:
                root = poly.root_of_binary_linear(piece)
                out.append((tuple(mpc_from(c) for c in root), mult))
                continue
            # The decomposition split off any x1 factor, so x0 has full degree.
            n = piece.degree
            coeffs = [Fraction(0)] * (n + 1)
            for e, c in piece.terms.items():
                coeffs[n - e[0]] = c
            mp_coeffs = [mpc_from(c) for c in coeffs]
            roots = canonical_order(
                _polyroots(mp_coeffs, precision),
                (lambda r: mpmath.fabs(r.imag), lambda r: r.real, lambda r: r.imag),
                tolerances(precision).dedup)
            out.extend(((root, mpc_from(1)), mult) for root in roots)
    return out


def _polyroots(coeffs, precision: int):
    """mpmath.polyroots from double-precision start points, with escalating effort.

    The start points come from :func:`_double_seeds`; when it has none the
    Durand-Kerner iteration starts cold.  Every rung's extra precision grows
    by the bits that evaluating the polynomial near its roots loses to
    cancellation, as the seed iteration measures it: with fewer, the
    iteration stalls above mpmath's tolerance for all of its steps.  Raises
    NumericalError when the last rung of the ladder does not converge.
    """
    seeds, lost = _double_seeds(coeffs) or (None, 0)
    for maxsteps, extra in ((60, 32), (200, precision // 2), (800, precision)):
        try:
            return mpmath.polyroots(coeffs, maxsteps=maxsteps, extraprec=extra + lost,
                                    roots_init=seeds)
        except mpmath.libmp.NoConvergence:
            continue
    raise NumericalError("polynomial root finding did not converge")


def _double_seeds(coeffs):
    """Start points for the roots of a polynomial and the bits evaluation loses.

    An Aberth-Ehrlich iteration in complex doubles (Aberth 1973) on the
    coefficients, highest first, scaled by a power of two; it starts on
    circles whose radii come from the upper convex hull of the points
    (i, log|a_i|), the Newton polygon (Bini 1996).  The lost bits are
    log2 of the largest sensitivity at the points: how far a root moves per
    unit of relative error in evaluating the polynomial there.  Returns
    None when the coefficients' range does not fit in doubles, the constant
    term is zero, or the iteration produces a non-finite or a repeated point
    or an infinite sensitivity.
    """
    nonzero = [c for c in coeffs if c]
    top = max(mpmath.mag(c) for c in nonzero)
    if top - min(mpmath.mag(c) for c in nonzero) > DOUBLE_RANGE or not coeffs[-1]:
        return None
    scale = mpmath.ldexp(1, -top)
    a = [complex(c * scale) for c in coeffs]
    try:
        z, sensitivity = _aberth(a, _newton_polygon_start(a))
    except ZeroDivisionError:
        return None
    if (not all(cmath.isfinite(w) for w in z) or len(set(z)) < len(z)
            or not math.isfinite(sensitivity)):
        return None
    return [mpmath.mpc(w) for w in z], max(0, math.ceil(math.log2(sensitivity)))


def _newton_polygon_start(a):
    """Start points on circles whose radii the Newton polygon gives.

    An edge of the upper convex hull of (i, log|a_i|) from i to j, with a_i
    the coefficient of z^i, places j - i points evenly on the circle of
    radius (|a_i| / |a_j|)^(1/(j-i)).
    """
    n = len(a) - 1
    logs = {i: math.log(abs(c)) for i, c in enumerate(reversed(a)) if c}
    hull = []
    for i in sorted(logs):
        while len(hull) >= 2:
            h0, h1 = hull[-2], hull[-1]
            if (h1 - h0) * (logs[i] - logs[h0]) < (logs[h1] - logs[h0]) * (i - h0):
                break  # h1 lies strictly above the chord from h0 to i
            hull.pop()
        hull.append(i)
    z = []
    for i, j in zip(hull, hull[1:]):
        m = j - i
        radius = math.exp((logs[i] - logs[j]) / m)
        z.extend(cmath.rect(radius, 2 * math.pi * (t / m + i / n) + SEED_ANGLE)
                 for t in range(m))
    return z


def _aberth(a, z):
    """Aberth-Ehrlich iteration from start points z, in place, Gauss-Seidel order.

    A point stops moving once |p| there is within the rounding error of
    evaluating p in doubles.  Returns the points and the largest
    sensitivity among their last evaluations.
    """
    n = len(z)
    sensitivity = [0.0] * n
    moving = set(range(n))
    for _ in range(ABERTH_STEPS):
        for i in sorted(moving):
            zi = z[i]
            ratio, sensitivity[i], settled = _newton_ratio(a, zi)
            if settled:
                moving.discard(i)
                continue
            pull = sum(1 / (zi - z[j]) for j in range(n) if j != i)
            z[i] = zi - ratio / (1 - ratio * pull)
        if not moving:
            break
    return z, max(sensitivity)


def _newton_ratio(a, z):
    """Newton ratio, sensitivity and settled flag of p at z, in doubles.

    The ratio is p(z)/p'(z) and the sensitivity sum|a_k||z|^k / |p'(z)|;
    settled means |p(z)| is at the rounding level of its evaluation.
    Outside the unit disc p is evaluated through its reversal at 1/z, so
    the powers of z cannot overflow.
    """
    n = len(a) - 1
    big = abs(z) > 1
    w, coeffs = (1 / z, reversed(a)) if big else (z, a)
    aw = abs(w)
    p = dp = 0j
    bound = 0.0
    for c in coeffs:
        dp = dp * w + p
        p = p * w + c
        bound = bound * aw + abs(c)
    settled = abs(p) <= 4 * (n + 1) * sys.float_info.epsilon * bound
    # Outside the disc, p'(z) = z^(n-1) (n r(w) - w r'(w)) for the reversal r.
    zz, d = (z, n * p - w * dp) if big else (1, dp)
    return zz * p / d, abs(zz) * bound / abs(d), settled


# -- Newton refinement ------------------------------------------------------


def newton_refine_pair(a: HomPoly, b: HomPoly, point, precision: int, maxsteps: int = 200):
    """Newton-refine an approximate common zero of two ternary forms.

    The point is refined in the affine chart of its max-modulus coordinate.
    The two forms are compiled once per call (:class:`MpForm`), and their
    four partials once, at the first step.  Returns
    ``(refined_point, residual)`` with the point normalized, or raises
    NumericalError after ``maxsteps`` without convergence.
    """
    with mpmath.workprec(precision):
        pt, chart = normalize_point(point)
        idx = [i for i in range(3) if i != chart]
        forms = [MpForm(a), MpForm(b)]
        jacobian = None  # compiled at the first step; most points need none
        zero = mpc_from(0)
        target = tolerances(precision).refine_target
        u, v = pt[idx[0]], pt[idx[1]]

        def coords(uu, vv):
            c = [None] * 3
            c[chart] = mpc_from(1)
            c[idx[0]] = uu
            c[idx[1]] = vv
            return tuple(c)

        res = None
        for _ in range(maxsteps):
            c = coords(u, v)
            fa, fb = (zero + f(c) for f in forms)
            res = max(mpmath.fabs(fa), mpmath.fabs(fb))
            if res < target:
                return normalize_point(c)[0], res
            if jacobian is None:
                jacobian = [MpForm(poly.partial(f, j)) for f in (a, b) for j in idx]
            j00, j01, j10, j11 = (zero + f(c) for f in jacobian)
            det = j00 * j11 - j01 * j10
            if mpmath.fabs(det) == 0:
                raise NumericalError("singular Jacobian in Newton refinement")
            du = (fa * j11 - fb * j01) / det
            dv = (fb * j00 - fa * j10) / det
            u, v = u - du, v - dv
        raise NumericalError(f"Newton did not reach {mpmath.nstr(target)} (residual {mpmath.nstr(res)})")


# -- common zeros of two plane curves ---------------------------------------


def solve_pair_p2(a: HomPoly, b: HomPoly, precision: int):
    """Common projective zeros of two coprime ternary forms.

    Returns ``(points, mults)`` where points is a list of normalized
    triples, of Fractions for a rational point and of mpc values otherwise,
    and mults is a parallel list of eliminant root multiplicities (1 for
    simple roots; > 1 marks a point that deserves suspicion).  Every point
    is a common zero: see :func:`_affine_pair_solutions`.  Raises
    NumericalError when the forms share a factor (positive-dimensional
    intersection), when root finding or the Newton refinement of a point
    fails, or when the chart z = 1 cannot be solved in either order.
    """
    if a.nvars != 3 or b.nvars != 3:
        raise NumericalError("pair solver expects ternary forms")
    g = poly.gcd(a, b)
    if not g.is_constant():
        raise NumericalError("forms share a common factor; intersection is a curve")
    points, mults = PointSet(precision), []
    with mpmath.workprec(precision):

        def push(pt, mult):
            i = points.add(pt)
            if i is None:
                mults.append(mult)
            else:
                mults[i] = max(mults[i], mult)

        # Affine chart z != 0.
        a2 = poly.strip_var(a, 2)
        b2 = poly.strip_var(b, 2)
        if not a2.is_constant() and not b2.is_constant():
            for pt, mult in _affine_pair_solutions(a2, b2, precision):
                push(pt, mult)
        # The line z = 0 separately.
        gline = poly.gcd(poly.slice_poly(a, 2), poly.slice_poly(b, 2))
        if gline.is_zero():
            raise NumericalError("both forms vanish on a coordinate line")
        if not gline.is_constant():
            for (r0, r1), mult in _exact_binary_roots(gline, precision):
                push(_normalized((r0, r1, Fraction(0))), mult)

        # Eliminant multiplicities overcount when distinct points share the
        # eliminated coordinate; a transverse point (independent gradients)
        # is certainly simple, so downgrade its hint.
        suspects = [i for i, mult in enumerate(mults) if mult > 1]
        grads = [[MpForm(poly.partial(f, j)) for j in range(3)]
                 for f in (a, b)] if suspects else []
        zero = mpc_from(0)
        for i in suspects:
            c = tuple(mpc_from(x) for x in points.points[i])
            va, vb = ([zero + d(c) for d in grad] for grad in grads)
            cross = max(mpmath.fabs(va[j] * vb[k] - va[k] * vb[j])
                        for j, k in ((1, 2), (2, 0), (0, 1)))
            na = max(mpmath.fabs(v) for v in va)
            nb = max(mpmath.fabs(v) for v in vb)
            if na > 0 and nb > 0 and cross > tolerances(precision).dedup * na * nb:
                mults[i] = 1
    return points.points, mults


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


def _exact_binary_roots(q: HomPoly, precision: int):
    """:func:`binary_form_roots`, with each rational root an exact pair of
    Fractions from :func:`poly.linear_factors`, ahead of the other roots of
    its square-free piece."""
    out = []
    for mult, piece in poly.binary_squarefree_decomposition(q):
        factors, rest = poly.linear_factors(piece)
        roots = [poly.root_of_binary_linear(form) for form, _m in factors]
        roots += [r for r, _m in binary_form_roots(rest, precision)]
        out.extend((r, mult) for r in roots)
    return out


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
    open_pieces = poly.binary_squarefree_decomposition(
        poly.strip_var(poly.slice_poly(eliminant, elim), 1))
    out = []
    for rows in _fiber_chain(a, b, elim):
        coeffs = [poly.slice_poly(r, elim) for r in rows]
        compiled = []  # the row's MpForms, built at its first irrational x0
        still = []
        for mult, piece in open_pieces:
            rest = poly.gcd(piece, coeffs[-1])
            for (r0, r1), _m in _exact_binary_roots(poly.exact_divide(piece, rest),
                                                    precision):
                out += [(pt, mult) for pt in _fiber_points(
                    a, b, coeffs, compiled, r0 / r1, keep, precision)]
            if not rest.is_constant():
                still.append((mult, rest))
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


def _fiber_points(a: HomPoly, b: HomPoly, coeffs: list, compiled: list, x0,
                  keep: int, precision: int) -> list:
    """The common zeros of a and b with x_keep = x0, z = 1 and x_elim a root
    y of sum coeffs[k](x0) y^k, the coeffs being binary forms in (x_keep, z).

    A rational x0 gives an exact fiber, and a rational point comes back as
    Fractions.  Elsewhere the fiber's coefficients are evaluated at twice
    the precision, by ``compiled``: the coeffs as :class:`MpForm` built
    there, filled in at the row's first irrational x0.  A linear fiber is
    solved by one division and a longer one by :func:`_polyroots`.
    Newton's method polishes every point that is not exact, and its failure
    raises.
    """
    t = len(coeffs) - 1
    if isinstance(x0, Fraction):
        fiber = HomPoly(2, t, {(k, t - k): c.evaluate((x0, 1)) for k, c in enumerate(coeffs)})
        ys = [y0 / y1 for (y0, y1), _m in _exact_binary_roots(fiber, precision)]
    else:
        with mpmath.workprec(2 * precision):
            if not compiled:
                compiled.extend(MpForm(c) for c in coeffs)
            at = (mpc_from(x0), mpc_from(1))
            vals = [mpc_from(0) + f(at) for f in compiled]
            ys = [-vals[0] / vals[1]] if t == 1 else None
        ys = ys or _polyroots(vals[::-1], precision)
    pts = [(x0, y, Fraction(1)) if keep == 0 else (y, x0, Fraction(1)) for y in ys]
    return [_normalized(pt) if is_exact(pt) else newton_refine_pair(a, b, pt, precision)[0]
            for pt in pts]
