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

from . import poly
from .poly import HomPoly

DEFAULT_PRECISION = 256  # bits


class NumericalError(RuntimeError):
    """A numeric routine could not reach its accuracy contract."""


class IndeterminatePointError(NumericalError):
    """Every coordinate of an evaluated point fell below the precision floor."""


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
    zero_floor: mpmath.mpf  # 2^-(p-8): a magnitude this small, relative, is zero
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


def eval_form(p: HomPoly, coords) -> mpmath.mpc:
    """Evaluate a form at mpc coordinates (exact coefficients, one rounding each)."""
    return mpc_from(0) + p.evaluate(tuple(mpc_from(c) for c in coords))


def normalize_point(coords, floor_exp_shift: int = 8):
    """Scale a projective representative so its max-modulus coordinate is 1.

    Ties pick the lowest index.  Raises IndeterminatePointError when every
    coordinate sits below the working-precision floor (2^-(prec - shift)).
    """
    vals = [mpc_from(c) for c in coords]
    mags = [mpmath.fabs(v) for v in vals]
    best = 0
    for i in range(1, len(vals)):
        if mags[i] > mags[best]:
            best = i
    floor = mpmath.mpf(2) ** (-(mpmath.mp.prec - floor_exp_shift))
    if mags[best] < floor:
        raise IndeterminatePointError(
            f"all coordinates below 2^-{mpmath.mp.prec - floor_exp_shift}"
        )
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


class PointSet:
    """Projective points kept apart by the precision's dedup tolerance.

    Comparisons run at the caller's working precision.
    """

    def __init__(self, precision: int):
        self.tol = tolerances(precision).dedup
        self.points = []

    def find(self, pt) -> Optional[int]:
        """Index of the first known point within dedup of pt, or None."""
        for i, known in enumerate(self.points):
            if proj_distance(known, pt) < self.tol:
                return i
        return None

    def add(self, pt) -> Optional[int]:
        """Append pt and return None, or return the index of a known point within dedup."""
        i = self.find(pt)
        if i is None:
            self.points.append(pt)
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
                a = piece.terms.get((1, 0), Fraction(0))
                b = piece.terms.get((0, 1), Fraction(0))
                out.append(((mpc_from(-b), mpc_from(a)), mult))
                continue
            n = piece.var_degree(0)
            if n < piece.degree:
                # A square-free piece with a dropped x0-degree carries an
                # x1 factor, which the decomposition already split off.
                raise NumericalError("unexpected degree drop in square-free piece")
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


def univariate_roots(coeffs, precision: int):
    """Roots of a univariate polynomial given by mpc coefficients, highest first.

    Leading (numerically negligible) coefficients are trimmed against the
    largest coefficient before solving.
    """
    with mpmath.workprec(precision):
        mags = [mpmath.fabs(c) for c in coeffs]
        biggest = max(mags) if mags else mpmath.mpf(0)
        if biggest == 0:
            raise NumericalError("zero polynomial in univariate solve")
        tol = biggest * tolerances(precision).zero_floor
        start = 0
        while start < len(coeffs) - 1 and mags[start] <= tol:
            start += 1
        trimmed = coeffs[start:]
        if len(trimmed) <= 1:
            return []
        return _polyroots(list(trimmed), precision)


# -- Newton refinement ------------------------------------------------------


def rationalize(value, precision: int, max_denominator: int = 10**12):
    """Nearest rational to a high-precision value, or None.

    Accepts mpf or mpc input; an mpc must have negligible imaginary part.
    The candidate comes from a continued-fraction bound and is accepted only
    when it reproduces the value to 10^-(precision//16).
    """
    with mpmath.workprec(precision):
        tol = tolerances(precision).verify
        x = mpmath.mpc(value)
        if mpmath.fabs(x.imag) > tol:
            return None
        r = x.real
        shift = mpmath.mpf(2) ** precision
        approx = Fraction(int(mpmath.nint(r * shift)), 2**precision)
        cand = approx.limit_denominator(max_denominator)
        if mpmath.fabs(r - mpmath.mpf(cand.numerator) / cand.denominator) > tol:
            return None
        return cand


def newton_refine_pair(a: HomPoly, b: HomPoly, point, precision: int, maxsteps: int = 200):
    """Newton-refine an approximate common zero of two ternary forms.

    The point is refined in the affine chart of its max-modulus coordinate.
    Returns ``(refined_point, residual)`` with the point normalized, or
    raises NumericalError after ``maxsteps`` without convergence.
    """
    with mpmath.workprec(precision):
        pt, chart = normalize_point(point)
        idx = [i for i in range(3) if i != chart]
        d_a = [poly.partial(a, j) for j in idx]
        d_b = [poly.partial(b, j) for j in idx]
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
            fa, fb = eval_form(a, c), eval_form(b, c)
            res = max(mpmath.fabs(fa), mpmath.fabs(fb))
            if res < target:
                return normalize_point(c)[0], res
            j00, j01 = eval_form(d_a[0], c), eval_form(d_a[1], c)
            j10, j11 = eval_form(d_b[0], c), eval_form(d_b[1], c)
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

    Returns ``(points, mults)`` where points is a list of normalized mpc
    triples and mults is a parallel list of eliminant root multiplicities
    (1 for simple roots; > 1 marks a point that deserves suspicion).  Raises
    NumericalError when the forms share a factor (positive-dimensional
    intersection).
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
        abar = poly.slice_poly(a, 2)
        bbar = poly.slice_poly(b, 2)
        if abar.is_zero() and bbar.is_zero():
            raise NumericalError("both forms vanish on a coordinate line")
        if abar.is_zero() or bbar.is_zero():
            gline = bbar if abar.is_zero() else abar
        else:
            gline = poly.gcd(abar, bbar)
        if not gline.is_constant() and not gline.is_zero():
            for (r0, r1), mult in binary_form_roots(gline, precision):
                pt = normalize_point((r0, r1, mpc_from(0)))[0]
                push(pt, mult)

        # Eliminant multiplicities overcount when distinct points share the
        # eliminated coordinate; a transverse point (independent gradients)
        # is certainly simple, so downgrade its hint.
        ga = [[poly.partial(a, j), poly.partial(b, j)] for j in range(3)]
        for i, pt in enumerate(points.points):
            if mults[i] == 1:
                continue
            va = [eval_form(ga[j][0], pt) for j in range(3)]
            vb = [eval_form(ga[j][1], pt) for j in range(3)]
            cross = max(
                mpmath.fabs(va[1] * vb[2] - va[2] * vb[1]),
                mpmath.fabs(va[2] * vb[0] - va[0] * vb[2]),
                mpmath.fabs(va[0] * vb[1] - va[1] * vb[0]),
            )
            na = max(mpmath.fabs(v) for v in va)
            nb = max(mpmath.fabs(v) for v in vb)
            if na > 0 and nb > 0 and cross > tolerances(precision).dedup * na * nb:
                mults[i] = 1
    return points.points, mults


def _affine_pair_solutions(a: HomPoly, b: HomPoly, precision: int):
    """Solutions with z != 0 of two ternary forms without z factors."""
    tol = tolerances(precision)
    out = []
    # Eliminate y when possible, else x.
    for elim, keep in ((1, 0), (0, 1)):
        da, db = a.var_degree(elim), b.var_degree(elim)
        if da == 0 and db == 0:
            continue
        if da == 0:
            eliminant = a
        elif db == 0:
            eliminant = b
        else:
            eliminant = poly.resultant_wrt(a, b, elim)
        backsub, other = (b, a) if da == 0 else (a, b)
        if eliminant.is_zero():
            continue
        eliminant_binary = poly.slice_poly(eliminant, elim)
        if eliminant_binary.is_constant():
            continue
        for (r0, r1), mult in binary_form_roots(eliminant_binary, precision):
            if mpmath.fabs(r1) < tol.zero_floor:
                continue  # point at the chart's infinity; other chart logic covers it
            base = r0 / r1
            exact = rationalize(base, precision)
            if exact is not None and eliminant_binary.evaluate((exact, 1)) == 0:
                base = exact
            ws = _backsub_roots(backsub, keep, elim, base, precision)
            if ws is None:
                # backsub vanishes on this whole fiber; the other form of
                # the pair cuts out the fiber's points.
                ws = _backsub_roots(other, keep, elim, base, precision) or []
            for w in ws:
                cand = [None] * 3
                cand[keep] = base
                cand[elim] = w
                cand[2] = mpc_from(1)
                va = eval_form(a, cand)
                vb = eval_form(b, cand)
                if max(mpmath.fabs(va), mpmath.fabs(vb)) > tol.verify:
                    continue
                try:
                    refined, _res = newton_refine_pair(a, b, cand, precision)
                except NumericalError:
                    continue
                out.append((refined, mult))
        if out:
            return out
    return out


def _backsub_roots(p: HomPoly, keep: int, elim: int, base, precision: int):
    """Roots in x_elim of a ternary form at x_keep = base, z = 1.

    A Fraction base is an exact eliminant root: the fiber polynomial is built
    in Fractions and solved by :func:`binary_form_roots`, which splits off
    its repeated roots exactly.  Any other base gives a numeric fiber.
    Returns None when the form vanishes identically on that fiber: exactly,
    or with every coefficient in x_elim negligible against the size of the
    form's coefficients there.  Raises NumericalError when root finding
    fails.
    """
    point = [None] * 3
    point[keep] = base
    point[elim] = 0
    point[2] = 1
    rows = poly.ladder(p, elim)
    if isinstance(base, Fraction):
        coeffs = {t: c for t, c in enumerate(row.evaluate(point) for row in rows) if c}
        if not coeffs:
            return None
        d = max(coeffs)
        fiber = HomPoly(2, d, {(t, d - t): c for t, c in coeffs.items()})
        return [r0 / r1 for (r0, r1), _m in binary_form_roots(fiber, precision)]
    coeffs = [eval_form(row, point) for row in reversed(rows)]
    scale = max(mpmath.fabs(mpc_from(c)) for c in p.terms.values())
    scale *= max(mpmath.mpf(1), mpmath.fabs(base)) ** p.degree
    tol = scale * tolerances(precision).verify
    if all(mpmath.fabs(c) <= tol for c in coeffs):
        return None
    return univariate_roots(coeffs, precision)
