"""Periodic points, multiplier spectra, and eigenvalue audits.

Period-l points are isolated by exact elimination per affine chart: the
fixed-point conditions of the l-th iterate, with the chart's coordinate
factors stripped, feed the two-form solver on P^2 or the binary root finder
on P^1.  On P^2 the fixed points on the chart's own coordinate line, which
the stripping drops, come exactly from one binary gcd.  Charts are solved
in order and their candidates merged, verified against the map itself, and
annotated with minimal periods.  The solve stops at the first chart where
the fixed-point count certifies the points: (D^(k+1)-1)/(D-1) distinct
verified points of the degree-D iterate are all of them, each simple.

Multiplier spectra chain single-step chart-transition Jacobians along the
orbit, each factor evaluated at a max-modulus-normalized representative in
its own best chart, so no step divides by a small denominator.  The
classification of eigenvalues and the audit verdicts follow the configured
tolerance set; an audit separates hard violations from findings that only
flag undecidable neutral values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import mpmath
from mpmath.libmp import (fone, from_float, from_int, from_man_exp, fzero, mpc_abs, mpc_add,
                          mpc_div_mpf, mpc_mul, mpc_mul_int, mpc_pos, mpc_sqrt, mpc_sub,
                          mpc_sub_mpf, mpf_abs, mpf_gt, mpf_lt, mpf_mul, mpf_pow_int, mpf_sub,
                          to_float)

from . import numeric, poly, projmap
from .projmap import ProjectiveMap

# (d^l + 1)^k may not exceed it, so d^l <= 255: the iterate of a period
# the budget admits stays under projmap.DEFAULT_DEGREE_CAP.
ELIMINATION_BUDGET = 256

EPS_ZERO = 1e-10
EPS_NEUTRAL = 1e-8
EPS_ROOT = 1e-8
Q_MAX = 64


class BudgetError(RuntimeError):
    """The requested elimination exceeds the configured budget."""


class PeriodicError(RuntimeError):
    """Period-point isolation failed structurally."""


@dataclass(frozen=True)
class PeriodicPoint:
    point: numeric.Point  # normalized: its max-modulus coordinate is 1
    period: int  # minimal period
    residual: object  # mpf: proj_distance(f^l(p), p)
    # On P^1 the exact multiplicity of the point as a root of the fixed
    # form of f^l.  On P^2 always 1: find_periodic counts points, and a
    # certified count makes every point simple.
    multiplicity: int
    # (precision, the map's partials as MpForms, the first `period` entries
    # of _walk from normalize_point(point)) for multipliers, or None
    orbit: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EigenClass:
    value: object  # mpc
    kind: str  # zero | attracting-nonzero | parabolic | neutral-irrational-candidate | repelling
    root_order: Optional[int] = None  # q with value^q ~ 1, parabolic only


def _point_sort_key(pt: numeric.Point, floor):
    """Real, then imaginary parts of a Point's rounded parts; a part below
    ``floor`` in modulus counts as 0."""
    prec, rnd = mpmath.mp._prec_rounding
    floor = floor._mpf_
    return tuple(tuple(0.0 if mpf_lt(mpf_abs(x, prec, rnd), floor) else to_float(x, rnd=rnd)
                       for x in pair) for pair in pt.parts)


def _walk(forms, start, steps: int):
    """``steps`` steps of the orbit of a normalized point under a map.

    ``forms`` are the map's components compiled over one denominator
    (:func:`numeric.compile_forms`) and ``start`` is p_0 as
    :func:`numeric.normalize_point` returns it, a :class:`numeric.Point`.
    Returns the entries ``(p_j, chart of p_j, f(p_j))`` for j < steps, each
    f(p_j) as Gaussian integers and p_(j+1) its normalized Point, and p_steps.
    """
    cur, entries = start, []
    for _ in range(steps):
        vals, nxt = numeric.map_point(forms, cur)
        entries.append((cur, cur.pivot, vals))
        cur = nxt
    return entries, cur


def _fixed_point_candidates_p1(big: ProjectiveMap, precision: int):
    s = poly.variable(2, 0)
    t = poly.variable(2, 1)
    form = big.comps[0] * t - big.comps[1] * s
    if form.is_zero():
        raise PeriodicError("every point is periodic: the iterate is the identity")
    return numeric.binary_form_roots(form, precision)


def _fixed_point_candidates_p2(big: ProjectiveMap, precision: int,
                               failed: Optional[list] = None):
    """Solve the fixed-point system of big chart by chart, in chart order.

    Chart c's equations are x_c F_i - x_i F_c for the two i != c, each
    with every factor x_c stripped.  Yields, for each chart whose pair of
    equations is solved, the list of their distinct common zeros followed
    by the fixed points on the line x_c = 0 (:func:`_line_fixed_points`).
    The common zeros are candidates, not fixed points: a zero that the
    solve finds off the chart, or that a stripped factor would have
    removed, need not be fixed.

    A chart whose solve or line step raises NumericalError (its equations
    kept a common factor, or root finding or a Newton refinement failed)
    is skipped, and ``(chart, error text)`` goes to ``failed`` when that
    list is given.
    """
    for chart in range(3):
        others = [i for i in range(3) if i != chart]
        xc = poly.variable(3, chart)
        eqs = []
        for i in others:
            e = xc * big.comps[i] - poly.variable(3, i) * big.comps[chart]
            if e.is_zero():
                raise PeriodicError(_infinite_fixed_locus(big))
            eqs.append(poly.strip_var(e, chart))
        try:
            pts = numeric.solve_pair_p2(eqs[0], eqs[1], precision)
            pts += _line_fixed_points(big, chart, precision)
        except numeric.NumericalError as exc:
            if failed is not None:
                failed.append((chart, str(exc)))
            continue
        yield pts


def _line_fixed_points(big: ProjectiveMap, chart: int, precision: int) -> list:
    """The fixed points of big on the line x_chart = 0, exactly the roots of
    h, the gcd of F_chart and x_i F_j - x_j F_i (i < j the other indices)
    restricted to the line: there F(p) = (0 : F_i : F_j) is p = (0 : x_i :
    x_j) just when both vanish.  h is the zero form only when the line is
    fixed pointwise, which a map of degree D >= 2 cannot do; then no point
    is added."""
    fc, fi, fj = (poly.slice_poly(big.comps[i], chart)
                  for i in [chart] + [i for i in range(3) if i != chart])
    h = poly.gcd(fc, poly.variable(2, 0) * fj - poly.variable(2, 1) * fi)
    return [] if h.is_zero() else numeric.line_points(h, chart, precision)


def _infinite_fixed_locus(big: ProjectiveMap) -> str:
    """Why some x_i*f_j - x_j*f_i of the plane iterate f vanishes identically."""
    x = [poly.variable(3, i) for i in range(3)]
    if all((x[i] * big.comps[j] - x[j] * big.comps[i]).is_zero()
           for i in range(3) for j in range(i + 1, 3)):
        return "every point is periodic: the iterate is the identity"
    return "the fixed locus of the iterate is not finite: a curve is fixed pointwise"


def _fixed_point_count(m: ProjectiveMap, l: int) -> int:
    """E = sum of D^j over j = 0..k, D = d^l: the fixed points of f^l with
    multiplicity when they are finitely many; find_periodic's certificate."""
    return sum((m.d**l) ** j for j in range(m.k + 1))


def _check_budget(m: ProjectiveMap, l: int) -> None:
    """Raise BudgetError when period l's eliminant degree exceeds the budget."""
    if (m.d**l + 1) ** m.k > ELIMINATION_BUDGET:
        raise BudgetError(
            f"period {l} needs eliminant degree ({m.d}^{l}+1)^{m.k} "
            f"> {ELIMINATION_BUDGET}"
        )


def find_periodic(m: ProjectiveMap, l: int, precision: Optional[int] = None,
                  failed: Optional[list] = None):
    """All points of period dividing l, with minimal periods, by elimination.

    Affine charts are solved one at a time for the stripped fixed-point
    system of the l-th iterate F, and their candidates merged as they
    arrive; a candidate is kept only when the map itself moves it by less
    than a coarse verification tolerance, so spurious chart solutions drop
    out.

    On P^2 one chart holds every fixed point.  A fixed point with x_c != 0
    is a zero of x_c F_i - x_i F_c, and so of what is left when the factors
    x_c are stripped: chart c's solve finds it.  A fixed point with x_c = 0
    is a root of chart c's line step (:func:`_line_fixed_points`).  So the
    first chart whose solve and line step both succeed finds every fixed
    point, and certifies when they are all simple.  The later charts run
    only when a chart fails (its error goes to ``failed``) or the count
    falls short.

    The solve stops at the first chart after which the count certifies the
    points.  F has degree D = d^l, and when its fixed locus is finite it
    has E = (D^(k+1)-1)/(D-1) fixed points counted with multiplicity (E = 3
    for D = 1 on P^2).  So E distinct verified points are all of them, each
    simple, when the locus is finite; and E distinct verified points can
    only be found when it is:

    - On P^1 the fixed form F_0 t - F_1 s is not zero (else the iterate is
      the identity, which raises), so it has finitely many roots.
    - On P^2 with D >= 2, a well-defined map has finitely many fixed
      points.  On a curve V fixed pointwise, O(D)|V = F^*O(1)|V = O(1)|V,
      so O(D-1)|V, of degree (D-1) deg V > 0, would be trivial.
    - A linear map other than the identity fixes at most a line L and one
      point off it.  No chart returns a point of L.  When L is not
      {x_c = 0}, both equations of chart c keep L's form as a common
      factor, so the solve raises and the chart, line step included, is
      skipped.  When L is {x_c = 0}, F_c is a multiple of x_c, stripping
      x_c leaves forms with no zero on L, and the line step finds L fixed
      pointwise and adds nothing.  So the count stays at 1 or less, below
      E = 3.

    A certified point has multiplicity 1.  When the count falls short, all
    charts run; a point of P^1 then keeps its exact multiplicity as a root
    of the fixed form, and a point of P^2 gets 1, since the plane solve
    gives no multiplicities.  Raises BudgetError when the eliminated
    degrees exceed the configured budget.

    ``failed``, when given, receives ``(chart, error text)`` for each chart
    of P^2 whose solve or line step raised and was skipped.
    """
    if l < 1:
        raise PeriodicError("period must be >= 1")
    precision = numeric.resolve_precision(precision)
    _check_budget(m, l)
    big = projmap.iterate(m, l)
    expected = _fixed_point_count(m, l)
    with mpmath.workprec(precision):
        if m.k == 1:
            charts = [_fixed_point_candidates_p1(big, precision)]
        elif m.k == 2:
            charts = ([(pt, 1) for pt in pts]
                      for pts in _fixed_point_candidates_p2(big, precision, failed))
        else:
            raise PeriodicError(f"periodic points implemented for P^1 and P^2, not P^{m.k}")
        tol = numeric.tolerances(precision)
        forms = numeric.compile_forms(m.comps)
        partials = _compiled_partials(m)
        known = numeric.PointSet(precision)
        merged = []  # (mult, residual, orbit entries), parallel to known
        for candidates in charts:
            for pt, mult in candidates:
                pt = numeric.normalize_point(pt)[0]  # a Point as it is
                if known.add(pt) is None:
                    entries, end = _walk(forms, pt, l)
                    merged.append((mult, numeric.proj_distance(end, pt), entries))
            if sum(1 for e in merged if e[1] < tol.verify) == expected:
                break
        if not merged:
            raise PeriodicError("no chart system could be solved")
        out = []
        for pt, (mult, residual, entries) in zip(known.points, merged):
            if residual >= tol.verify:
                continue  # spurious chart solution
            period = next((q for q in range(1, l) if l % q == 0
                           and numeric.same_point(entries[q][0], pt)), l)
            orbit = (precision, partials, entries[:period])
            out.append(PeriodicPoint(pt, period, residual, mult, orbit))
        out.sort(key=lambda p: (p.period, _point_sort_key(p.point, tol.dedup)))
    return out


def find_periods(m: ProjectiveMap, max_period: int, precision: Optional[int],
                 failed: Optional[list]) -> list:
    """``find_periodic(m, l)`` for l = 1..max_period, each set solved once.

    Periods are taken from max_period down.  A period q that divides a
    larger period r whose solve certified, every multiplicity 1, is not
    solved: its points are r's points whose minimal period divides q, each
    with multiplicity 1, its orbit, and the residual |f^q(p) - p| of a
    q-step walk from r's representative, as find_periodic(q) computes it
    for that representative.  The smallest such r is used.  Every other
    period is solved by find_periodic.  That is the same set of points:

    - f^q's fixed points are exactly f^r's fixed points whose minimal
      period divides q, since f^r = (f^q)^(r/q) and a point fixed by f^r
      has f^q(p) = p just when its minimal period divides q.
    - A certified count means that every fixed point of f^r was found, and
      that each is simple (:func:`find_periodic`).
    - A simple fixed point of f^r is simple for f^q: if D(f^q) at p had an
      eigenvalue 1, then 1^(r/q) = 1 would be an eigenvalue of
      D(f^r) = D(f^q)^(r/q).  On P^1, where multiplicities are exact, the
      same holds for the multiplicity of p as a root of the fixed form,
      which is 1 just when the multiplier is not 1.

    The multiplicity rule matters: z -> z^2 - 3/4 has a fixed point of
    multiplier -1, of multiplicity 3 for f^2, so its period 1 is solved.

    Every period's elimination budget is checked first, from period 1 up,
    so a run that exceeds it names the same period as solving 1..max_period
    in order would.  ``failed``, when given, holds one list per period:
    ``failed[l-1]`` receives the chart errors of period l's solve, as in
    find_periodic; a period read off a larger one gets none.
    """
    precision = numeric.resolve_precision(precision)
    for l in range(1, max_period + 1):
        _check_budget(m, l)
    found = [None] * max_period
    certified = set()  # the solved periods whose counts certified
    for q in range(max_period, 0, -1):
        r = next((r for r in range(2 * q, max_period + 1, q) if r in certified), None)
        if r is None:
            pts = find_periodic(m, q, precision, None if failed is None else failed[q - 1])
            if (len(pts) == _fixed_point_count(m, q)
                    and all(p.multiplicity == 1 for p in pts)):
                certified.add(q)
        else:
            pts = _divisor_points(m, found[r - 1], q, precision)
        found[q - 1] = pts
    return found


def _divisor_points(m: ProjectiveMap, points, q: int, precision: int) -> list:
    """The points of period dividing q among a certified larger period's,
    each with the residual of a q-step walk, in their order."""
    with mpmath.workprec(precision):
        forms = numeric.compile_forms(m.comps)
        return [replace(p, residual=numeric.proj_distance(_walk(forms, p.point, q)[1], p.point))
                for p in points if q % p.period == 0]


# -- multipliers --------------------------------------------------------------


def _chart_jacobian(vals, dvals, chart_in: int, chart_out: int, width: int):
    """Derivative of the chart transition of a map f at a normalized point p.

    ``vals[i]`` is f_i(p) and ``dvals[i][j]`` the partial of f_i in x_j at
    p, Gaussian integers at one scale, with p[chart_in] = 1.  Rows range
    over the output chart's affine coordinates, columns over the input
    chart's.  Each entry (dvals[i][j] fb - vals[i] dvals[b][j]) / fb^2, in
    which the scale cancels, is one exact quotient scaled by 2^width.
    """
    b, n, mul = chart_out, len(vals), numeric.gauss_mul
    if (fb := vals[b]) == (0, 0):
        raise numeric.NumericalError("orbit point maps onto a chart boundary")
    square = mul(fb, fb)

    def entry(i, j):
        (pr, pi), (qr, qi) = mul(dvals[i][j], fb), mul(vals[i], dvals[b][j])
        return numeric.gauss_quotient((pr - qr, pi - qi), square, width)

    return [[entry(i, j) for j in range(n) if j != chart_in] for i in range(n) if i != b]


def _mat_mul(a, b, width: int):
    """a b for matrices of Gaussian integers scaled by 2^width, each product
    truncated."""
    return [[tuple(sum(v) >> width for v in zip(*(numeric.gauss_mul(x, y) for x, y in zip(row, col))))
             for col in zip(*b)] for row in a]


def _eigenvalues(matrix, width: int):
    """Eigenvalues of the 1x1 or 2x2 fixed-point derivative of a map of P^1
    or P^2, as mpc.  A discriminant tr^2 - 4 det below (dedup max(1, |tr|))^2
    in modulus is taken as 0, so eigenvalues within dedup of each other
    come out equal instead of apart by the square root of rounding noise.

    The arithmetic is libmp's, each call the one mpmath's operators make
    for (tr +- sqrt(tr^2 - 4 (ad - bc))) / 2 at the working precision, in
    their order, so the bits are those of the operator expression.
    """
    prec, rnd = mpmath.mp._prec_rounding
    m = [[(from_man_exp(x, -width, prec, rnd), from_man_exp(y, -width, prec, rnd)) for x, y in row]
         for row in matrix]
    if len(m) == 1:
        return (mpmath.mp.make_mpc(m[0][0]),)
    (a, b), (c, d) = m
    tr = mpc_add(a, d, prec, rnd)
    det = mpc_sub(mpc_mul(a, d, prec, rnd), mpc_mul(b, c, prec, rnd), prec, rnd)
    disc = mpc_sub(mpc_mul(tr, tr, prec, rnd), mpc_mul_int(det, 4, prec, rnd), prec, rnd)
    dedup, size = numeric.tolerances(prec).dedup._mpf_, mpc_abs(tr, prec, rnd)
    scale = mpf_mul(dedup, size, prec, rnd) if mpf_gt(size, fone) else dedup  # dedup has p bits
    if mpf_lt(mpc_abs(disc, prec, rnd), mpf_pow_int(scale, 2, prec, rnd)):
        disc = (fzero, fzero)
    root, two = mpc_sqrt(disc, prec, rnd), from_int(2)
    return tuple(mpmath.mp.make_mpc(mpc_div_mpf(op(tr, root, prec, rnd), two, prec, rnd))
                 for op in (mpc_add, mpc_sub))


def _compiled_partials(m: ProjectiveMap):
    """The partials of m's components as MpForms over the components' one
    denominator, [i][j] for f_i in x_j."""
    n = m.k + 1  # the partials' denominators divide the components'
    flat = numeric.compile_forms(list(m.comps) + [poly.partial(c, j) for c in m.comps for j in range(n)])
    return [flat[n * (i + 1):n * (i + 2)] for i in range(n)]


def multipliers(m: ProjectiveMap, point, period: int,
                precision: Optional[int] = None, orbit: Optional[tuple] = None):
    """Eigenvalues of the derivative of f^period at a periodic point.

    The derivative is the ordered product of one-step chart-transition
    Jacobians along the orbit; the eigenvalues come in closed form.
    Sorted by descending modulus for stable reporting; moduli that agree
    within 10^-(precision//8) count as equal and order by (re, im), so a
    pair such as +-2 does not take its order from rounding noise.

    ``orbit`` is a :class:`PeriodicPoint`'s ``orbit`` for this map, point
    and period: the compiled partials and the points, charts and f-values
    that the walk from the point computes.  It is used when its precision
    is ``precision``; otherwise they are computed here.
    """
    if period < 1:
        raise PeriodicError("period must be >= 1")
    precision = numeric.resolve_precision(precision)
    with mpmath.workprec(precision):
        if orbit is not None and orbit[0] == precision:
            _prec, partials, entries = orbit
        else:
            start = numeric.normalize_point(point)[0]
            entries = _walk(numeric.compile_forms(m.comps), start, period)[0]
            partials = _compiled_partials(m)
        total, width = None, precision + numeric.GUARD_BITS
        for j, (pt, chart, vals) in enumerate(entries):
            dvals = [[d.fixed(pt.fixed) for d in row] for row in partials]
            step = _chart_jacobian(vals, dvals, chart, entries[(j + 1) % period][1], width)
            total = step if total is None else _mat_mul(step, total, width)
        return tuple(numeric.canonical_order(
            _eigenvalues(total, width),
            (lambda v: -mpmath.fabs(v), lambda v: v.real, lambda v: v.imag),
            numeric.tolerances(precision).dedup))


# -- classification and audits ------------------------------------------------


# the bands as mpmath compares a float with an mpf
_BANDS = tuple(from_float(e) for e in (EPS_ZERO, EPS_NEUTRAL, EPS_ROOT))


def classify(spectrum):
    """Classification of each eigenvalue in the bands EPS_ZERO, EPS_NEUTRAL,
    EPS_ROOT and Q_MAX, which the ``bounds`` section of a report lists.

    Each value, an mpc, is rounded to the working precision and compared
    in libmp, each call the one mpmath's operators make, so the verdicts and
    values are those of the operator expressions.
    """
    prec, rnd = mpmath.mp._prec_rounding
    eps_zero, eps_neutral, eps_root = _BANDS
    out = []
    for lam in spectrum:
        z = mpc_pos(lam._mpc_, prec, rnd)
        lam, mod = mpmath.mp.make_mpc(z), mpc_abs(z, prec, rnd)
        if mpf_lt(mod, eps_zero):
            out.append(EigenClass(lam, "zero"))
        elif mpf_lt(mpf_abs(mpf_sub(mod, fone, prec, rnd), prec, rnd), eps_neutral):
            order, power = None, (fone, fzero)
            for q in range(1, Q_MAX + 1):
                power = mpc_mul(power, z, prec, rnd)
                if mpf_lt(mpc_abs(mpc_sub_mpf(power, fone, prec, rnd), prec, rnd), eps_root):
                    order = q
                    break
            if order is not None:
                out.append(EigenClass(lam, "parabolic", order))
            else:
                out.append(EigenClass(lam, "neutral-irrational-candidate"))
        elif mpf_lt(mod, fone):
            out.append(EigenClass(lam, "attracting-nonzero"))
        else:
            out.append(EigenClass(lam, "repelling"))
    return tuple(out)


@dataclass(frozen=True)
class SpectrumVerdict:
    point: PeriodicPoint
    spectrum: tuple
    classes: tuple
    violations: tuple
    findings: tuple


@dataclass(frozen=True)
class AuditReport:
    verdicts: tuple
    violations: tuple
    findings: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _audit_classes(classes):
    """The violations and findings of one point's classes, each message
    without the point's label."""
    violations = []
    findings = []
    kinds = [c.kind for c in classes]
    for c in classes:
        if c.kind == "attracting-nonzero":
            violations.append(f"attracting non-zero eigenvalue {mpmath.nstr(c.value, 12)}")
        elif c.kind == "parabolic":
            violations.append(
                f"root-of-unity eigenvalue {mpmath.nstr(c.value, 12)} (order {c.root_order})")
        elif c.kind == "neutral-irrational-candidate":
            findings.append(
                f"neutral eigenvalue {mpmath.nstr(c.value, 12)} is not a"
                " root of unity within tolerance; undecidable numerically")
    if "repelling" not in kinds and any(k != "zero" for k in kinds):
        if "neutral-irrational-candidate" in kinds:
            findings.append("no repelling eigenvalue alongside undecided neutral values")
        else:
            violations.append("non-nilpotent spectrum without a repelling eigenvalue")
    return tuple(violations), tuple(findings)


def eigenvalue_audit(m: ProjectiveMap, max_period: int,
                     precision: Optional[int] = None,
                     points: Optional[Sequence[Sequence[PeriodicPoint]]] = None
                     ) -> AuditReport:
    """Audit every periodic point of period <= max_period.

    ``points[l-1]``, when given, is the result of ``find_periodic(m, l)``
    for l = 1..max_period; otherwise :func:`find_periods` finds them.  A point
    is audited once, in the call for its minimal period, whose points are
    distinct already.  Hard violations are attracting non-zero or
    root-of-unity eigenvalues, and non-nilpotent spectra with no repelling
    direction; numerically undecidable neutral values are reported as
    findings, never violations.
    """
    precision = numeric.resolve_precision(precision)
    verdicts = []
    all_violations = []
    all_findings = []
    if points is None:
        points = find_periods(m, max_period, precision, None)
    with mpmath.workprec(precision):
        for l in range(1, max_period + 1):
            for pp in points[l - 1]:
                if pp.period != l:
                    continue  # audited at its minimal period
                spectrum = multipliers(m, pp.point, pp.period, precision, pp.orbit)
                classes = classify(spectrum)
                violations, findings = _audit_classes(classes)
                if violations or findings:  # the label costs three nstr calls
                    label = f"period {pp.period} point {numeric.format_point(pp.point, 12)}"
                    violations, findings = (tuple(f"{label}: {text}" for text in v)
                                            for v in (violations, findings))
                verdicts.append(SpectrumVerdict(pp, spectrum, classes, violations, findings))
                all_violations.extend(violations)
                all_findings.extend(findings)
    return AuditReport(tuple(verdicts), tuple(all_violations), tuple(all_findings))


@dataclass(frozen=True)
class BezoutCount:
    period: int
    expected: int
    distinct: int
    weighted: int

    @property
    def ok(self) -> bool:
        return self.weighted == self.expected


def bezout_audit(m: ProjectiveMap, l: int,
                 points: Optional[Sequence[PeriodicPoint]] = None,
                 precision: Optional[int] = None) -> BezoutCount:
    """Compare the period-l point count with ((d^l)^(k+1)-1)/(d^l-1).

    ``distinct`` counts the points and ``weighted`` sums their
    multiplicities.  On P^1 those are exact, so ``weighted`` equals
    ``expected`` whenever every root of the fixed form was found, simple
    or not.  On P^2 every multiplicity is 1 and ``weighted`` equals
    ``distinct``: the count is ``ok`` only when find_periodic certified
    the points, all simple.
    """
    if points is None:
        points = find_periodic(m, l, precision)
    weighted = sum(p.multiplicity for p in points)
    return BezoutCount(l, _fixed_point_count(m, l), len(points), weighted)
