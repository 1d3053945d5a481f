"""Periodic points, multiplier spectra, and eigenvalue audits.

Period-l points are isolated by exact elimination per affine chart: the
fixed-point conditions of the l-th iterate, with the chart's coordinate
factors stripped, feed the two-form solver on P^2 or the binary root finder
on P^1.  Charts are solved in order and their candidates merged, verified
against the map itself, and annotated with minimal periods.  The solve
stops at the first chart where the fixed-point count certifies the points:
(D^(k+1)-1)/(D-1) distinct verified points of the degree-D iterate are all
of them, each simple.

Multiplier spectra chain single-step chart-transition Jacobians along the
orbit, each factor evaluated at a max-modulus-normalized representative in
its own best chart, so no step divides by a small denominator.  The
classification of eigenvalues and the audit verdicts follow the configured
tolerance set; an audit separates hard violations from findings that only
flag undecidable neutral values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import mpmath

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


def _point_sort_key(coords, floor):
    """Real, then imaginary parts; a part below ``floor`` in modulus counts as 0."""
    return tuple(tuple(0.0 if abs(x) < floor else float(x)
                       for x in (mpmath.re(c), mpmath.im(c))) for c in coords)


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
    equations is solved, the list of their distinct common zeros.  These
    are candidates, not fixed points: a zero that the solve finds off the
    chart, or that a stripped factor would have removed, need not be fixed.

    A chart whose solve raises NumericalError (its equations kept a common
    factor, or root finding or a Newton refinement failed) is skipped, and
    ``(chart, error text)`` goes to ``failed`` when that list is given.
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
        except numeric.NumericalError as exc:
            if failed is not None:
                failed.append((chart, str(exc)))
            continue
        yield pts


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


def find_periodic(m: ProjectiveMap, l: int, precision: Optional[int] = None,
                  failed: Optional[list] = None):
    """All points of period dividing l, with minimal periods, by elimination.

    Affine charts are solved one at a time for the stripped fixed-point
    system of the l-th iterate F, and their candidates merged as they
    arrive; a candidate is kept only when the map itself moves it by less
    than a coarse verification tolerance, so spurious chart solutions drop
    out.

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
      point off it.  No chart solve returns a point of L.  When L is not
      {x_c = 0}, both equations of chart c keep L's form as a common
      factor, so the solve raises and the chart is skipped.  When L is
      {x_c = 0}, F_c is a multiple of x_c, and stripping x_c leaves forms
      with no zero on L.  So the count stays at 1 or less, below E = 3.

    A certified point has multiplicity 1.  When the count falls short, all
    charts run; a point of P^1 then keeps its exact multiplicity as a root
    of the fixed form, and a point of P^2 gets 1, since the plane solve
    gives no multiplicities.  Raises BudgetError when the eliminated
    degrees exceed the configured budget.

    ``failed``, when given, receives ``(chart, error text)`` for each chart
    of P^2 whose solve raised and was skipped.
    """
    if l < 1:
        raise PeriodicError("period must be >= 1")
    precision = numeric.resolve_precision(precision)
    if (m.d**l + 1) ** m.k > ELIMINATION_BUDGET:
        raise BudgetError(
            f"period {l} needs eliminant degree ({m.d}^{l}+1)^{m.k} "
            f"> {ELIMINATION_BUDGET}"
        )
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
                           and numeric.proj_distance(entries[q][0], pt) < tol.dedup), l)
            orbit = (precision, partials, entries[:period])
            out.append(PeriodicPoint(pt, period, residual, mult, orbit))
        out.sort(key=lambda p: (p.period, _point_sort_key(p.point, tol.dedup)))
    return out


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
    come out equal instead of apart by the square root of rounding noise."""
    prec = mpmath.mp.prec
    matrix = [[mpmath.mpc(mpmath.mpf((x, -width)), mpmath.mpf((y, -width))) for x, y in row]
              for row in matrix]
    if len(matrix) == 1:
        return (matrix[0][0],)
    tr = matrix[0][0] + matrix[1][1]
    disc = tr * tr - 4 * (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0])
    if mpmath.fabs(disc) < (numeric.tolerances(prec).dedup * max(1, mpmath.fabs(tr))) ** 2:
        disc = mpmath.mpc(0)
    root = mpmath.sqrt(disc)
    return ((tr + root) / 2, (tr - root) / 2)


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


def classify(spectrum):
    """Classification of each eigenvalue in the bands EPS_ZERO, EPS_NEUTRAL,
    EPS_ROOT and Q_MAX, which the ``bounds`` section of a report lists."""
    out = []
    for lam in spectrum:
        lam = numeric.mpc_from(lam)
        mod = mpmath.fabs(lam)
        if mod < EPS_ZERO:
            out.append(EigenClass(lam, "zero"))
        elif mpmath.fabs(mod - 1) < EPS_NEUTRAL:
            order = None
            power = mpmath.mpc(1)
            for q in range(1, Q_MAX + 1):
                power *= lam
                if mpmath.fabs(power - 1) < EPS_ROOT:
                    order = q
                    break
            if order is not None:
                out.append(EigenClass(lam, "parabolic", order))
            else:
                out.append(EigenClass(lam, "neutral-irrational-candidate"))
        elif mod < 1:
            out.append(EigenClass(lam, "attracting-nonzero"))
        else:
            out.append(EigenClass(lam, "repelling"))
    return tuple(out)


def _format_point(coords) -> str:
    return "(" + ", ".join(mpmath.nstr(c, 12) for c in coords) + ")"


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


def _audit_classes(label: str, classes):
    violations = []
    findings = []
    kinds = [c.kind for c in classes]
    for c in classes:
        if c.kind == "attracting-nonzero":
            violations.append(
                f"{label}: attracting non-zero eigenvalue {mpmath.nstr(c.value, 12)}")
        elif c.kind == "parabolic":
            violations.append(
                f"{label}: root-of-unity eigenvalue {mpmath.nstr(c.value, 12)}"
                f" (order {c.root_order})")
        elif c.kind == "neutral-irrational-candidate":
            findings.append(
                f"{label}: neutral eigenvalue {mpmath.nstr(c.value, 12)} is not a"
                " root of unity within tolerance; undecidable numerically")
    if "repelling" not in kinds and any(k != "zero" for k in kinds):
        if "neutral-irrational-candidate" in kinds:
            findings.append(
                f"{label}: no repelling eigenvalue alongside undecided neutral values")
        else:
            violations.append(
                f"{label}: non-nilpotent spectrum without a repelling eigenvalue")
    return tuple(violations), tuple(findings)


def eigenvalue_audit(m: ProjectiveMap, max_period: int,
                     precision: Optional[int] = None,
                     points: Optional[Sequence[Sequence[PeriodicPoint]]] = None
                     ) -> AuditReport:
    """Audit every periodic point of period <= max_period.

    ``points[l-1]``, when given, is the result of ``find_periodic(m, l)``
    for l = 1..max_period; otherwise each period is solved here.  A point
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
    with mpmath.workprec(precision):
        for l in range(1, max_period + 1):
            found = find_periodic(m, l, precision) if points is None else points[l - 1]
            for pp in found:
                if pp.period != l:
                    continue  # audited at its minimal period
                spectrum = multipliers(m, pp.point, pp.period, precision, pp.orbit)
                classes = classify(spectrum)
                label = f"period {pp.period} point {_format_point(pp.point)}"
                violations, findings = _audit_classes(label, classes)
                verdicts.append(SpectrumVerdict(pp, spectrum, classes,
                                                violations, findings))
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
