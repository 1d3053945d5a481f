"""Periodic points, multiplier spectra, and eigenvalue audits.

Period-l points are isolated by exact elimination per affine chart: the
fixed-point conditions of the l-th iterate, with the chart's coordinate
factors stripped, feed the two-form solver on P^2 or the binary root finder
on P^1.  Charts are solved in order and their candidates merged, verified
against the map itself, and annotated with minimal periods.  The solve
stops at the first chart where the fixed-point count certifies the points:
once the fixed locus is proven finite, (D^(k+1)-1)/(D-1) distinct verified
points of the degree-D iterate are all of them, each simple.

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
    point: tuple  # max-modulus-normalized mpc coordinates
    period: int  # minimal period
    requested_period: int
    residual: object  # mpf: proj_distance(f^l(p), p)
    multiplicity: int  # eliminant multiplicity hint (1 = simple)
    # (precision, the map's partials as MpForms, the first `period` entries
    # of _walk from normalize_point(point)) for multipliers, or None
    orbit: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def multiplicity_suspect(self) -> bool:
        return self.multiplicity > 1


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

    ``forms`` are the map's components compiled as :class:`numeric.MpForm`
    and ``start`` is ``(p_0, chart)`` as :func:`numeric.normalize_point`
    returns it.  Returns the entries ``(p_j, chart of p_j, f(p_j))`` for
    j < steps, each p_(j+1) the normalized f(p_j), and p_steps.
    """
    cur, chart = start
    entries = []
    for _ in range(steps):
        vals = [f(cur) for f in forms]
        entries.append((cur, chart, vals))
        cur, chart = numeric.normalize_point(vals)
    return entries, cur


def _fixed_point_candidates_p1(big: ProjectiveMap, precision: int):
    s = poly.variable(2, 0)
    t = poly.variable(2, 1)
    form = big.comps[0] * t - big.comps[1] * s
    if form.is_zero():
        raise PeriodicError("every point is periodic: the iterate is the identity")
    return [(root, mult) for root, mult in numeric.binary_form_roots(form, precision)]


def _fixed_point_candidates_p2(big: ProjectiveMap, precision: int,
                               failed: Optional[list] = None):
    """Solve the fixed-point system of big chart by chart, in chart order.

    Yields ``(finite, candidates)`` for each chart whose pair of equations
    is solved, with candidates as ``(point, multiplicity hint)`` pairs.
    ``finite`` is true when the chart stripped no x_c factor, that is when
    x_c does not divide big.comps[c]: then the solve itself proves the fixed
    locus finite, since a fixed curve would either be the invariant line
    x_c = 0 or leave a common factor, on which the solver raises.

    A chart whose solve raises NumericalError (its equations kept a common
    factor, or root finding or a Newton refinement failed) is skipped, and ``(chart, error text)``
    goes to ``failed`` when that list is given.
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
            pts, mults = numeric.solve_pair_p2(eqs[0], eqs[1], precision)
        except numeric.NumericalError as exc:
            if failed is not None:
                failed.append((chart, str(exc)))
            continue
        yield big.comps[chart].min_var_degree(chart) == 0, list(zip(pts, mults))


def _infinite_fixed_locus(big: ProjectiveMap) -> str:
    """Why some x_i*f_j - x_j*f_i of the plane iterate f vanishes identically."""
    x = [poly.variable(3, i) for i in range(3)]
    if all((x[i] * big.comps[j] - x[j] * big.comps[i]).is_zero()
           for i in range(3) for j in range(i + 1, 3)):
        return "every point is periodic: the iterate is the identity"
    return "the fixed locus of the iterate is not finite: a curve is fixed pointwise"


def find_periodic(m: ProjectiveMap, l: int, precision: Optional[int] = None,
                  degree_cap: int = projmap.DEFAULT_DEGREE_CAP,
                  failed: Optional[list] = None):
    """All points of period dividing l, with minimal periods, by elimination.

    Affine charts are solved one at a time for the stripped fixed-point
    system of the l-th iterate, and their candidates merged as they arrive;
    a candidate is kept only when the map itself moves it by less than a
    coarse verification tolerance, so spurious chart solutions drop out.

    The solve stops at the first chart where the count certifies the
    points: a degree-D map of P^k with finitely many fixed points has
    (D^(k+1)-1)/(D-1) of them counted with multiplicity.  When some chart
    solved so far proves the fixed locus finite and that many distinct
    verified points are known, they are all the points, each simple, so
    every multiplicity is 1.  Otherwise all charts run and each point keeps
    the largest eliminant multiplicity hint any chart gave it.  Raises
    BudgetError when the eliminated degrees exceed the configured budget.

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
    big = projmap.iterate(m, l, degree_cap)
    expected = sum((m.d**l) ** j for j in range(m.k + 1))
    with mpmath.workprec(precision):
        if m.k == 1:
            # A non-zero binary fixed form has finitely many roots.
            charts = [(True, _fixed_point_candidates_p1(big, precision))]
        elif m.k == 2:
            charts = _fixed_point_candidates_p2(big, precision, failed)
        else:
            raise PeriodicError(f"periodic points implemented for P^1 and P^2, not P^{m.k}")
        tol = numeric.tolerances(precision)
        forms = [numeric.MpForm(c) for c in m.comps]
        partials = _compiled_partials(m)
        known = numeric.PointSet(precision)
        merged = []  # [mult, residual, orbit entries, reusable], parallel to known
        finite = certified = False
        for chart_finite, candidates in charts:
            finite = finite or chart_finite
            for pt, mult in candidates:
                pt = numeric.normalize_point(pt)[0]
                i = known.add(pt)
                if i is None:
                    # multipliers walks from pt normalized once more, which
                    # is pt itself unless two moduli tie
                    again, chart = numeric.normalize_point(pt)
                    entries, end = _walk(forms, (pt, chart), l)
                    merged.append([mult, numeric.proj_distance(end, pt), entries,
                                   again == pt])
                elif mult > merged[i][0]:
                    merged[i][0] = mult
            if finite and sum(1 for e in merged if e[1] < tol.verify) == expected:
                certified = True
                break
        if not merged:
            raise PeriodicError("no chart system could be solved")
        out = []
        for pt, (mult, residual, entries, reusable) in zip(known.points, merged):
            if residual >= tol.verify:
                continue  # spurious chart solution
            period = next((q for q in range(1, l) if l % q == 0
                           and numeric.proj_distance(entries[q][0], pt) < tol.dedup), l)
            orbit = (precision, partials, entries[:period]) if reusable else None
            out.append(PeriodicPoint(pt, period, l, residual, 1 if certified else mult,
                                     orbit))
        out.sort(key=lambda p: (p.period, _point_sort_key(p.point, tol.dedup)))
    return out


# -- multipliers --------------------------------------------------------------


def _chart_jacobian(vals, dvals, chart_in: int, chart_out: int):
    """Derivative of the chart transition of a map f at a normalized point p.

    ``vals[i]`` is f_i(p) and ``dvals[i][j]`` the partial of f_i in x_j at
    p, which must satisfy p[chart_in] = 1.  Rows range over the output
    chart's affine coordinates, columns over the input chart's.
    """
    b = chart_out
    fb = vals[b]
    if mpmath.fabs(fb) == 0:
        raise numeric.NumericalError("orbit point maps onto a chart boundary")
    rows = []
    for i in range(len(vals)):
        if i == b:
            continue
        row = []
        for j in range(len(vals)):
            if j == chart_in:
                continue
            row.append((dvals[i][j] * fb - vals[i] * dvals[b][j]) / (fb * fb))
        rows.append(row)
    return rows


def _mat_mul(a, b):
    n, mid, p = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(mid)) for j in range(p)]
            for i in range(n)]


def _eigenvalues(matrix):
    """Eigenvalues of the 1x1 or 2x2 derivative of a map of P^1 or P^2."""
    if len(matrix) == 1:
        return (matrix[0][0],)
    tr = matrix[0][0] + matrix[1][1]
    det = matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    disc = mpmath.sqrt(tr * tr - 4 * det)
    return ((tr + disc) / 2, (tr - disc) / 2)


def _compiled_partials(m: ProjectiveMap):
    """The partials of m's components as MpForms, [i][j] for f_i in x_j."""
    return [[numeric.MpForm(poly.partial(c, j)) for j in range(m.k + 1)] for c in m.comps]


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
    that the walk from the point would compute.  It is used when its
    precision is ``precision``; otherwise they are computed here.
    """
    if period < 1:
        raise PeriodicError("period must be >= 1")
    precision = numeric.resolve_precision(precision)
    with mpmath.workprec(precision):
        if orbit is not None and orbit[0] == precision:
            _prec, partials, entries = orbit
        else:
            start = numeric.normalize_point([numeric.mpc_from(c) for c in point])
            entries = _walk([numeric.MpForm(c) for c in m.comps], start, period)[0]
            partials = _compiled_partials(m)
        total = None
        for j, (pt, chart, vals) in enumerate(entries):
            dvals = [[d(pt) for d in row] for row in partials]
            step = _chart_jacobian(vals, dvals, chart, entries[(j + 1) % period][1])
            total = step if total is None else _mat_mul(step, total)
        return tuple(numeric.canonical_order(
            _eigenvalues(total),
            (lambda v: -mpmath.fabs(v), lambda v: v.real, lambda v: v.imag),
            numeric.tolerances(precision).dedup))


# -- classification and audits ------------------------------------------------


def classify(spectrum, eps_zero: float = EPS_ZERO, eps_neutral: float = EPS_NEUTRAL,
             eps_root: float = EPS_ROOT, q_max: int = Q_MAX):
    """Tolerance-banded classification of each eigenvalue."""
    out = []
    for lam in spectrum:
        lam = numeric.mpc_from(lam)
        mod = mpmath.fabs(lam)
        if mod < eps_zero:
            out.append(EigenClass(lam, "zero"))
        elif mpmath.fabs(mod - 1) < eps_neutral:
            order = None
            power = mpmath.mpc(1)
            for q in range(1, q_max + 1):
                power *= lam
                if mpmath.fabs(power - 1) < eps_root:
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
    for l = 1..max_period; otherwise each period is solved here.  Hard
    violations are attracting non-zero or root-of-unity eigenvalues,
    and non-nilpotent spectra with no repelling direction; numerically
    undecidable neutral values are reported as findings, never violations.
    """
    precision = numeric.resolve_precision(precision)
    seen = numeric.PointSet(precision)
    verdicts = []
    all_violations = []
    all_findings = []
    with mpmath.workprec(precision):
        for l in range(1, max_period + 1):
            found = find_periodic(m, l, precision) if points is None else points[l - 1]
            for pp in found:
                if pp.period != l:
                    continue  # already audited at its minimal period
                if seen.add(pp.point) is not None:
                    continue
                spectrum = multipliers(m, pp.point, pp.period, precision, pp.orbit)
                classes = classify(spectrum)
                label = f"period {pp.period} point {_format_point(pp.point)}"
                violations, findings = _audit_classes(label, classes)
                if pp.multiplicity_suspect:
                    findings = findings + (
                        f"{label}: eliminant multiplicity {pp.multiplicity};"
                        " spectrum may be shared by merged points",)
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

    The weighted count sums eliminant multiplicities, so a clean audit
    needs the period-l locus to be zero-dimensional with mostly simple
    points; higher multiplicities still reconcile when the hints are exact.
    """
    if points is None:
        points = find_periodic(m, l, precision)
    dl = m.d**l
    expected = sum(dl**j for j in range(m.k + 1))
    distinct = len(points)
    weighted = sum(max(1, p.multiplicity) for p in points)
    return BezoutCount(l, expected, distinct, weighted)
