"""Super-attracting candidates and empirical basin scans.

Candidates come from zero-dimensional intersections of post-critical
components: exact rational solves for linear arrangements, high-precision
solves otherwise, filtered down to points that are genuinely periodic and
whose multiplier spectrum is entirely zero-classified.

The scan iterates every pixel of a chart window with plain machine-double
complex arithmetic so identical configurations reproduce identical grids
bit for bit.  Orbits are renormalized to max-modulus-one representatives
each step, which rules out overflow regardless of expansion.  A pixel is
labeled with a candidate after five consecutive in-tolerance hits, and
the chained affine Jacobian is tracked as evidence that the derivative of
the iterates collapses.  The scan is evidence, not proof:
summaries say consistent, never verified.
"""

from __future__ import annotations

import cmath
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath
from mpmath.libmp import round_nearest, to_float

from . import numeric, periodic, poly, projmap
from .projmap import ProjectiveMap

DERIVATIVE_DECAY_THRESHOLD = 1e-6
CONSECUTIVE_HITS = 5
DEFAULT_MAX_ITERS = 60
DEFAULT_TOL = 1e-9
ORBIT_PERIOD_BOUND = 128
FOLD_BOUND = 1e100  # see _foldable
CHAIN_FREEZE = "1e100"  # the generated loop freezes a chain whose norm exceeds it, or a NaN one
# The folds need each Jacobian entry (below 2 FOLD_BOUND^2) times a chain
# entry (at most CHAIN_FREEZE), summed over k <= 2 terms, to stay finite,
# with a factor 4 to spare for the parts of complex products.
assert 16 * FOLD_BOUND ** 2 * float(CHAIN_FREEZE) < sys.float_info.max


class FatouError(RuntimeError):
    """Scan configuration or orbit bookkeeping failure."""


# -- candidates ----------------------------------------------------------------


def _exact_orbit_period(m: ProjectiveMap, vec):
    """Exact minimal period of a rational point, or None if not periodic."""
    start = poly.primitive_vector(vec)
    cur = start
    for step in range(1, ORBIT_PERIOD_BOUND + 1):
        cur = poly.primitive_vector([c.evaluate(cur) for c in m.comps])
        if cur == start:
            return step
    return None


def _numeric_orbit_period(m: ProjectiveMap, point, precision: int):
    """Minimal period of a point within the dedup tolerance, or None if the
    orbit does not return in ORBIT_PERIOD_BOUND steps."""
    with mpmath.workprec(precision):
        forms = numeric.compile_forms(m.comps)
        start = numeric.normalize_point(point)[0]
        cur = start
        for step in range(1, ORBIT_PERIOD_BOUND + 1):
            cur = numeric.map_point(forms, cur)[1]
            if numeric.same_point(cur, start):
                return step
    return None


def _all_zero_spectrum(m: ProjectiveMap, point, period: int,
                       precision: int) -> bool:
    spectrum = periodic.multipliers(m, point, period, precision)
    return all(c.kind == "zero" for c in periodic.classify(spectrum))


def _singular_points(form, precision: int) -> list:
    """The singular points of a plane curve of degree at least 2, the common
    zeros of its three partials: none when :func:`projmap.has_common_zero`
    finds the curve smooth, else the common zeros of the first coprime
    pair of partials at which the third vanishes too, exactly at a rational
    point and within dedup at a Point (:func:`numeric.direction`).  Raises
    NumericalError when no two partials are coprime or the solve fails."""
    partials = [poly.partial(form, j) for j in range(3)]
    if not projmap.has_common_zero(partials):
        return []
    pair = next((pair for pair in ((0, 1), (0, 2), (1, 2))
                 if poly.gcd(*(partials[k] for k in pair)).is_constant()), None)
    if pair is None:
        raise numeric.NumericalError(f"no two partials of {poly.format_poly(form)} are coprime")
    i, j = pair
    points = numeric.solve_pair_p2(partials[i], partials[j], precision)
    with mpmath.workprec(precision):
        gradient = numeric.compile_forms(partials)
    return [pt for pt in points if (partials[3 - i - j].evaluate(pt) == 0 if numeric.is_exact(pt)
                                    else numeric.direction(gradient, pt) is None)]


def superattracting_candidates(m: ProjectiveMap, graph, tower,
                               precision: Optional[int] = None):
    """Periodic zero-dimensional intersection points with nilpotent spectra.

    For P^1 the points are the roots of the post-critical components, each
    rational one exact (:func:`numeric.binary_form_roots`).  For P^2 they
    are the pairwise intersections of the graph's components, any terminal
    tower points, and the singular points of each component of degree at
    least 2 (:func:`_singular_points`), such as the node where a component
    crosses itself.  Each surviving point is certified periodic (exactly
    for rational points) and keeps only an all-zero multiplier
    classification.  Rational points come back as primitive vectors of
    Fractions, first, then the others as :class:`numeric.Point` values,
    each point once.  An empty result is valid.
    """
    precision = numeric.resolve_precision(precision)
    if m.k == 1:
        points = [root for node in graph.nodes
                  for root, _mult in numeric.binary_form_roots(node.form, precision)]
    elif m.k == 2:
        forms = [node.form for node in graph.nodes]
        found, failed = projmap.pairwise_intersections(forms, precision)
        if failed:
            raise failed[0][1]
        points = [pt for pt, _pairs in found] + [
            [row[0] for row in entry.embedding.matrix] for level in tower for entry in level.entries
            if entry.embedding is not None and entry.embedding.source_dim == 0]
        points += [pt for f in forms if f.degree >= 2 for pt in _singular_points(f, precision)]
    else:
        raise FatouError(f"candidates implemented for P^1 and P^2, not P^{m.k}")
    exact, approx = [], numeric.PointSet(precision)
    for pt in points:
        if not numeric.is_exact(pt):
            approx.add(pt)
        elif (vec := poly.primitive_vector(pt)) not in exact:
            exact.append(vec)

    out = []
    with mpmath.workprec(precision):
        for vec in exact:
            period = _exact_orbit_period(m, vec)
            if period is None:
                continue
            if _all_zero_spectrum(m, vec, period, precision):
                out.append(tuple(vec))
        for pt in approx.points:
            period = _numeric_orbit_period(m, pt, precision)
            if period is None:
                continue
            if _all_zero_spectrum(m, pt, period, precision):
                out.append(pt)
    return out


# -- the scan -------------------------------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    chart: int
    center: tuple  # k complex affine coordinates
    radius: float
    resolution: int
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    candidates: tuple = ()

    def __post_init__(self):
        if self.resolution < 2:
            raise FatouError("resolution must be >= 2")
        if self.max_iters < 1:
            raise FatouError("max_iters must be >= 1")
        if not (self.radius >= 0 and cmath.isfinite(self.radius)):
            raise FatouError("radius must be finite and >= 0")
        if not (self.tol > 0 and cmath.isfinite(self.tol)):
            raise FatouError("tol must be finite and positive")
        if not all(cmath.isfinite(_to_complex(c)) for c in self.center):
            raise FatouError("center coordinates must be finite")


@dataclass(frozen=True)
class BasinGrid:
    config: ScanConfig
    labels: tuple  # rows of candidate indices, -1 for non-converged
    iters: tuple  # rows of labeling iteration counts, -1 for non-converged
    decayed: tuple  # rows of derivative-decay flags
    settled: tuple  # rows of settled-orbit flags (meaningful when unlabeled)
    failures: int  # pixels abandoned on numeric breakdown


def _to_complex(v) -> complex:
    try:
        if isinstance(v, complex):
            return v
        if isinstance(v, (int, float, Fraction)):
            return complex(float(v), 0.0)
        return complex(float(mpmath.re(v)), float(mpmath.im(v)))
    except OverflowError:
        raise FatouError(f"value {v} does not fit in a double") from None


def _candidate_c(cand) -> tuple:
    """A candidate's coordinates as complex doubles: a Point's parts each
    rounded to nearest, any other coordinates by :func:`_to_complex`."""
    if isinstance(cand, numeric.Point):
        return tuple(complex(to_float(x, rnd=round_nearest), to_float(y, rnd=round_nearest))
                     for x, y in cand.parts)
    return tuple(map(_to_complex, cand))


def _normalize_c(vals):
    best, chart = 0.0, -1
    for i, v in enumerate(vals):
        a = abs(v)
        if a > best:
            best, chart = a, i
    if chart < 0 or best == 0.0 or best != best:  # zero vector or nan
        return None, -1
    inv = 1.0 / vals[chart]
    return tuple([v * inv for v in vals]), chart


def check_chart(config: ScanConfig, k: int) -> None:
    """Raise FatouError unless config.chart is a chart of P^k."""
    if not 0 <= config.chart <= k:
        raise FatouError("chart index out of range")


def _power(i: int, k: int, fold: bool) -> str:
    if k == 1:
        return f"y{i}"
    return f"(y{i} * y{i})" if k == 2 and fold else f"y{i} ** {k}"


def _form_expr(form, coef: list, fold: bool) -> str:
    """``0j + c * y_i * (y_j * y_j) + ...`` over the form's sorted terms.

    The operations, order and association of a term-by-term loop that
    starts from 0j, except that with ``fold`` a square is ``(y * y)``, a
    coefficient of exactly 1 is left out and one of exactly -1 negates the
    term's first factor (a constant term keeps its coefficient).  CPython
    computes ``y ** 2`` as ``1 * (y * y)``, and a product with 1 or -1
    differs from ``y`` or ``-y`` only in signs of zero for finite y, so
    each term differs from the unfolded one only in signs of zero, and the
    0j start turns every zero sum into +0.0: the value is the same bit for
    bit.  Each coefficient written is appended to ``coef`` and named
    ``c<index>``, so the text holds only names and integer exponents.
    """
    terms = ["0j"]
    for e, c in sorted(form.terms.items()):
        c = _to_complex(c)
        factors = [_power(i, k, fold) for i, k in enumerate(e) if k]
        if fold and factors and c in (1, -1):
            if c == -1:
                factors[0] = "-" + factors[0]
        else:
            factors.insert(0, f"c{len(coef)}")
            coef.append(c)
        terms.append(" * ".join(factors))
    return " + ".join(terms)


def _tuple(items) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _near_expr(p: str, q: str, n1: int, known=None) -> str:
    """Every cross product p_i q_j - p_j q_i below tol; a NaN one counts as near.

    ``known`` holds q's values when they are fixed: a product with a
    coordinate that is exactly 0 is left out and one with a coordinate that
    is exactly 1 loses that factor, so a cross product of two zeros is left
    out (0 is near) and one of a 0 and a 1 is ``abs(p_i)``.  For finite p
    that changes no magnitude.
    """
    def product(i, j):  # p_i q_j, or None where it is a zero
        if known is None:
            return f"{p}{i} * {q}{j}"
        if known[j] == 0:
            return None
        return f"{p}{i}" if known[j] == 1 else f"{p}{i} * {q}{j}"

    tests = []
    for i in range(n1):
        for j in range(i + 1, n1):
            a, b = product(i, j), product(j, i)
            if a is not None or b is not None:
                diff = b if a is None else a if b is None else f"{a} - {b}"
                tests.append(f"not abs({diff}) >= tol")
    return " and ".join(tests)


def _pivot(values: list, chart: str) -> list:
    """Lines that set ``chart``, ``best`` and ``fb`` to the index, modulus
    and value of the first of ``values`` of largest modulus; ``chart`` stays
    -1 when every modulus is 0 or NaN."""
    out = [f"{chart}, best = -1, 0.0"]
    for i, v in enumerate(values):
        out += [f"a = abs({v})", "if a > best:", f"    best, {chart}, fb = a, {i}, {v}"]
    return out


def _branches(var: str, n: int, body) -> list:
    """``if var == 0: ... elif ... else: ...`` over 0..n-1, n >= 2."""
    out = []
    for x in range(n):
        out.append("else:" if x == n - 1 else f"{'el' if x else ''}if {var} == {x}:")
        out += ["    " + line for line in body(x)]
    return out


_LOOP = """\
def run(coef, cand, lo, cols, rows, steps, tol):
    {coef} = coef
    {cand} = cand
    grid, failures = [], 0
    for row in rows:
        pixels = []
        for col in cols:
{start}
            {h} = {identity}
            decayed = frozen = broke = False
            {streaks} = {zeros}
            for n in steps:
{step}
            pixels.append((label, at, decayed, not broke and settle >= {hits}))
        grid.append(tuple(zip(*pixels)))  # this row of each of the four grids
    return (*zip(*grid), failures)
"""


def _loop_source(m: ProjectiveMap, chart: int, partials: list, cands: list,
                 coef: list, fold: bool) -> str:
    """Source of ``run(coef, cand, lo, cols, rows, steps, tol)``: all pixels' loop.

    Each pixel starts in the loop: its affine coordinates are the column
    and row values (on P^1 the real and imaginary parts of one coordinate,
    ``complex(col, row)``), ``1.0 + 0j`` goes in at ``chart``, and the
    vector is divided by its first coordinate of largest modulus, with the
    operations of the reference's ``normalize_c`` in its order.  That
    coordinate always exists, since the one at ``chart`` has modulus 1, so
    no start is a failure.  Orbit state lives in locals: point y_i, image
    z_i, values v_i, partials d_(i n1 + j), chain h_(r k + c) row-major, a
    streak s_c per candidate with coordinates q<c>_<i>.  Unfolded, each
    step does the reference loop's operations in its order; chain entries
    are ``0 + a * b + ...``.  Folded, it leaves out what is known when the
    source is written: the partials that are identically zero, the
    products and chain terms they make zero and the ``0 +`` starts;
    squares are ``(y * y)``, coefficients of 1 and -1 are folded (see
    _form_expr), and so are candidate coordinates that are exactly 0 or 1
    (see _near_expr).  Each fold drops a zero term or a factor of 0, 1 or
    -1 from a finite value, so only signs of zero can change, and no
    verdict reads them.  The values are finite under the bounds of
    _foldable and while the largest image coordinate stays at or above
    ``lo``; at a step where it falls below, the zero vector included, the
    folded loop gives up and returns None.
    """
    k, n1 = m.k, m.k + 1
    ys, zs, vs = ([f"{p}{i}" for i in range(n1)] for p in "yzv")
    hs = [f"h{i}" for i in range(k * k)]
    zero = {p for p, f in enumerate(partials) if fold and not f.terms}

    def entry(i, j, b):  # (d_ij fb - v_i d_bj) inv2 without its zero partials
        dij, dbj = i * n1 + j, b * n1 + j
        if dij in zero:
            return None if dbj in zero else f"-(v{i} * d{dbj}) * inv2"
        if dbj in zero:
            return f"d{dij} * fb * inv2"
        return f"(d{dij} * fb - v{i} * d{dbj}) * inv2"

    def rows(a):  # the affine Jacobian from chart a into chart b = nch, times h
        def body(b):
            r = [entry(i, j, b) for i in range(n1) if i != b
                 for j in range(n1) if j != a]
            sums = []
            for row in range(k):
                for c in range(k):
                    terms = [f"r{row * k + t} * h{t * k + c}" for t in range(k)
                             if r[row * k + t] is not None]
                    sums.append(" + ".join(terms or ["0j"]) if fold
                                else " + ".join(["0"] + terms))
            return [f"r{t} = {e}" for t, e in enumerate(r) if e is not None] + [
                f"{_tuple(hs)} = {_tuple(sums)}"]
        return _branches("nch", n1, body)

    start = ["complex(col, row)"] if k == 1 else ["col", "row"]
    start.insert(chart, "(1.0 + 0j)")
    us = [f"u{i}" for i in range(n1)]
    begin = [f"{_tuple(us)} = {_tuple(start)}"] + _pivot(us, "ch") + [
        "inv = 1.0 / fb", f"{_tuple(ys)} = {_tuple([u + ' * inv' for u in us])}"]
    step = [f"v{i} = {_form_expr(f, coef, fold)}" for i, f in enumerate(m.comps)]
    step += _pivot(vs, "nch")
    step += (["if best < lo:", "    return None"]
             if fold else
             ["if nch < 0:", "    failures += 1", "    broke = True", "    break"])
    step += ["inv = 1.0 / fb", f"{_tuple(zs)} = {_tuple([v + ' * inv' for v in vs])}"]
    chain = [f"d{p} = {_form_expr(f, coef, fold)}"
             for p, f in enumerate(partials) if p not in zero]
    chain += ["inv2 = 1.0 / (fb * fb)"] + _branches("ch", n1, rows)
    chain += [f"norm = max({', '.join(f'abs({h})' for h in hs)})" if k > 1 else "norm = abs(h0)",
              f"if norm > {CHAIN_FREEZE} or {' or '.join(f'{h} != {h}' for h in hs)}:",  # or NaN
              "    frozen = True", f"elif norm < {DERIVATIVE_DECAY_THRESHOLD!r}:",
              "    decayed = frozen = True"]
    step += ["if not frozen:"] + ["    " + line for line in chain]
    step += [f"if {_near_expr('z', 'y', n1)}:", "    settle += 1",
             "else:", "    settle = 0"]
    for c, q in enumerate(cands):
        near = _near_expr("z", f"q{c}_", n1, q if fold else None)
        step += [f"if {near}:", f"    s{c} += 1",
                 f"    if s{c} >= {CONSECUTIVE_HITS} and label < 0:",
                 f"        label, at = {c}, n", "else:", f"    s{c} = 0"]
    step += [f"{_tuple(ys)} = {_tuple(zs)}", "ch = nch",
             "if label >= 0 and frozen:", "    break"]
    streaks = [f"s{c}" for c in range(len(cands))]
    return _LOOP.format(
        coef=_tuple([f"c{i}" for i in range(len(coef))]),
        cand=_tuple([f"q{c}_{i}" for c in range(len(cands)) for i in range(n1)]),
        start="\n".join(" " * 12 + line for line in begin),
        h=_tuple(hs), identity=_tuple(
            ["1.0 + 0j" if r == c else "0j" for r in range(k) for c in range(k)]),
        streaks=_tuple(["settle", "label", "at"] + streaks),
        zeros=_tuple(["0", "-1", "-1"] + ["0"] * len(cands)),
        step="\n".join(" " * 16 + line for line in step), hits=CONSECUTIVE_HITS)


def _foldable(m: ProjectiveMap, partials: list, config: ScanConfig) -> bool:
    """Whether the folded loop may run: its folds need finite values.

    A window within FOLD_BOUND gives finite normalized start points, so
    every point the loop sees has coordinates of modulus at most about 1.
    With the coefficient moduli of each component and partial summing to
    at most FOLD_BOUND, no value or partial overflows.  The loop checks the
    rest at each step: when the largest image coordinate fb is at least
    1 / FOLD_BOUND, 1 / fb and 1 / fb^2 are finite and each Jacobian entry
    is below 2 FOLD_BOUND^2, so its products with chain entries, at most
    CHAIN_FREEZE while the chain runs, stay finite (the assert under
    FOLD_BOUND).
    """
    for f in list(m.comps) + partials:
        values = map(_to_complex, f.terms.values())
        if sum(abs(c.real) + abs(c.imag) for c in values) > FOLD_BOUND:
            return False
    return config.radius <= FOLD_BOUND and all(
        abs(_to_complex(c)) <= FOLD_BOUND for c in config.center)


def _compiled(m: ProjectiveMap, chart: int, partials: list, cands: list, fold: bool):
    """The generated loop as ``run(cols, rows, steps, tol)``."""
    coef, namespace = [], {}
    source = _loop_source(m, chart, partials, cands, coef, fold)
    exec(compile(source, "<fatou scan loop>", "exec"), namespace)
    return functools.partial(namespace["run"], tuple(coef),
                             tuple(v for q in cands for v in q), 1 / FOLD_BOUND)


def scan(m: ProjectiveMap, config: ScanConfig) -> BasinGrid:
    """Deterministic basin scan of one chart window.

    Orbits run in machine doubles with per-step max-modulus normalization.
    Labels need CONSECUTIVE_HITS successive in-tolerance approaches to one
    candidate; the chained Jacobian decay flag and a settled flag (orbit
    stopped moving without matching any candidate) are tracked per pixel.
    The chain is the product of the affine Jacobians between the charts of
    successive normalized points.  The whole pixel loop, each pixel's
    start included, is generated from the map's forms, the chart and the
    candidates and compiled once per scan, folded where _foldable allows;
    if the folded loop gives up, the unfolded loop runs the whole scan
    again from the start.  It is given the window's n column and n row
    values, ``c - r + 2 r j / (n - 1)`` for j < n: on P^1 the real and
    imaginary parts of the one affine coordinate, on P^2 the two complex
    coordinates, whose imaginary parts stay the centre's.  A value that
    leaves the double range where Python raises (a modulus or power
    beyond it, a square of fb that rounds to 0) is a FatouError.
    """
    check_chart(config, m.k)
    n, r = config.resolution, config.radius
    c = [_to_complex(v) for v in config.center]

    def axis(x):  # the window's n values along one real direction
        return [x - r + 2.0 * r * j / (n - 1) for j in range(n)]

    if m.k == 1:
        axes = (axis(c[0].real), axis(c[0].imag))
    else:
        axes = ([complex(x, c[0].imag) for x in axis(c[0].real)],
                [complex(y, c[1].imag) for y in axis(c[1].real)])
    args = (*axes, range(1, config.max_iters + 1), config.tol)
    try:
        cands = []
        for cand in config.candidates:
            norm, _ = _normalize_c(_candidate_c(cand))
            if norm is None:
                raise FatouError("candidate point has no nonzero coordinate")
            cands.append(norm)
        partials = [poly.partial(f, j) for f in m.comps for j in range(m.k + 1)]
        out = None
        if _foldable(m, partials, config):
            out = _compiled(m, config.chart, partials, cands, True)(*args)
        if out is None:
            out = _compiled(m, config.chart, partials, cands, False)(*args)
        *grids, failures = out
    except (OverflowError, ZeroDivisionError) as exc:
        raise FatouError(f"a scan value left the double range ({exc})") from None
    return BasinGrid(config, *grids, failures)


# -- summaries ------------------------------------------------------------------


@dataclass(frozen=True)
class BasinSummary:
    fractions: tuple  # labeled fraction per candidate
    nonconverged_fraction: float
    decay_fraction: float  # among labeled pixels (1.0 when none labeled)
    consistency: str  # "CONSISTENT" | "FINDING"
    finding_pixels: int
    failures: int


def basin_summary(grid: BasinGrid) -> BasinSummary:
    """Aggregate a grid: per-candidate fractions and the consistency flag.

    A pixel whose orbit settled with a decayed derivative but matched no
    candidate would contradict the finite-basin picture, so such pixels
    flip the summary to FINDING; settled pixels without derivative decay
    (e.g. repelling fixed boundary points) stay in the non-converged count.
    """
    ncand = len(grid.config.candidates)
    n = grid.config.resolution
    total = n * n
    counts = [0] * ncand
    labeled = 0
    decayed_labeled = 0
    finding = 0
    for row in range(n):
        for col in range(n):
            lab = grid.labels[row][col]
            if lab >= 0:
                counts[lab] += 1
                labeled += 1
                if grid.decayed[row][col]:
                    decayed_labeled += 1
            elif grid.settled[row][col] and grid.decayed[row][col]:
                finding += 1
    fractions = tuple(c / total for c in counts)
    nonconv = (total - labeled) / total
    decay_fraction = decayed_labeled / labeled if labeled else 1.0
    consistency = "FINDING" if finding else "CONSISTENT"
    return BasinSummary(fractions, nonconv, decay_fraction, consistency,
                        finding, grid.failures)
