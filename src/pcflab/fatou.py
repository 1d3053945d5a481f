"""Super-attracting candidates and empirical basin scans.

Candidates come from zero-dimensional intersections of post-critical
components: exact rational solves for linear arrangements, high-precision
solves otherwise, filtered down to points that are genuinely periodic and
whose multiplier spectrum is entirely zero-classified.

The scan iterates every pixel of a chart window with plain machine-double
complex arithmetic so identical configurations reproduce identical grids
bit for bit.  Orbits are renormalized to max-modulus-one representatives
each step, which rules out overflow regardless of expansion.  A pixel is
labeled with a candidate after five consecutive in-tolerance hits;
optionally the chained affine Jacobian is tracked as evidence that the
derivative of the iterates collapses.  The scan is evidence, not proof:
summaries say consistent, never verified.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from . import numeric, periodic, poly, projmap
from .projmap import ProjectiveMap

DERIVATIVE_DECAY_THRESHOLD = 1e-6
CONSECUTIVE_HITS = 5
DEFAULT_MAX_ITERS = 60
DEFAULT_TOL = 1e-9
ORBIT_PERIOD_BOUND = 128


class FatouError(RuntimeError):
    """Scan configuration or orbit bookkeeping failure."""


# -- candidates ----------------------------------------------------------------


def _exact_orbit_period(m: ProjectiveMap, vec):
    """Exact minimal period of a rational point, or None if not periodic."""
    start = projmap.primitive_vector([Fraction(v) for v in vec])
    cur = start
    for step in range(1, ORBIT_PERIOD_BOUND + 1):
        cur = projmap.primitive_vector(
            [Fraction(c.evaluate(tuple(cur))) for c in m.comps])
        if cur == start:
            return step
    return None


def _numeric_orbit_period(m: ProjectiveMap, point, precision: int):
    with mpmath.workprec(precision):
        tol = numeric.tolerances(precision).dedup
        start = numeric.normalize_point([numeric.mpc_from(c) for c in point])[0]
        cur = start
        for step in range(1, ORBIT_PERIOD_BOUND + 1):
            cur = projmap.pushforward_point(m, cur, precision)
            if numeric.proj_distance(cur, start) < tol:
                return step
    return None


def _all_zero_spectrum(m: ProjectiveMap, point, period: int,
                       precision: int) -> bool:
    spectrum = periodic.multipliers(m, point, period, precision)
    return all(c.kind == "zero" for c in periodic.classify(spectrum))


def superattracting_candidates(m: ProjectiveMap, graph, tower,
                               precision: Optional[int] = None):
    """Periodic zero-dimensional intersection points with nilpotent spectra.

    For P^1 the post-critical components are already points; for P^2 the
    pairwise intersections of the graph's components are collected, plus
    any terminal tower points.  Each surviving point is certified periodic
    (exactly for rational points) and keeps only an all-zero multiplier
    classification.  An empty result is valid.
    """
    precision = numeric.resolve_precision(precision)
    exact, approx = [], []
    if m.k == 1:
        for node in graph.nodes:
            if node.linear:
                vec = projmap.primitive_vector(
                    [Fraction(v) for v in poly.root_of_binary_linear(node.form)])
                if vec not in exact:
                    exact.append(vec)
            else:
                with mpmath.workprec(precision):
                    for root, _mult in numeric.binary_form_roots(node.form, precision):
                        approx.append(numeric.normalize_point(root)[0])
    elif m.k == 2:
        points, failed = projmap.pairwise_intersections(
            [node.form for node in graph.nodes], precision)
        if failed:
            raise failed[0][1]
        exact = [pt for pt, _pairs in points if numeric.is_exact(pt)]
        approx = [pt for pt, _pairs in points if not numeric.is_exact(pt)]
        for level in tower:
            for entry in level.entries:
                if entry.embedding is None or entry.embedding.source_dim != 0:
                    continue
                vec = projmap.primitive_vector(
                    [Fraction(row[0]) for row in entry.embedding.matrix])
                if vec not in exact:
                    exact.append(vec)
    else:
        raise FatouError(f"candidates implemented for P^1 and P^2, not P^{m.k}")

    out = []
    with mpmath.workprec(precision):
        for vec in exact:
            period = _exact_orbit_period(m, vec)
            if period is None:
                continue
            if _all_zero_spectrum(m, vec, period, precision):
                out.append(tuple(vec))
        for pt in approx:
            period = _numeric_orbit_period(m, pt, precision)
            if period is None:
                continue
            if _all_zero_spectrum(m, pt, period, precision):
                out.append(tuple(pt))
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
    derivative_check: bool = True

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


def _pixel_origin(config: ScanConfig, k: int):
    """Per-pixel starting points, row-major, as projective coordinate tuples."""
    n, r = config.resolution, config.radius
    c = [_to_complex(v) for v in config.center]

    def val(x, j):
        return x - r + 2.0 * r * j / (n - 1)

    def point(row, col):
        if k == 1:
            a = (complex(val(c[0].real, col), val(c[0].imag, row)),)
        else:
            a = (complex(val(c[0].real, col), c[0].imag),
                 complex(val(c[1].real, row), c[1].imag))
        return a[:config.chart] + (1.0 + 0j,) + a[config.chart:]

    return [[point(row, col) for col in range(n)] for row in range(n)]


def check_chart(config: ScanConfig, k: int) -> None:
    """Raise FatouError unless config.chart is a chart of P^k."""
    if not 0 <= config.chart <= k:
        raise FatouError("chart index out of range")


def _form_expr(form, coef: list) -> str:
    """``0j + c * y_i * y_j ** k + ...`` over the form's sorted terms.

    The operations, order and association of a term-by-term loop that
    starts from 0j.  Each coefficient is appended to ``coef`` and named
    ``c<index>``, so the text holds only names and integer exponents.
    """
    terms = ["0j"]
    for e, c in sorted(form.terms.items()):
        terms.append(" * ".join([f"c{len(coef)}"] + [
            f"y{i}" if k == 1 else f"y{i} ** {k}" for i, k in enumerate(e) if k]))
        coef.append(_to_complex(c))
    return " + ".join(terms)


def _tuple(items) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _near_expr(p: str, q: str, n1: int) -> str:
    """Every cross product p_i q_j - p_j q_i below tol; a NaN one counts as near."""
    return " and ".join(f"not abs({p}{i} * {q}{j} - {p}{j} * {q}{i}) >= tol"
                        for i in range(n1) for j in range(i + 1, n1))


def _branches(var: str, n: int, body) -> list:
    """``if var == 0: ... elif ... else: ...`` over 0..n-1, n >= 2."""
    out = []
    for x in range(n):
        out.append("else:" if x == n - 1 else f"{'el' if x else ''}if {var} == {x}:")
        out += ["    " + line for line in body(x)]
    return out


_LOOP = """\
def run(starts, steps, tol, frozen0, coef, cand):
    {coef} = coef
    {cand} = cand
    grid, failures = [], 0
    for row in starts:
        pixels = []
        for cur, ch in row:
            if cur is None:
                failures += 1
                pixels.append((-1, -1, False, False))
                continue
            {y} = cur
            {h} = {identity}
            decayed, frozen, broke = False, frozen0, False
            {streaks} = {zeros}
            for n in steps:
{step}
            pixels.append((label, at, decayed, not broke and settle >= {hits}))
        grid.append(tuple(zip(*pixels)))  # this row of each of the four grids
    return (*zip(*grid), failures)
"""


def _loop_source(m: ProjectiveMap, ncand: int, coef: list) -> str:
    """Source of ``run(starts, steps, tol, frozen0, coef, cand)``: all pixels' loop.

    Orbit state lives in locals: point y_i, image z_i, values v_i, partials
    d_(i n1 + j), chain h_(r k + c) row-major, a streak s_c per candidate
    with coordinates q<c>_<i>.  Each step does the reference loop's
    operations in its order; chain entries are ``0 + a * b + ...``.
    """
    k, n1 = m.k, m.k + 1
    ys, zs, vs = ([f"{p}{i}" for i in range(n1)] for p in "yzv")
    hs = [f"h{i}" for i in range(k * k)]

    def rows(a):  # the affine Jacobian from chart a into chart nch
        return _branches("nch", n1, lambda b: [
            f"r{t} = (d{i * n1 + j} * fb - v{i} * d{b * n1 + j}) * inv2"
            for t, (i, j) in enumerate((i, j) for i in range(n1) if i != b
                                       for j in range(n1) if j != a)])

    step = [f"v{i} = {_form_expr(f, coef)}" for i, f in enumerate(m.comps)]
    step.append("nch, best = -1, 0.0")
    for i in range(n1):
        step += [f"a = abs(v{i})", "if a > best:", f"    best, nch, fb = a, {i}, v{i}"]
    step += ["if nch < 0:", "    failures += 1", "    broke = True", "    break",
             "inv = 1.0 / fb", f"{_tuple(zs)} = {_tuple([v + ' * inv' for v in vs])}"]
    chain = [f"d{i * n1 + j} = {_form_expr(poly.partial(f, j), coef)}"
             for i, f in enumerate(m.comps) for j in range(n1)]
    chain += ["inv2 = 1.0 / (fb * fb)"] + _branches("ch", n1, rows)
    chain.append(f"{_tuple(hs)} = " + _tuple([
        " + ".join(["0"] + [f"r{r * k + t} * h{t * k + c}" for t in range(k)])
        for r in range(k) for c in range(k)]))
    chain += [f"norm = max({', '.join(f'abs({h})' for h in hs)})" if k > 1
              else "norm = abs(h0)",
              f"if norm < {DERIVATIVE_DECAY_THRESHOLD!r}:", "    decayed = frozen = True",
              "elif norm > 1e100 or norm != norm:", "    frozen = True"]
    step += ["if not frozen:"] + ["    " + line for line in chain]
    step += [f"if {_near_expr('z', 'y', n1)}:", "    settle += 1",
             "else:", "    settle = 0"]
    for c in range(ncand):
        step += [f"if {_near_expr('z', f'q{c}_', n1)}:", f"    s{c} += 1",
                 f"    if s{c} >= {CONSECUTIVE_HITS} and label < 0:",
                 f"        label, at = {c}, n", "else:", f"    s{c} = 0"]
    step += [f"{_tuple(ys)} = {_tuple(zs)}", "ch = nch",
             "if label >= 0 and frozen:", "    break"]
    streaks = [f"s{c}" for c in range(ncand)]
    return _LOOP.format(
        coef=_tuple([f"c{i}" for i in range(len(coef))]),
        cand=_tuple([f"q{c}_{i}" for c in range(ncand) for i in range(n1)]),
        y=_tuple(ys), h=_tuple(hs), identity=_tuple(
            ["1.0 + 0j" if r == c else "0j" for r in range(k) for c in range(k)]),
        streaks=_tuple(["settle", "label", "at"] + streaks),
        zeros=_tuple(["0", "-1", "-1"] + ["0"] * ncand),
        step="\n".join(" " * 16 + line for line in step), hits=CONSECUTIVE_HITS)


def scan(m: ProjectiveMap, config: ScanConfig) -> BasinGrid:
    """Deterministic basin scan of one chart window.

    Orbits run in machine doubles with per-step max-modulus normalization.
    Labels need CONSECUTIVE_HITS successive in-tolerance approaches to one
    candidate; the chained Jacobian decay flag and a settled flag (orbit
    stopped moving without matching any candidate) are tracked per pixel.
    The chain is the product of the affine Jacobians between the charts of
    successive normalized points.  The whole pixel loop is generated from
    the map's forms and the number of candidates and compiled once per scan.
    """
    check_chart(config, m.k)
    cands = []
    for cand in config.candidates:
        norm, _ = _normalize_c(tuple(_to_complex(v) for v in cand))
        if norm is None:
            raise FatouError("candidate point has no nonzero coordinate")
        cands.extend(norm)
    coef, namespace = [], {}
    source = _loop_source(m, len(config.candidates), coef)
    exec(compile(source, "<fatou scan loop>", "exec"), namespace)
    starts = (map(_normalize_c, row) for row in _pixel_origin(config, m.k))
    return BasinGrid(config, *namespace["run"](
        starts, range(1, config.max_iters + 1), config.tol,
        not config.derivative_check, tuple(coef), tuple(cands)))


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
