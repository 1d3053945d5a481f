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
from typing import Optional, Sequence

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


def _exact_orbit_period(m: ProjectiveMap, vec, bound: int = ORBIT_PERIOD_BOUND):
    """Exact minimal period of a rational point, or None if not periodic."""
    start = projmap.primitive_vector([Fraction(v) for v in vec])
    cur = start
    for step in range(1, bound + 1):
        cur = projmap.primitive_vector(
            [Fraction(c.evaluate(tuple(cur))) for c in m.comps])
        if cur == start:
            return step
    return None


def _numeric_orbit_period(m: ProjectiveMap, point, precision: int,
                          bound: int = ORBIT_PERIOD_BOUND):
    with mpmath.workprec(precision):
        tol = numeric.tolerances(precision).dedup
        start = numeric.normalize_point([numeric.mpc_from(c) for c in point])[0]
        cur = start
        for step in range(1, bound + 1):
            cur = projmap.pushforward_point(m, cur, precision)
            if numeric.proj_distance(cur, start) < tol:
                return step
    return None


def _intersection_points(nodes, precision: int):
    """Pairwise zero-dimensional intersections: (exact list, numeric list)."""
    exact, approx = [], numeric.PointSet(precision)
    with mpmath.workprec(precision):
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                pts, _mults = numeric.solve_pair_p2(nodes[i].form, nodes[j].form,
                                                    precision)
                for pt in pts:
                    if numeric.is_exact(pt):
                        vec = projmap.primitive_vector(list(pt))
                        if vec not in exact:
                            exact.append(vec)
                    else:
                        approx.add(pt)
    return exact, approx.points


def _all_zero_spectrum(m: ProjectiveMap, point, period: int,
                       precision: int) -> bool:
    spectrum = periodic.multipliers(m, point, period, precision)
    return all(c.kind == "zero" for c in periodic.classify(spectrum))


def superattracting_candidates(m: ProjectiveMap, graph, tower=None,
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
        exact, approx = _intersection_points(graph.nodes, precision)
        if tower:
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
    if isinstance(v, complex):
        return v
    if isinstance(v, (int, float, Fraction)):
        return complex(float(v), 0.0)
    return complex(float(mpmath.re(v)), float(mpmath.im(v)))


def _straight_line(args, exprs, namespace):
    """Compile ``def f(*args): return (*exprs,)``, free names from namespace."""
    source = f"def f({', '.join(args)}):\n    return ({', '.join(exprs)},)\n"
    exec(compile(source, "<fatou scan step>", "exec"), namespace)
    return namespace["f"]


def _compile(forms, nvars: int):
    """One straight-line function giving ``forms`` at nvars complex coordinates.

    Each form is ``0j + c * x_i * x_j ** k + ...`` over its sorted terms:
    the operations, order and association of a term-by-term loop that
    starts from 0j.  Coefficients are bound by generated name, so the
    source holds only names and integer exponents.
    """
    namespace, exprs = {}, []
    for form in forms:
        terms = ["0j"]
        for e, c in sorted(form.terms.items()):
            name = f"c{len(namespace)}"
            namespace[name] = _to_complex(c)
            terms.append(" * ".join([name] + [
                f"x{i}" if k == 1 else f"x{i} ** {k}"
                for i, k in enumerate(e) if k]))
        exprs.append(" + ".join(terms))
    return _straight_line([f"x{i}" for i in range(nvars)], exprs, namespace)


def _chain_product(k: int):
    """Product of two flat row-major k x k matrices, added in sum()'s order."""
    return _straight_line(
        [f"a{i}" for i in range(k * k)] + [f"b{i}" for i in range(k * k)],
        [" + ".join(["0"] + [f"a{r * k + t} * b{t * k + c}" for t in range(k)])
         for r in range(k) for c in range(k)], {})


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


def _near(p, q, pairs, tol) -> bool:
    """Every cross product p_i q_j - p_j q_i below tol; NaN ones are ignored."""
    for i, j in pairs:
        if abs(p[i] * q[j] - p[j] * q[i]) >= tol:
            return False
    return True


def _pixel_origin(config: ScanConfig, k: int):
    """Per-pixel starting points, row-major, as projective coordinate tuples."""
    n, r = config.resolution, config.radius
    c = [_to_complex(v) for v in config.center]

    def val(x, j):
        return x - r + 2.0 * r * j / (n - 1)

    def affine(row, col):
        if k == 1:
            return (complex(val(c[0].real, col), val(c[0].imag, row)),)
        return (complex(val(c[0].real, col), c[0].imag),
                complex(val(c[1].real, row), c[1].imag))

    return [[_insert_chart(affine(row, col), config.chart) for col in range(n)]
            for row in range(n)]


def _insert_chart(affine, chart: int):
    coords = list(affine)
    coords.insert(chart, 1.0 + 0j)
    return tuple(coords)


def check_chart(config: ScanConfig, k: int) -> None:
    """Raise FatouError unless config.chart is a chart of P^k."""
    if not 0 <= config.chart <= k:
        raise FatouError("chart index out of range")


def scan(m: ProjectiveMap, config: ScanConfig) -> BasinGrid:
    """Deterministic basin scan of one chart window.

    Orbits run in machine doubles with per-step max-modulus normalization.
    Labels need CONSECUTIVE_HITS successive in-tolerance approaches to one
    candidate; the chained Jacobian decay flag and a settled flag (orbit
    stopped moving without matching any candidate) are tracked per pixel.
    The chain is the product of the affine Jacobians between the charts of
    successive normalized points, kept row-major in a flat tuple.
    """
    k = m.k
    check_chart(config, k)
    n1 = k + 1
    evaluate = _compile(m.comps, n1)
    jacobian = _compile([poly.partial(c, j) for c in m.comps
                         for j in range(n1)], n1)
    cands = []
    for cand in config.candidates:
        norm, _ = _normalize_c(tuple(_to_complex(v) for v in cand))
        if norm is None:
            raise FatouError("candidate point has no nonzero coordinate")
        cands.append(norm)
    pairs = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    # For each (chart in, chart out): the affine Jacobian's entries as
    # (flat index of df_i/dx_j, i, flat index of df_out/dx_j), row-major.
    affine = [[(i * n1 + j, i, b * n1 + j) for i in range(n1) if i != b
               for j in range(n1) if j != a] for a in range(n1) for b in range(n1)]
    product = _chain_product(k)
    identity = tuple(1.0 + 0j if r == c else 0j
                     for r in range(k) for c in range(k))
    tol = config.tol
    labels, iters, decflags, setflags = [], [], [], []
    failures = 0
    for origin_row in _pixel_origin(config, k):
        lrow, irow, drow, srow = [], [], [], []
        for origin in origin_row:
            cur, chart = _normalize_c(origin)
            if cur is None:
                failures += 1
                lrow.append(-1), irow.append(-1)
                drow.append(False), srow.append(False)
                continue
            chain = identity
            decayed = False
            frozen = not config.derivative_check
            streaks = [0] * len(cands)
            settle_streak = 0
            label, labeled_at = -1, -1
            broke = False
            for n in range(1, config.max_iters + 1):
                vals = evaluate(*cur)
                nxt, nchart = _normalize_c(vals)
                if nxt is None:
                    failures += 1
                    broke = True
                    break
                if not frozen:
                    d = jacobian(*cur)
                    fb = vals[nchart]
                    inv2 = 1.0 / (fb * fb)
                    rows = [(d[p] * fb - vals[i] * d[q]) * inv2
                            for p, i, q in affine[chart * n1 + nchart]]
                    chain = product(*rows, *chain)
                    norm = max(map(abs, chain))
                    if norm < DERIVATIVE_DECAY_THRESHOLD:
                        decayed = True
                        frozen = True
                    elif norm > 1e100 or norm != norm:
                        frozen = True
                if _near(nxt, cur, pairs, tol):
                    settle_streak += 1
                else:
                    settle_streak = 0
                for ci, cand in enumerate(cands):
                    if _near(nxt, cand, pairs, tol):
                        streaks[ci] += 1
                        if streaks[ci] >= CONSECUTIVE_HITS and label < 0:
                            label, labeled_at = ci, n
                    else:
                        streaks[ci] = 0
                cur, chart = nxt, nchart
                if label >= 0 and (decayed or frozen):
                    break
            lrow.append(label)
            irow.append(labeled_at if label >= 0 else -1)
            drow.append(decayed)
            srow.append(False if broke else settle_streak >= CONSECUTIVE_HITS)
        labels.append(tuple(lrow))
        iters.append(tuple(irow))
        decflags.append(tuple(drow))
        setflags.append(tuple(srow))
    return BasinGrid(config, tuple(labels), tuple(iters), tuple(decflags),
                     tuple(setflags), failures)


# -- summaries ------------------------------------------------------------------


@dataclass(frozen=True)
class BasinSummary:
    fractions: tuple  # labeled fraction per candidate
    nonconverged_fraction: float
    decay_fraction: float  # among labeled pixels (1.0 when none labeled)
    consistency: str  # "CONSISTENT" | "FINDING"
    finding_pixels: int
    failures: int


def basin_summary(grid: BasinGrid, candidates: Optional[Sequence] = None) -> BasinSummary:
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
