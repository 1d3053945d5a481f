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
                fi, fj = nodes[i].form, nodes[j].form
                if nodes[i].linear and nodes[j].linear:
                    kernel = projmap.nullspace_basis([poly.linear_coeffs(fi),
                                                      poly.linear_coeffs(fj)])
                    if len(kernel) == 1 and kernel[0] not in exact:
                        exact.append(kernel[0])
                    continue
                try:
                    pts, _mults = numeric.solve_pair_p2(fi, fj, precision)
                except numeric.NumericalError:
                    continue
                for pt in pts:
                    rat = [numeric.rationalize(c, precision) for c in pt]
                    if all(r is not None for r in rat):
                        vec = projmap.primitive_vector(rat)
                        if all(f.evaluate(tuple(vec)) == 0 for f in (fi, fj)):
                            if vec not in exact:
                                exact.append(vec)
                            continue
                    approx.add(pt)
    return exact, approx.points


def _all_zero_spectrum(m: ProjectiveMap, point, period: int,
                       precision: int) -> bool:
    spectrum = periodic.multipliers(m, point, period, precision)
    return all(c.kind == "zero" for c in periodic.classify(spectrum))


def superattracting_candidates(m: ProjectiveMap, graph, tower=None,
                               periodic_audit=None,
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

    audited = list(periodic_audit.verdicts) if periodic_audit is not None else []
    audited_points = numeric.PointSet(precision, [v.point.point for v in audited])
    out = []
    with mpmath.workprec(precision):
        for vec in exact:
            period = _exact_orbit_period(m, vec)
            if period is None:
                continue
            if _all_zero_spectrum(m, vec, period, precision):
                out.append(tuple(vec))
        for pt in approx:
            i = audited_points.find(pt)
            period = audited[i].point.period if i is not None else None
            if period is None:
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
        if not self.tol > 0:
            raise FatouError("tolerance must be positive")


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


def _compile(form) -> tuple:
    return tuple((e, _to_complex(c)) for e, c in sorted(form.terms.items()))


def _ceval(compiled, coords) -> complex:
    acc = 0j
    for e, c in compiled:
        v = c
        for i, k in enumerate(e):
            if k == 1:
                v *= coords[i]
            elif k:
                v *= coords[i] ** k
        acc += v
    return acc


def _normalize_c(vals):
    best, chart = 0.0, -1
    for i, v in enumerate(vals):
        a = abs(v)
        if a > best:
            best, chart = a, i
    if chart < 0 or best == 0.0 or best != best:  # zero vector or nan
        return None, -1
    inv = 1.0 / vals[chart]
    return tuple(v * inv for v in vals), chart


def _pd_c(p, q) -> float:
    best = 0.0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            v = abs(p[i] * q[j] - p[j] * q[i])
            if v > best:
                best = v
    return best


def _pixel_origin(config: ScanConfig, k: int):
    """Per-pixel starting points, row-major, as projective coordinate tuples."""
    n = config.resolution
    r = config.radius

    def val(c, j):
        return c - r + 2.0 * r * j / (n - 1)

    out = []
    if k == 1:
        c = _to_complex(config.center[0])
        for row in range(n):
            line = []
            for col in range(n):
                z = complex(val(c.real, col), val(c.imag, row))
                line.append(_insert_chart((z,), config.chart, 2))
            out.append(line)
        return out
    cx = _to_complex(config.center[0])
    cy = _to_complex(config.center[1])
    for row in range(n):
        line = []
        for col in range(n):
            x = complex(val(cx.real, col), cx.imag)
            y = complex(val(cy.real, row), cy.imag)
            line.append(_insert_chart((x, y), config.chart, 3))
        out.append(line)
    return out


def _insert_chart(affine, chart: int, nvars: int):
    coords = []
    it = iter(affine)
    for i in range(nvars):
        coords.append(1.0 + 0j if i == chart else next(it))
    return tuple(coords)


def scan(m: ProjectiveMap, config: ScanConfig) -> BasinGrid:
    """Deterministic basin scan of one chart window.

    Orbits run in machine doubles with per-step max-modulus normalization.
    Labels need CONSECUTIVE_HITS successive in-tolerance approaches to one
    candidate; the chained Jacobian decay flag and a settled flag (orbit
    stopped moving without matching any candidate) are tracked per pixel.
    """
    if config.chart < 0 or config.chart > m.k:
        raise FatouError("chart index out of range")
    comps = [_compile(c) for c in m.comps]
    partials = [[_compile(poly.partial(c, j)) for j in range(m.k + 1)]
                for c in m.comps]
    cands = []
    for cand in config.candidates:
        norm, _ = _normalize_c(tuple(_to_complex(v) for v in cand))
        if norm is None:
            raise FatouError("candidate point has no nonzero coordinate")
        cands.append(norm)
    origins = _pixel_origin(config, m.k)
    k = m.k
    tol = config.tol
    labels, iters, decflags, setflags = [], [], [], []
    failures = 0
    for row in range(config.resolution):
        lrow, irow, drow, srow = [], [], [], []
        for col in range(config.resolution):
            cur, chart = _normalize_c(origins[row][col])
            if cur is None:
                failures += 1
                lrow.append(-1), irow.append(-1)
                drow.append(False), srow.append(False)
                continue
            chain = [[1.0 + 0j if i == j else 0j for j in range(k)]
                     for i in range(k)]
            decayed = False
            frozen = not config.derivative_check
            streaks = [0] * len(cands)
            settle_streak = 0
            label, labeled_at = -1, -1
            broke = False
            for n in range(1, config.max_iters + 1):
                vals = [_ceval(c, cur) for c in comps]
                nxt, nchart = _normalize_c(vals)
                if nxt is None:
                    failures += 1
                    broke = True
                    break
                if not frozen:
                    chain = _chain_step(m, partials, cur, chart, vals, nchart,
                                        chain, k)
                    if chain is None:
                        frozen = True
                    else:
                        norm = max(abs(e) for rowv in chain for e in rowv)
                        if norm < DERIVATIVE_DECAY_THRESHOLD:
                            decayed = True
                            frozen = True
                        elif norm > 1e100 or norm != norm:
                            frozen = True
                if _pd_c(nxt, cur) < tol:
                    settle_streak += 1
                else:
                    settle_streak = 0
                for ci, cand in enumerate(cands):
                    if _pd_c(nxt, cand) < tol:
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


def _chain_step(m, partials, cur, chart_in, vals, chart_out, chain, k):
    fb = vals[chart_out]
    if fb == 0:
        return None
    dvals = [[_ceval(partials[i][j], cur) for j in range(k + 1)]
             for i in range(k + 1)]
    rows = []
    inv2 = 1.0 / (fb * fb)
    for i in range(k + 1):
        if i == chart_out:
            continue
        rows.append([
            (dvals[i][j] * fb - vals[i] * dvals[chart_out][j]) * inv2
            for j in range(k + 1) if j != chart_in
        ])
    # rows @ chain
    return [[sum(rows[i][t] * chain[t][j] for t in range(k))
             for j in range(k)] for i in range(k)]


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
