"""The scalar basin-scan loop that ``fatou.scan`` must reproduce bit for bit.

This is the pixel loop, with its pixel origins and normalization, written
plainly: a generic sparse evaluator walks each component's sorted term
list, the projective distance is the largest cross product, and the
chained affine Jacobian is rebuilt from nested lists every step.
``fatou.scan`` generates one function per scan that runs every pixel with
all state in locals, each pixel's start included: it is given the
window's column and row values, and builds and normalizes each start with
``pixel_origin``'s and ``normalize_c``'s operations.  It performs these
floating-point operations in this order, less the folds of what is known
when it is written: zero partials and the chain terms they zero,
``y ** 2`` as ``y * y``, coefficients that are exactly 1 (left out) or -1
(a negated first factor), and products with candidate coordinates that
are exactly 0 or 1.  Each fold removes a zero term or a factor of 0, 1 or
-1 from a finite value (``fatou._foldable`` and a per-step check keep the
values finite, or the scan runs unfolded), so only signs of zero can
change and no verdict reads them.  Its grids must
equal this loop's exactly; ``property_suites.suite_scan_determinism`` and
``test_fatou.TestReferenceLoop`` compare them.
"""

from pcflab import poly
from pcflab.fatou import (CONSECUTIVE_HITS, DERIVATIVE_DECAY_THRESHOLD,
                          BasinGrid, FatouError, _candidate_c, _to_complex)


def terms(form) -> tuple:
    return tuple((e, _to_complex(c)) for e, c in sorted(form.terms.items()))


def ceval(compiled, coords) -> complex:
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


def normalize_c(vals):
    best, chart = 0.0, -1
    for i, v in enumerate(vals):
        a = abs(v)
        if a > best:
            best, chart = a, i
    if chart < 0 or best == 0.0 or best != best:  # zero vector or nan
        return None, -1
    inv = 1.0 / vals[chart]
    return tuple(v * inv for v in vals), chart


def pd_c(p, q) -> float:
    best = 0.0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            v = abs(p[i] * q[j] - p[j] * q[i])
            if v > best:
                best = v
    return best


def chain_step(partials, cur, chart_in, vals, chart_out, chain, k):
    fb = vals[chart_out]
    if fb == 0:
        return None
    dvals = [[ceval(partials[i][j], cur) for j in range(k + 1)]
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


def pixel_origin(config, k: int):
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
                line.append(insert_chart((z,), config.chart, 2))
            out.append(line)
        return out
    cx = _to_complex(config.center[0])
    cy = _to_complex(config.center[1])
    for row in range(n):
        line = []
        for col in range(n):
            x = complex(val(cx.real, col), cx.imag)
            y = complex(val(cy.real, row), cy.imag)
            line.append(insert_chart((x, y), config.chart, 3))
        out.append(line)
    return out


def insert_chart(affine, chart: int, nvars: int):
    coords = []
    it = iter(affine)
    for i in range(nvars):
        coords.append(1.0 + 0j if i == chart else next(it))
    return tuple(coords)


def scan(m, config) -> BasinGrid:
    if config.chart < 0 or config.chart > m.k:
        raise FatouError("chart index out of range")
    comps = [terms(c) for c in m.comps]
    partials = [[terms(poly.partial(c, j)) for j in range(m.k + 1)]
                for c in m.comps]
    cands = []
    for cand in config.candidates:
        norm, _ = normalize_c(_candidate_c(cand))
        if norm is None:
            raise FatouError("candidate point has no nonzero coordinate")
        cands.append(norm)
    origins = pixel_origin(config, m.k)
    k = m.k
    tol = config.tol
    labels, iters, decflags, setflags = [], [], [], []
    failures = 0
    for row in range(config.resolution):
        lrow, irow, drow, srow = [], [], [], []
        for col in range(config.resolution):
            cur, chart = normalize_c(origins[row][col])
            if cur is None:
                failures += 1
                lrow.append(-1), irow.append(-1)
                drow.append(False), srow.append(False)
                continue
            chain = [[1.0 + 0j if i == j else 0j for j in range(k)]
                     for i in range(k)]
            decayed = False
            frozen = False
            streaks = [0] * len(cands)
            settle_streak = 0
            label, labeled_at = -1, -1
            broke = False
            for n in range(1, config.max_iters + 1):
                vals = [ceval(c, cur) for c in comps]
                nxt, nchart = normalize_c(vals)
                if nxt is None:
                    failures += 1
                    broke = True
                    break
                if not frozen:
                    chain = chain_step(partials, cur, chart, vals, nchart,
                                       chain, k)
                    if chain is None:
                        frozen = True
                    else:
                        entries = [e for rowv in chain for e in rowv]
                        norm = max(abs(e) for e in entries)  # skips a NaN after the first
                        if norm > 1e100 or any(e != e for e in entries):
                            frozen = True
                        elif norm < DERIVATIVE_DECAY_THRESHOLD:
                            decayed = True
                            frozen = True
                if pd_c(nxt, cur) < tol:
                    settle_streak += 1
                else:
                    settle_streak = 0
                for ci, cand in enumerate(cands):
                    if pd_c(nxt, cand) < tol:
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
