"""Critical orbits, forward images, and the invariant-subspace tower.

The unit of bookkeeping is a component: a primitive square-free form whose
zero set is one piece of the critical locus or of a forward image of it.
This module closes the critical components under the image operation,
decides whether that closure is finite within configured bounds, and when
it is, descends through the restrictions to periodic linear subspaces until
dimension zero.  It also houses the structural audits quoted by reports:
weak transversality of the arrangement, containment of each restriction's
critical points in crit(f^n), decided exactly by gcds along the orbit of the
restricted line, and topological degree comparisons.

Image computation is layered.  A fast path certifies a candidate image form
by exact divisibility; a parametrized path implicitizes the image of a line
through a single resultant; a general elimination path handles non-linear
sources with a double resultant.  Spurious elimination factors are pruned
against pushed-forward sample points, exactly for rational samples and to a
fixed tolerance otherwise.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Optional, Sequence

import mpmath

from . import numeric, poly, projmap
from .poly import HomPoly
from .projmap import LinearEmbedding, ProjectiveMap

DEFAULT_MAX_ITER = 64
DEFAULT_MAX_DEGREE = 512
# Largest coefficient of a closure component, in bits.  A non-PCF map with a
# rational critical orbit doubles its heights at every image, so without it
# the closure's exact arithmetic outgrows any image budget.
MAX_COEFF_BITS = 4096

PRUNE_MIN_SAMPLES = 10


class PcfError(RuntimeError):
    """Structural failure in post-critical analysis."""


class ImageError(PcfError):
    """Image computation failed in every chart; carries diagnostics."""


# -- components ---------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """A primitive square-free sign-normalized form, one orbit node."""

    form: HomPoly
    linear: bool
    irreducible_status: str  # "certified-linear" | "unverified"

    def __str__(self):
        return poly.format_poly(self.form)


def make_component(form: HomPoly) -> Component:
    """Normalize a form into a Component (square-free, canonical)."""
    if form.is_zero():
        raise PcfError("a component cannot be the zero form")
    f = poly.canonical(poly.squarefree_part(form))
    if f.is_constant():
        raise PcfError("a component cannot be a constant")
    linear = f.degree == 1
    return Component(f, linear, "certified-linear" if linear else "unverified")


def _component_key(c: Component):
    return (c.form.degree,) + c.form.sort_key()


def critical_components(m: ProjectiveMap):
    """Components of the critical locus, linear factors split off.

    The rational linear factors of the square-free part of the Jacobian
    determinant are split off; whatever does not split, a form with no
    rational linear factor, stays as a single unverified component.
    """
    jd = projmap.jacobian_det(m)
    if jd.is_zero():
        raise PcfError("jacobian determinant vanishes identically")
    if jd.is_constant():
        return ()
    sf = poly.squarefree_part(jd)
    factors, residual = poly.linear_factors(sf)
    comps = [make_component(form) for form, _mult in factors]
    if not residual.is_constant():
        comps.append(make_component(residual))
    return tuple(sorted(comps, key=_component_key))


# -- sample machinery ---------------------------------------------------------


def _line_points_exact(form: HomPoly, count: int):
    """Distinct rational points on a line {form=0}, via its parametrization."""
    emb = projmap.embedding_for_hyperplane(form)
    pts = []
    seen = set()
    j = 0
    while len(pts) < count and j < 16 * count + 32:
        p = projmap.primitive_vector(emb.apply((Fraction(j), Fraction(1))))
        if p not in seen:
            seen.add(p)
            pts.append(p)
        j += 1
    return pts


def _curve_points_numeric(form: HomPoly, count: int, precision: int, seed: int = 11):
    """Points on a plane curve, intersected out of deterministic lines."""
    rng = random.Random(seed)
    pts = numeric.PointSet(precision)
    with mpmath.workprec(precision):
        attempts = 0
        while len(pts.points) < count and attempts < 24:
            attempts += 1
            coeffs = [Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)),
                      Fraction(rng.randint(1, 9))]
            line = poly.linear_form(coeffs)
            emb = projmap.embedding_for_hyperplane(line)
            subs = [poly.linear_form(row) for row in emb.matrix]
            restricted = poly.compose(form, subs)
            if restricted.is_zero():
                continue  # the line is a factor of the curve
            try:
                roots = numeric.binary_form_roots(restricted, precision)
            except numeric.NumericalError:
                continue
            for (r0, r1), _mult in roots:
                pts.add(numeric.normalize_point(emb.apply((r0, r1)))[0])
    return pts.points


def _push_exact(m: ProjectiveMap, point):
    vals = tuple(c.evaluate(tuple(point)) for c in m.comps)
    return projmap.primitive_vector([Fraction(v) for v in vals])


def _pushed_samples(m: ProjectiveMap, c: Component, count: int, precision: int):
    """Forward images of sample points of {c=0}: ``(points, exact_flag)``."""
    if c.linear:
        out = []
        seen = set()
        for p in _line_points_exact(c.form, 4 * count + 8):
            q = _push_exact(m, p)
            if q not in seen:
                seen.add(q)
                out.append(q)
            if len(out) >= count:
                break
        return out, True
    pts = _curve_points_numeric(c.form, count + 4, precision)
    pushed = numeric.PointSet(precision)
    with mpmath.workprec(precision):
        for p in pts:
            pushed.add(projmap.pushforward_point(m, p, precision))
            if len(pushed.points) >= count:
                break
    return pushed.points, False


def _vanishes_at(form: HomPoly, point, exact: bool, precision: int) -> bool:
    if exact:
        return form.evaluate(tuple(point)) == 0
    tol = numeric.tolerances(precision)
    with mpmath.workprec(tol.prune_precision):
        pt = numeric.normalize_point(point)[0]
        scale = max(abs(v) for v in poly.int_primitive(form).terms.values())
        return mpmath.fabs(numeric.eval_form(form, pt)) < tol.prune_sample * max(int(scale), 1)


def _prune_factors(g: HomPoly, samples, exact: bool, precision: int,
                   diagnostics: list) -> HomPoly:
    """Keep the factors of a square-free form that vanish on every sample."""
    factors, residual = poly.linear_factors(g)
    pieces = [form for form, _ in factors]
    if not residual.is_constant():
        pieces.append(residual)
    kept = []
    for piece in pieces:
        if all(_vanishes_at(piece, q, exact, precision) for q in samples):
            kept.append(piece)
        else:
            diagnostics.append(f"pruned factor {poly.format_poly(piece)}")
    if not kept:
        raise ImageError(
            "image computation failed: every eliminant factor was pruned; "
            + "; ".join(diagnostics)
        )
    out = kept[0]
    for piece in kept[1:]:
        out = out * piece
    return poly.canonical(out)


# -- images: P^1 --------------------------------------------------------------


def _point_image_form(m: ProjectiveMap, point) -> HomPoly:
    """Linear binary form vanishing at the image of a rational point."""
    q = _push_exact(m, point)
    return poly.canonical(poly.linear_form([q[1], -q[0]]))


def _lift(p: HomPoly, nvars: int, offset: int) -> HomPoly:
    """Reinterpret a form in a larger variable ring, shifted by ``offset``."""
    acc = {}
    for e, c in p.terms.items():
        ee = [0] * nvars
        for i, k in enumerate(e):
            ee[offset + i] = k
        acc[tuple(ee)] = c
    return HomPoly(nvars, p.degree, acc)


def _image_p1(m: ProjectiveMap, c: Component, precision: int) -> Component:
    """Image of a finite point set under a P^1 map, as one binary form."""
    factors, residual = poly.linear_factors(c.form)
    image = poly.constant(2, 1)
    for form, _ in factors:
        image = image * _point_image_form(m, poly.root_of_binary_linear(form))
    if not residual.is_constant():
        image = image * _residual_image_p1(m, residual, precision)
    return make_component(image)


def _residual_image_p1(m: ProjectiveMap, r: HomPoly, precision: int) -> HomPoly:
    """Image form of the roots of an irrational binary factor.

    First try the numeric route: push every root, reconstruct the product
    form with rationalized coefficients, and certify it by exact
    divisibility (r divides M∘f when every root of r maps into {M=0}).
    Fall back to exact resultant elimination when certification fails.
    """
    reconstructed = _reconstruct_image_form(m, r, precision)
    if reconstructed is not None:
        return reconstructed
    return _eliminate_image_p1(m, r)


def _reconstruct_image_form(m: ProjectiveMap, r: HomPoly, precision: int):
    with mpmath.workprec(precision):
        try:
            roots = numeric.binary_form_roots(r, precision)
        except numeric.NumericalError:
            return None
        images = numeric.PointSet(precision)
        for root, _mult in roots:
            images.add(projmap.pushforward_point(m, root, precision))
        # Expand prod (q1*s - q0*t) over the distinct image points.
        coeffs = [mpmath.mpc(1)]
        for q in images.points:
            nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                nxt[i] += a * q[1]
                nxt[i + 1] += a * (-q[0])
            coeffs = nxt
        pivot = max(range(len(coeffs)), key=lambda i: mpmath.fabs(coeffs[i]))
        if mpmath.fabs(coeffs[pivot]) == 0:
            return None
        terms = {}
        deg = len(coeffs) - 1
        for i, a in enumerate(coeffs):
            q = numeric.rationalize(a / coeffs[pivot], precision)
            if q is None:
                return None
            if q:
                terms[(deg - i, i)] = q
    candidate = poly.canonical(HomPoly(2, deg, terms))
    pushed = poly.compose(candidate, list(m.comps))
    if poly.exact_divide(pushed, poly.squarefree_part(r)) is None:
        return None
    return candidate


def _eliminate_image_p1(m: ProjectiveMap, r: HomPoly) -> HomPoly:
    # Variables (x0, x1, s, t); eliminate x0 from {r(x), t*F0(x) - s*F1(x)}.
    r4 = _lift(r, 4, 0)
    f0 = _lift(m.comps[0], 4, 0)
    f1 = _lift(m.comps[1], 4, 0)
    rel = f0 * poly.variable(4, 3) - f1 * poly.variable(4, 2)
    stripped = poly.canonical(r)
    if stripped.var_degree(0) < stripped.degree:
        raise ImageError(
            "image computation failed: residual factor has a coordinate root"
        )
    res = poly.resultant_wrt(r4, rel, 0, r.degree, m.d)
    if res.is_zero():
        raise ImageError("image computation failed: degenerate point-set eliminant")
    res = poly.strip_var(res, 1)
    if res.var_degree(1) != 0:
        raise ImageError("image computation failed: eliminant kept a source variable")
    acc = {(e[2], e[3]): v for e, v in res.terms.items()}
    binary = HomPoly(2, res.degree, acc)
    return poly.canonical(poly.squarefree_part(binary))


# -- images: P^2 --------------------------------------------------------------


def _graded_gcd(r: HomPoly, grading_var: int, y_offset: int) -> HomPoly:
    """gcd of the 3-variable Y-forms that split a non-zero r by the grading
    variable's exponent."""
    groups = {}
    for e, c in r.terms.items():
        ye = (e[y_offset], e[y_offset + 1], e[y_offset + 2])
        groups.setdefault(e[grading_var], {})[ye] = c
    pieces = [HomPoly(3, sum(next(iter(t))), t) for _key, t in sorted(groups.items())]
    return poly.gcd_many(pieces) if len(pieces) > 1 else poly.canonical(pieces[0])


def _image_line_parametrized(m: ProjectiveMap, c: Component,
                             precision: int) -> Component:
    """Implicitize the image of a line from its parametrization."""
    emb = projmap.embedding_for_hyperplane(c.form)
    subs = [poly.linear_form(row) for row in emb.matrix]
    g = [poly.compose(comp, subs) for comp in m.comps]
    for b in range(3):
        if g[b].is_zero():
            # The parametrized image lies inside a coordinate line, and an
            # irreducible curve inside a line fills it.
            return make_component(poly.variable(3, b))
    diagnostics = []
    # Variables (s, t, Y0, Y1, Y2).
    g5 = [_lift(q, 5, 0) for q in g]
    yvar = [poly.variable(5, 2 + j) for j in range(3)]
    for anchor in range(3):
        others = [a for a in range(3) if a != anchor]
        rel = [g5[a] * yvar[anchor] - g5[anchor] * yvar[a] for a in others]
        for elim, grade in ((0, 1), (1, 0)):
            da = rel[0].degree - 1
            res = poly.resultant_wrt(rel[0], rel[1], elim, da, da)
            if res.is_zero():
                diagnostics.append(f"anchor {anchor}, eliminating var {elim}: zero resultant")
                continue
            gcd = _graded_gcd(res, grade, 2)
            if gcd.is_constant():
                diagnostics.append(f"anchor {anchor}: coprime graded pieces")
                continue
            sf = poly.squarefree_part(gcd)
            count = max(PRUNE_MIN_SAMPLES, sf.degree * sf.degree + 1)
            samples, exact = _pushed_samples(m, c, count, precision)
            pruned = _prune_factors(sf, samples, exact, precision, diagnostics)
            return make_component(pruned)
    raise ImageError(
        "image computation failed for line "
        f"{poly.format_poly(c.form)}: " + "; ".join(diagnostics)
    )


def _image_by_elimination(m: ProjectiveMap, c: Component,
                          precision: int) -> Component:
    """Double-resultant elimination of the source variables, all charts."""
    diagnostics = []
    # Variables (x0, x1, x2, Y0, Y1, Y2).
    c6 = _lift(c.form, 6, 0)
    f6 = [_lift(comp, 6, 0) for comp in m.comps]
    yvar = [poly.variable(6, 3 + j) for j in range(3)]
    e, d = c.form.degree, m.d
    for grade in (2, 1, 0):
        elim_vars = [v for v in range(3) if v != grade]
        for anchor in range(3):
            others = [a for a in range(3) if a != anchor]
            rel = [f6[a] * yvar[anchor] - f6[anchor] * yvar[a] for a in others]
            for first, second in (tuple(elim_vars), tuple(reversed(elim_vars))):
                r1 = poly.resultant_wrt(c6, rel[0], first, e, d)
                r2 = poly.resultant_wrt(c6, rel[1], first, e, d)
                if r1.is_zero() or r2.is_zero():
                    diagnostics.append(
                        f"grade {grade} anchor {anchor} var {first}: zero first resultant"
                    )
                    continue
                da, db = r1.var_degree(second), r2.var_degree(second)
                if da == 0:
                    res = r1  # already free of the second variable
                elif db == 0:
                    res = r2
                else:
                    res = poly.resultant_wrt(r1, r2, second, da, db)
                if res.is_zero():
                    diagnostics.append(
                        f"grade {grade} anchor {anchor} order ({first},{second}): zero resultant"
                    )
                    continue
                gcd = _graded_gcd(res, grade, 3)
                if gcd.is_constant():
                    diagnostics.append(f"grade {grade} anchor {anchor}: coprime pieces")
                    continue
                sf = poly.squarefree_part(gcd)
                count = max(PRUNE_MIN_SAMPLES, min(sf.degree * sf.degree + 1, 40))
                samples, exact = _pushed_samples(m, c, count, precision)
                pruned = _prune_factors(sf, samples, exact, precision, diagnostics)
                return make_component(pruned)
    raise ImageError(
        "image computation failed for "
        f"{poly.format_poly(c.form)}: " + "; ".join(diagnostics)
    )


def _image_fast(m: ProjectiveMap, c: Component, candidates,
                precision: int) -> Optional[Component]:
    """Certify a candidate image by exact divisibility c | M∘f.

    Containment of the (irreducible) image in a candidate's zero set is
    exactly divisibility of the composed form; the accepted candidate is
    refined through its own factors so a reducible candidate cannot
    overshoot an image that one of its factors already contains.
    """
    forms = []
    for cand in candidates:
        form = cand.form if isinstance(cand, Component) else cand
        if form.nvars != m.k + 1 or form.is_constant():
            continue
        forms.append(poly.canonical(form))
    forms = sorted(set(forms), key=lambda f: (f.degree,) + f.sort_key())
    sample = None
    for form in forms:
        if poly.exact_divide(poly.compose(form, list(m.comps)), c.form) is None:
            continue
        if sample is None:
            sample = _pushed_samples(m, c, 1, precision)
        points, exact = sample
        if not points or not _vanishes_at(form, points[0], exact, precision):
            continue
        return make_component(_refine_candidate(m, c, form))
    return None


def _refine_candidate(m: ProjectiveMap, c: Component, accepted: HomPoly) -> HomPoly:
    # Drop factors of the accepted form that the divisibility certificate
    # does not need; what survives is minimal piece by piece.
    while True:
        factors, residual = poly.linear_factors(accepted)
        pieces = [form for form, _ in factors]
        if not residual.is_constant():
            pieces.append(residual)
        if len(pieces) <= 1:
            return accepted
        for piece in pieces:
            rest = poly.exact_divide(accepted, piece)
            if rest is None or rest.is_constant():
                continue
            if poly.exact_divide(poly.compose(rest, list(m.comps)), c.form) is not None:
                accepted = poly.canonical(rest)
                break
        else:
            return accepted


def image_of_component(m: ProjectiveMap, c: Component, candidates: Sequence = (),
                       precision: Optional[int] = None,
                       method: str = "auto") -> Component:
    """The set-theoretic forward image of a component, as a Component.

    ``method`` selects the route: "fast" certifies one of the supplied
    candidate forms and fails if none passes; "parametrize" implicitizes a
    linear source through its parametrization; "eliminate" runs the general
    double-resultant elimination; "auto" tries fast, then the appropriate
    exact route for the source's shape.
    """
    precision = numeric.resolve_precision(precision)
    if c.form.nvars != m.k + 1:
        raise PcfError("component lives in the wrong variable ring")
    if m.k == 1:
        return _image_p1(m, c, precision)
    if m.k != 2:
        raise PcfError(f"images implemented for P^1 and P^2 only, not P^{m.k}")
    if method == "fast":
        out = _image_fast(m, c, candidates, precision)
        if out is None:
            raise ImageError("no supplied candidate was certified")
        return out
    if method == "parametrize":
        if not c.linear:
            raise PcfError("parametrized implicitization needs a linear source")
        return _image_line_parametrized(m, c, precision)
    if method == "eliminate":
        return _image_by_elimination(m, c, precision)
    if method != "auto":
        raise PcfError(f"unknown image method {method!r}")
    if candidates:
        out = _image_fast(m, c, candidates, precision)
        if out is not None:
            return out
    if c.linear:
        return _image_line_parametrized(m, c, precision)
    return _image_by_elimination(m, c, precision)


# -- the post-critical graph --------------------------------------------------


@dataclass(frozen=True)
class PostCriticalGraph:
    nodes: tuple  # Components in discovery order
    successor: dict  # Component -> Component
    critical: frozenset  # Components of the critical locus
    period: dict  # Component -> cycle length of its terminal cycle
    preperiod: dict  # Component -> steps to reach that cycle

    def origin(self, c: Component) -> str:
        return "critical" if c in self.critical else "image"

    def periodic_nodes(self) -> tuple:
        return tuple(n for n in self.nodes if self.preperiod.get(n) == 0)


@dataclass(frozen=True)
class PcfVerdict:
    status: str  # "PCF" | "not-PCF-within-bound" | "inconclusive"
    components: tuple
    max_iter: int
    max_degree: int
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "PCF"


def _annotate_cycles(nodes, successor):
    period, preperiod = {}, {}
    for start in nodes:
        path = []
        seen = {}
        cur = start
        while cur not in seen:
            seen[cur] = len(path)
            path.append(cur)
            cur = successor[cur]
        cycle_start = seen[cur]
        cycle_len = len(path) - cycle_start
        for i, node in enumerate(path):
            if node not in period:
                period[node] = cycle_len
                preperiod[node] = max(0, cycle_start - i) if i < cycle_start else 0
    return period, preperiod


def _coeff_bits(form: HomPoly) -> int:
    """Bit length of the largest numerator or denominator of a form."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in form.terms.values())


def postcritical_graph(m: ProjectiveMap, max_iter: int = DEFAULT_MAX_ITER,
                       max_degree: int = DEFAULT_MAX_DEGREE,
                       precision: Optional[int] = None):
    """Breadth-first closure of the critical components under images.

    Returns ``(PostCriticalGraph, PcfVerdict)``.  The verdict never claims
    non-PCF-ness: exceeding a bound yields status not-PCF-within-bound, and
    an image failure yields status inconclusive.  The bounds are the image
    budget ``max_iter``, the total degree ``max_degree`` and the coefficient
    size ``MAX_COEFF_BITS``, which every component must meet before it
    enters the graph.
    """
    precision = numeric.resolve_precision(precision)
    crit = critical_components(m)
    nodes = []
    successor = {}
    images_used = 0
    coordinate_forms = [poly.variable(m.k + 1, i) for i in range(m.k + 1)]

    def bail(status, reason):
        graph = PostCriticalGraph(tuple(nodes), dict(successor), frozenset(crit), {}, {})
        verdict = PcfVerdict(status, tuple(nodes), max_iter, max_degree, reason)
        return graph, verdict

    def oversized(c):
        bits = _coeff_bits(c.form)
        if bits > MAX_COEFF_BITS:
            return (f"a component has a {bits}-bit coefficient, over the "
                    f"{MAX_COEFF_BITS}-bit budget")
        return None

    for c in crit:
        if reason := oversized(c):
            return bail("not-PCF-within-bound", reason)
        nodes.append(c)
    index = {c.form for c in nodes}
    queue = deque(nodes)
    while queue:
        c = queue.popleft()
        if c in successor:
            continue
        if images_used >= max_iter:
            return bail("not-PCF-within-bound", f"image budget {max_iter} exhausted")
        total_degree = sum(n.form.degree for n in nodes)
        if total_degree > max_degree:
            return bail("not-PCF-within-bound",
                        f"total component degree {total_degree} exceeds {max_degree}")
        candidates = coordinate_forms + [n.form for n in nodes]
        try:
            img = image_of_component(m, c, candidates=candidates,
                                     precision=precision)
        except (ImageError, numeric.NumericalError) as exc:
            return bail("inconclusive", str(exc))
        images_used += 1
        if img.form not in index:
            if reason := oversized(img):
                return bail("not-PCF-within-bound", reason)
            index.add(img.form)
            nodes.append(img)
            queue.append(img)
        successor[c] = img

    period, preperiod = _annotate_cycles(nodes, successor)
    graph = PostCriticalGraph(tuple(nodes), successor, frozenset(crit), period, preperiod)
    verdict = PcfVerdict("PCF", tuple(nodes), max_iter, max_degree)
    return graph, verdict


# -- the tower ----------------------------------------------------------------


@dataclass(frozen=True)
class TowerEntry:
    embedding: Optional[LinearEmbedding]
    restricted_map: Optional[ProjectiveMap]
    verdict: str  # unbranched | PCF | inconclusive(bound) | unsupported-nonlinear | terminal
    label: str
    period: int
    form: Optional[HomPoly] = None  # ambient form for hypersurface entries
    graph: Optional[PostCriticalGraph] = None


@dataclass(frozen=True)
class TowerLevel:
    m: int  # codimension of the entries
    k_m: int  # iterate exponent used to build this level's maps
    entries: tuple


def _point_label(coords) -> str:
    return "(" + ":".join(str(x) for x in coords) + ")"


def _terminal_entries_p1(graph: PostCriticalGraph, ambient: int,
                         parent_embedding: Optional[LinearEmbedding]):
    """Point entries for the periodic nodes of a P^1 graph."""
    entries = []
    seen = set()
    for node in graph.periodic_nodes():
        if not node.linear:
            entries.append(TowerEntry(None, None, "unsupported-nonlinear",
                                      poly.format_poly(node.form),
                                      graph.period[node], node.form))
            continue
        root = poly.root_of_binary_linear(node.form)
        coords = parent_embedding.apply(root) if parent_embedding else root
        vec = projmap.primitive_vector([Fraction(x) for x in coords])
        if vec in seen:
            continue
        seen.add(vec)
        emb = projmap.embedding_for_point(vec, ambient)
        entries.append(TowerEntry(emb, None, "terminal", _point_label(vec),
                                  graph.period[node]))
    return entries


def build_tower(m: ProjectiveMap, graph: PostCriticalGraph,
                max_iter: int = DEFAULT_MAX_ITER,
                max_degree: int = DEFAULT_MAX_DEGREE,
                precision: Optional[int] = None,
                degree_cap: int = projmap.DEFAULT_DEGREE_CAP):
    """Descend through periodic components until dimension zero.

    Level 1 holds the periodic components of the supplied graph, each with
    the restriction of the appropriate iterate; deeper levels repeat the
    construction inside each restriction.  Non-linear periodic components
    stop their branch with an explicit unsupported verdict.
    """
    periodic = graph.periodic_nodes()
    if not periodic:
        return []
    k1 = lcm(*(graph.period[n] for n in periodic))
    if m.k == 1:
        level = TowerLevel(1, k1, tuple(_terminal_entries_p1(graph, 1, None)))
        return [level]
    if m.k != 2:
        raise PcfError(f"tower implemented for P^1 and P^2 only, not P^{m.k}")

    big = projmap.iterate(m, k1, degree_cap)
    entries = []
    for node in periodic:
        if not node.linear:
            entries.append(TowerEntry(None, None, "unsupported-nonlinear",
                                      poly.format_poly(node.form),
                                      graph.period[node], node.form))
            continue
        emb = projmap.embedding_for_hyperplane(node.form)
        g = projmap.restrict(big, emb, emb)
        jd = projmap.jacobian_det(g)
        if jd.is_constant() and not jd.is_zero():
            entries.append(TowerEntry(emb, g, "unbranched",
                                      poly.format_poly(node.form),
                                      graph.period[node], node.form))
            continue
        subgraph, verdict = postcritical_graph(g, max_iter, max_degree, precision)
        if verdict.ok:
            entry_verdict = "PCF"
        else:
            entry_verdict = "inconclusive(bound)"
        entries.append(TowerEntry(emb, g, entry_verdict,
                                  poly.format_poly(node.form),
                                  graph.period[node], node.form, subgraph))
    levels = [TowerLevel(1, k1, tuple(entries))]

    point_entries = []
    periods = []
    seen = set()
    for entry in entries:
        if entry.graph is None or entry.verdict == "inconclusive(bound)":
            continue
        for sub in _terminal_entries_p1(entry.graph, 2, entry.embedding):
            if sub.embedding is not None:
                key = sub.embedding.canonical_columns()
                if key in seen:
                    continue
                seen.add(key)
            point_entries.append(sub)
            periods.append(sub.period)
    if point_entries:
        k2 = lcm(*periods)
        levels.append(TowerLevel(2, k2, tuple(point_entries)))
    return levels


# -- structural audits --------------------------------------------------------


@dataclass(frozen=True)
class IntersectionEvidence:
    point: str
    members: tuple  # indices into the component sequence
    rank_at_point: int
    generic_rank: int
    exact: bool


@dataclass(frozen=True)
class TransversalityReport:
    verdict: str  # weakly-transverse | weakly-transverse(sampled) | not-weakly-transverse | inconclusive
    evidence: tuple
    witness: Optional[str] = None


def _gradient_rows(forms, point):
    rows = []
    for f in forms:
        rows.append([poly.partial(f, j).evaluate(tuple(point))
                     for j in range(f.nvars)])
    return rows


def _numeric_rank(rows, tol) -> int:
    # Entries may be exact Fractions (constant partials of linear forms),
    # which mpmath's constructors reject; mpc_from converts both kinds.
    m = [[numeric.mpc_from(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    scale = max((mpmath.fabs(x) for row in m for x in row), default=mpmath.mpf(0))
    if scale == 0:
        return 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        best = tol * scale
        for r in range(row, len(m)):
            if mpmath.fabs(m[r][col]) > best:
                best = mpmath.fabs(m[r][col])
                pivot = r
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and mpmath.fabs(m[r][col]) > 0:
                fac = m[r][col]
                m[r] = [a - fac * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank


_PERTURBATIONS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
    (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 3),
)


def weak_transversality(components: Sequence[Component],
                        precision: Optional[int] = None) -> TransversalityReport:
    """Constant-rank audit of the component arrangement.

    All-linear arrangements are decided exactly (gradients are constant, so
    the rank is literally constant).  Arrangements with a non-linear member
    compare the stacked-gradient rank at each pairwise intersection point
    with the rank at nearby perturbed points; a drop is a certified failure
    witness, while agreement is only sampled evidence.
    """
    precision = numeric.resolve_precision(precision)
    comps = list(components)
    if len({c.form for c in comps}) != len(comps):
        raise PcfError("components must be pairwise distinct")
    if not comps:
        return TransversalityReport("weakly-transverse", ())
    nvars = comps[0].form.nvars
    if nvars != 3:
        raise PcfError("transversality audit expects plane components")
    if all(c.linear for c in comps):
        return _transversality_linear(comps)
    return _transversality_general(comps, precision)


def _transversality_linear(comps) -> TransversalityReport:
    points = {}
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            kernel = projmap.nullspace_basis([poly.linear_coeffs(comps[i].form),
                                              poly.linear_coeffs(comps[j].form)])
            if len(kernel) != 1:
                continue  # identical lines are excluded upstream
            points.setdefault(kernel[0], set()).update((i, j))
    evidence = []
    for vec in sorted(points):
        members = tuple(sorted(
            idx for idx, c in enumerate(comps)
            if c.form.evaluate(tuple(vec)) == 0
        ))
        rows = _gradient_rows([comps[i].form for i in members], vec)
        rank = projmap.exact_rank(rows)
        evidence.append(IntersectionEvidence(_point_label(vec), members,
                                             rank, rank, True))
    return TransversalityReport("weakly-transverse", tuple(evidence))


def _transversality_general(comps, precision: int) -> TransversalityReport:
    with mpmath.workprec(precision):
        seen = numeric.PointSet(precision)
        rank_tol = numeric.tolerances(precision).dedup  # refined roots sit far below this
        points = []  # (mpc triple, exact rational triple or None)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                try:
                    found, _ = numeric.solve_pair_p2(comps[i].form, comps[j].form,
                                                     precision)
                except numeric.NumericalError as exc:
                    return TransversalityReport("inconclusive", (),
                                                witness=str(exc))
                for pt in found:
                    if seen.add(pt) is None:
                        rat = [numeric.rationalize(x, precision) for x in pt]
                        exact = None
                        if all(r is not None for r in rat):
                            exact = projmap.primitive_vector(rat)
                            if any(c.form.evaluate(tuple(exact)) != 0
                                   for c in comps
                                   if mpmath.fabs(numeric.eval_form(c.form, pt)) < rank_tol):
                                exact = None
                        points.append((pt, exact))
        evidence = []
        witness = None
        sampled = False
        for pt, exact in points:
            members = tuple(sorted(
                idx for idx, c in enumerate(comps)
                if (exact is not None and c.form.evaluate(tuple(exact)) == 0)
                or (exact is None and mpmath.fabs(numeric.eval_form(c.form, pt)) < rank_tol)
            ))
            forms = [comps[i].form for i in members]
            if exact is not None:
                rank_here = projmap.exact_rank(_gradient_rows(forms, exact))
                generic = rank_here
                eps = Fraction(1, 10**6)
                for delta in _PERTURBATIONS:
                    nearby = tuple(x + eps * dx for x, dx in zip(exact, delta))
                    generic = max(generic, projmap.exact_rank(_gradient_rows(forms, nearby)))
                label = _point_label(exact)
                is_exact = True
            else:
                sampled = True
                rank_here = _numeric_rank(_gradient_rows(forms, pt), rank_tol)
                generic = rank_here
                eps = mpmath.mpf(10) ** -6
                for delta in _PERTURBATIONS:
                    nearby = tuple(x + eps * dx for x, dx in zip(pt, delta))
                    generic = max(generic, _numeric_rank(_gradient_rows(forms, nearby),
                                                         rank_tol))
                label = "(" + ", ".join(mpmath.nstr(x, 12) for x in pt) + ")"
                is_exact = False
            evidence.append(IntersectionEvidence(label, members, rank_here,
                                                 generic, is_exact))
            if generic > rank_here and witness is None:
                witness = label
    if witness is not None:
        return TransversalityReport("not-weakly-transverse", tuple(evidence), witness)
    verdict = "weakly-transverse(sampled)" if sampled else "weakly-transverse"
    return TransversalityReport(verdict, tuple(evidence))


@dataclass(frozen=True)
class ContainmentPoint:
    point: str  # a rational point's ambient label, else a binary form in (s, t)
    matched: Optional[str]  # the critical component of f that f^step maps it into
    ok: bool
    step: Optional[int]


@dataclass(frozen=True)
class ContainmentReport:
    entries: tuple  # (label, verdict str, tuple of ContainmentPoint)

    @property
    def ok(self) -> bool:
        return all(v in ("pass", "vacuous") for _, v, _pts in self.entries)


def _containment_points(g: HomPoly, emb: LinearEmbedding, matched, step) -> list:
    """g's rational linear factors by their ambient points, then the rest as a form."""
    factors, residual = poly.linear_factors(g)
    labels = [_point_label(projmap.primitive_vector(
        [Fraction(x) for x in emb.apply(poly.root_of_binary_linear(form))]))
        for form, _ in factors]
    if not residual.is_constant():
        labels.append(poly.format_poly(poly.canonical(residual)))
    return [ContainmentPoint(label, matched, matched is not None, step) for label in labels]


def restricted_critical_containment(m: ProjectiveMap, level: TowerLevel,
                                    crit: Sequence[Component]) -> ContainmentReport:
    """Check the critical points of each restriction against crit(f^n), exactly.

    For an entry L with embedding e and restriction g = f^n|L, n = level.k_m,
    let G be the square-free part of g's Jacobian.  Step j = 0, 1, ... divides
    out of G its gcd with the product of c∘f^j∘e over the critical components
    c of f other than those containing f^j(L), and reports the gcd's pieces
    with j and the component each divides.  The entry passes when G ends
    constant; the rest of G is reported unmatched.
    """
    results = []
    for entry in level.entries:
        g = entry.restricted_map
        jd = None if g is None or entry.embedding is None else projmap.jacobian_det(g)
        if jd is None or jd.is_constant():
            results.append((entry.label, "vacuous", ()))
            continue
        rest = poly.squarefree_part(jd)
        orbit = [poly.linear_form(row) for row in entry.embedding.matrix]
        checks = []
        for step in range(level.k_m):
            if rest.is_constant():
                break
            if step:
                orbit = [poly.compose(comp, orbit) for comp in m.comps]
            # A component containing f^j(L) vanishes there and is skipped.
            pulled = [(c, q) for c in crit if (q := poly.compose(c.form, orbit))]
            if not pulled:
                continue
            # Exact divisions settle the usual cases without a gcd: the last
            # step takes all that is left of G, and one pull-back the whole gcd.
            product = prod(q for _c, q in pulled)
            found = rest if poly.exact_divide(product, rest) is not None else poly.gcd(rest, product)
            if found.is_constant():
                continue
            rest = poly.exact_divide(rest, found)
            whole = next((c for c, q in pulled if poly.exact_divide(q, found) is not None), None)
            if whole is not None:
                checks += _containment_points(found, entry.embedding, str(whole), step)
                continue
            for c, q in pulled:
                share = poly.gcd(found, q)
                if not share.is_constant():
                    checks += _containment_points(share, entry.embedding, str(c), step)
                    found = poly.exact_divide(found, share)
        verdict = "pass" if rest.is_constant() else "fail"
        if verdict == "fail":
            checks += _containment_points(rest, entry.embedding, None, None)
        results.append((entry.label, verdict, tuple(checks)))
    return ContainmentReport(tuple(results))


@dataclass(frozen=True)
class DegreeCheck:
    label: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def topdeg_check(level: TowerLevel, d: int):
    """Compare each P^1 restriction's degree with d^(k_m)."""
    out = []
    for entry in level.entries:
        if entry.restricted_map is None:
            continue
        g = entry.restricted_map
        if g.k != 1:
            continue
        out.append(DegreeCheck(entry.label, d**level.k_m, projmap.p1_degree(g)))
    return tuple(out)
