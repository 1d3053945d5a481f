"""Critical orbits, forward images, and the invariant-subspace tower.

The unit of bookkeeping is a component: a primitive square-free form whose
zero set is one piece of the critical locus or of a forward image of it.
This module closes the critical components under the image operation,
decides whether that closure is finite within configured bounds, and when
it is, descends through the restrictions to periodic linear subspaces until
dimension zero.  It also houses the structural audits quoted by reports:
weak transversality of the arrangement, and containment of each
restriction's critical points in crit(f^n), decided exactly by gcds along
the orbit of the restricted line.

Images are exact.  The image of {c = 0} is cut out by the least-degree form
M with c | M∘f, found by linear algebra over the monomials of each degree in
turn (implicitization by undetermined coefficients).  The same solve serves
point sets on P^1 and lines and curves on P^2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import lcm, prod
from typing import ClassVar, Optional, Sequence

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

class PcfError(RuntimeError):
    """Structural failure in post-critical analysis."""


class ImageError(PcfError):
    """No form of degree at most d * deg c vanishes on a component's image.

    That happens only where the map is not well defined on the component.
    """


# -- components ---------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    """A primitive square-free sign-normalized form, one orbit node."""

    form: HomPoly

    @property
    def linear(self) -> bool:
        return self.form.degree == 1

    @property
    def irreducible_status(self) -> str:
        return "certified-linear" if self.linear else "unverified"

    def __str__(self):
        return poly.format_poly(self.form)


def _component_key(c: Component):
    return (c.form.degree,) + c.form.sort_key()


def critical_components(m: ProjectiveMap):
    """Components of the critical locus, linear factors split off.

    The rational linear factors of the square-free part of the Jacobian
    determinant are split off; whatever does not split, a form with no
    rational linear factor, stays as a single unverified component.  Each
    piece divides the square-free part, so it is square-free itself.
    """
    jd = projmap.jacobian_det(m)
    if jd.is_zero():
        raise PcfError("jacobian determinant vanishes identically")
    if jd.is_constant():
        return ()
    sf = poly.squarefree_part(jd)
    factors, residual = poly.linear_factors(sf)
    comps = [Component(poly.canonical(form)) for form, _mult in factors]
    if not residual.is_constant():
        comps.append(Component(poly.canonical(residual)))
    return tuple(sorted(comps, key=_component_key))


# -- images -------------------------------------------------------------------


def image_of_component(m: ProjectiveMap, c: Component) -> Component:
    """The set-theoretic forward image of a component, as a Component.

    The image of {c = 0} is cut out by the forms M of least degree with
    c | M∘f.  For delta = 1, 2, ... this solves the linear system
    sum_a u_a * rem(f^a, c) = 0 over the monomials a of degree delta, where
    rem is the remainder of leading-term division by c (zero exactly when c
    divides), and returns the first non-zero solution.  The solutions of the
    least degree are the multiples of the image's reduced equation by a
    scalar, so the kernel there is a line.  For a well-defined map the
    image has degree at most d * deg c.  That solution M is square-free:
    were M = N^2 R with N not constant, the square-free c would divide
    (NR)∘f, a solution of lower degree.

    On P^1 a linear component is a rational point p, and its image is the
    point f(p), which :func:`poly.binary_image` evaluates exactly; the
    linear form through f(p) is the solution of degree 1.  Only where f(p)
    is the zero vector, so that f is not well defined at p, does the
    linear system run, and it ends in ImageError.
    """
    if c.form.nvars != m.k + 1:
        raise PcfError("component lives in the wrong variable ring")
    nvars = m.k + 1
    if nvars == 2 and c.linear:
        u, v = poly.binary_image(m.comps, poly.root_of_binary_linear(c.form))
        if u or v:
            return Component(poly.canonical(poly.linear_form((v, -u))))
    # rem(f^a) for the exponent tuples a of one degree, each built as
    # rem(f^b) * f_i from a tuple b one degree lower.
    reduced = {(0,) * nvars: poly.constant(nvars, 1)}
    for delta in range(1, m.d * c.form.degree + 1):
        below, reduced = reduced, {}
        for b, r in below.items():
            for i, comp in enumerate(m.comps):
                a = b[:i] + (b[i] + 1,) + b[i + 1:]
                if a not in reduced:
                    reduced[a] = poly.remainder(r * comp, c.form)
        columns = [r.terms for r in reduced.values()]
        rows = sorted(set().union(*columns))
        kernel = projmap.nullspace_basis(
            [[col.get(e, 0) for col in columns] for e in rows])
        if kernel:
            return Component(poly.canonical(HomPoly(nvars, delta, dict(zip(reduced, kernel[0])))))
    raise ImageError(
        f"no form of degree at most {m.d * c.form.degree} vanishes on the image "
        f"of {poly.format_poly(c.form)}; the map is not well defined there"
    )



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
                       max_degree: int = DEFAULT_MAX_DEGREE):
    """Breadth-first closure of the critical components under images.

    Returns ``(PostCriticalGraph, PcfVerdict)``.  The verdict never claims
    non-PCF-ness: exceeding a bound yields status not-PCF-within-bound, and
    an image failure yields status inconclusive.  The bounds are the image
    budget ``max_iter``, the total degree ``max_degree`` and the coefficient
    size ``MAX_COEFF_BITS``, which every component must meet before it
    enters the graph.
    """
    crit = critical_components(m)
    nodes = []
    successor = {}
    images_used = 0

    def bail(status, reason):
        graph = PostCriticalGraph(tuple(nodes), dict(successor), frozenset(crit), {}, {})
        verdict = PcfVerdict(status, max_iter, max_degree, reason)
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
        try:
            img = image_of_component(m, c)
        except ImageError as exc:
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
    verdict = PcfVerdict("PCF", max_iter, max_degree)
    return graph, verdict


# -- the tower ----------------------------------------------------------------


@dataclass(frozen=True)
class TowerEntry:
    embedding: Optional[LinearEmbedding]
    restricted_map: Optional[ProjectiveMap]
    verdict: str  # PCF | inconclusive(bound) | unsupported-nonlinear | terminal
    label: str
    period: int
    # the forms f^j∘e of the embedding e, j = 0..k1 (projmap.restrict_iterate),
    # for a restricted line; empty for every other entry
    orbit: tuple
    graph: Optional[PostCriticalGraph] = None


@dataclass(frozen=True)
class TowerLevel:
    m: int  # codimension of the entries
    k_m: int  # iterate exponent used to build this level's maps
    entries: tuple


def _point_label(coords) -> str:
    return "(" + ":".join(str(x) for x in coords) + ")"


def _terminal_entries_p1(graph: PostCriticalGraph, ambient: int,
                         parent_embedding: Optional[LinearEmbedding], seen: set):
    """Point entries for the periodic nodes of a P^1 graph.

    A point whose primitive vector is in ``seen`` is skipped, and each new
    one is added to it.
    """
    entries = []
    for node in graph.periodic_nodes():
        if not node.linear:
            entries.append(TowerEntry(None, None, "unsupported-nonlinear",
                                      poly.format_poly(node.form), graph.period[node], ()))
            continue
        root = poly.root_of_binary_linear(node.form)
        coords = parent_embedding.apply(root) if parent_embedding else root
        vec = poly.primitive_vector(coords)
        if vec in seen:
            continue
        seen.add(vec)
        emb = projmap.embedding_for_point(vec, ambient)
        entries.append(TowerEntry(emb, None, "terminal", _point_label(vec),
                                  graph.period[node], ()))
    return entries


def build_tower(m: ProjectiveMap, graph: PostCriticalGraph,
                max_iter: int = DEFAULT_MAX_ITER,
                max_degree: int = DEFAULT_MAX_DEGREE):
    """Descend through periodic components until dimension zero.

    Level 1 holds the periodic components of the supplied graph, each with
    the restriction of the appropriate iterate; deeper levels repeat the
    construction inside each restriction.  Non-linear periodic components
    stop their branch with an explicit unsupported verdict.  On P^2 the
    degree d^k1 is checked against the cap first, whatever the nodes, and
    each line L's restriction g = f^k1|L comes from
    :func:`projmap.restrict_iterate`, which composes along L's orbit in
    binary forms and builds no ternary iterate; the entry keeps that orbit
    for :func:`restricted_critical_containment`.  Each g is branched: the
    restriction leaves g no common factor, so g has degree D = d^k1 >= 2 (a
    map with d = 1 has no critical component, so its tower is empty), and a
    zero Jacobian would make g0/g1 constant, a common factor; so the
    Jacobian has degree 2(D - 1) > 0.
    """
    periodic = graph.periodic_nodes()
    if not periodic:
        return []
    k1 = lcm(*(graph.period[n] for n in periodic))
    if m.k == 1:
        return [TowerLevel(1, k1, tuple(_terminal_entries_p1(graph, 1, None, set())))]
    if m.k != 2:
        raise PcfError(f"tower implemented for P^1 and P^2 only, not P^{m.k}")

    projmap.check_iterate_degree(m, k1)
    entries = []
    for node in periodic:
        label, period = poly.format_poly(node.form), graph.period[node]
        if not node.linear:
            entries.append(TowerEntry(None, None, "unsupported-nonlinear", label, period, ()))
            continue
        emb = projmap.embedding_for_hyperplane(node.form)
        g, orbit = projmap.restrict_iterate(m, emb, k1)
        subgraph, verdict = postcritical_graph(g, max_iter, max_degree)
        entries.append(TowerEntry(emb, g, "PCF" if verdict.ok else "inconclusive(bound)",
                                  label, period, orbit, subgraph))
    levels = [TowerLevel(1, k1, tuple(entries))]

    seen = set()
    points = [sub for entry in entries if entry.verdict == "PCF"
              for sub in _terminal_entries_p1(entry.graph, 2, entry.embedding, seen)]
    if points:
        levels.append(TowerLevel(2, lcm(*(p.period for p in points)), tuple(points)))
    return levels


# -- structural audits --------------------------------------------------------


@dataclass(frozen=True)
class IntersectionEvidence:
    generic_rank: ClassVar[int] = 2  # the rank of two members that meet transversally

    point: str
    members: tuple  # indices into the component sequence
    rank_at_point: int  # least rank of two members' gradients at the point
    exact: bool  # the point is rational, and its label and rank are exact


@dataclass(frozen=True)
class TransversalityReport:
    # weakly-transverse | not-weakly-transverse, decided exactly pair by pair
    verdict: str
    evidence: tuple
    witness: Optional[str] = None


def _tangent(a: HomPoly, b: HomPoly) -> bool:
    """Whether two plane curves meet somewhere with dependent gradients.

    Exactly when a, b and the three 2 x 2 minors of their gradients have a
    common zero, which :func:`projmap.has_common_zero` decides.  Curves
    sharing a factor count as tangent along it.
    """
    ga, gb = ([poly.partial(f, j) for j in range(3)] for f in (a, b))
    minors = [ga[j] * gb[k] - ga[k] * gb[j] for j, k in ((1, 2), (2, 0), (0, 1))]
    return projmap.has_common_zero([a, b, *minors])


def _pair_rank(a: HomPoly, b: HomPoly, point, gradients) -> int:
    """Rank of the gradients of a and b at a point where both vanish.

    Exact at a rational point.  At a :class:`numeric.Point`, 2 for a pair
    that is not tangent anywhere, whose ``gradients`` are None.  Otherwise
    ``gradients`` holds the compiled partials of a and of b, and each
    gradient is evaluated in fixed point (:func:`numeric.direction`): the
    rank counts the gradients that do not vanish, and is 1, not 2, when
    both are one direction within dedup (:func:`numeric.same_point`).
    """
    if numeric.is_exact(point):
        return projmap.exact_rank([[poly.partial(f, j).evaluate(point) for j in range(3)]
                                   for f in (a, b)])
    if gradients is None:
        return 2
    ga, gb = (numeric.direction(g, point) for g in gradients)
    if ga is None or gb is None:
        return (ga is not None) + (gb is not None)
    return 1 if numeric.same_point(ga, gb) else 2


def weak_transversality(components: Sequence[Component],
                        precision: Optional[int] = None) -> TransversalityReport:
    """Pairwise audit of the component arrangement.

    The arrangement is weakly transverse when every two components meet
    transversally, with independent gradients, wherever they meet.  Each
    pair is decided exactly by :func:`_tangent`, and a tangent pair makes
    the verdict not-weakly-transverse.  The evidence lists the points of
    :func:`projmap.pairwise_intersections`, rational ones sorted first,
    with the least :func:`_pair_rank` of two members there.  The witness is
    the first point of rank below 2, or else the first tangent pair; it
    also names every pair whose points could not be solved for, which
    leaves the verdict as it is.
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
    forms = [c.form for c in comps]
    tangent = [pair for pair in combinations(range(len(forms)), 2)
               if _tangent(*(forms[i] for i in pair))]
    points, failed = projmap.pairwise_intersections(forms, precision)
    rational = sum(numeric.is_exact(pt) for pt, _pairs in points)
    evidence = []
    with mpmath.workprec(precision):
        # the compiled partials of each member of a tangent pair, once
        gradients = {i: numeric.compile_forms([poly.partial(forms[i], j) for j in range(3)])
                     for i in sorted({i for pair in tangent for i in pair})}
        for pt, pairs in sorted(points[:rational]) + points[rational:]:
            members = tuple(sorted({i for pair in pairs for i in pair}))
            least = min(_pair_rank(forms[i], forms[j], pt,
                                   (gradients[i], gradients[j]) if (i, j) in tangent else None)
                        for i, j in combinations(members, 2))
            label = _point_label(pt) if numeric.is_exact(pt) else numeric.format_point(pt, 12)
            evidence.append(IntersectionEvidence(label, members, least,
                                                 numeric.is_exact(pt)))
    witness = next((ev.point for ev in evidence if ev.rank_at_point < 2), None)
    if witness is None and tangent:
        i, j = tangent[0]
        witness = f"components {i} and {j} are tangent"
    notes = [witness] + [f"points of components {i} and {j} not located: {exc}"
                         for (i, j), exc in failed]
    return TransversalityReport(
        "not-weakly-transverse" if tangent else "weakly-transverse",
        tuple(evidence), "; ".join(n for n in notes if n) or None)


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
    labels = [_point_label(poly.primitive_vector(
        emb.apply(poly.root_of_binary_linear(form))))
        for form, _ in factors]
    if not residual.is_constant():
        labels.append(poly.format_poly(poly.canonical(residual)))
    return [ContainmentPoint(label, matched, matched is not None, step) for label in labels]


def restricted_critical_containment(m: ProjectiveMap, level: TowerLevel,
                                    crit: Sequence[Component]) -> ContainmentReport:
    """Check the critical points of each restriction against crit(f^n), exactly.

    For an entry L with embedding e and restriction g = f^n|L, n = level.k_m,
    let G be the square-free part of g's Jacobian, the product of the
    critical components of L's graph.  Step j = 0, 1, ... divides out of G
    its gcd with the product of c∘f^j∘e over the critical components c of
    f other than those containing f^j(L), and reports the gcd's pieces
    with j and the component each divides.  The forms f^j∘e are the
    entry's orbit, which :func:`build_tower` kept from the restriction, so
    nothing of m is composed again; they are f^j∘e up to a scalar, which
    no gcd or division here sees.  The entry passes when G ends constant;
    the rest of G is reported unmatched.  An entry with no restricted map
    is vacuous; every g has a Jacobian of positive degree (see
    :func:`build_tower`).
    """
    results = []
    for entry in level.entries:
        if entry.restricted_map is None:
            results.append((entry.label, "vacuous", ()))
            continue
        rest = prod(c.form for c in sorted(entry.graph.critical, key=_component_key))
        checks = []
        for step in range(level.k_m):
            if rest.is_constant():
                break
            # A component containing f^j(L) vanishes there and is skipped.
            pulled = [(c, q) for c in crit if (q := poly.compose(c.form, entry.orbit[step]))]
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

