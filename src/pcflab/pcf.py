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

Images are exact.  The image of {c = 0} is cut out by the least-degree form
M with c | M∘f, found by linear algebra over the monomials of each degree in
turn (implicitization by undetermined coefficients).  The same solve serves
point sets on P^1 and lines and curves on P^2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
    image has degree at most d * deg c.
    """
    if c.form.nvars != m.k + 1:
        raise PcfError("component lives in the wrong variable ring")
    nvars = m.k + 1
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
            return make_component(HomPoly(nvars, delta, dict(zip(reduced, kernel[0]))))
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
        subgraph, verdict = postcritical_graph(g, max_iter, max_degree)
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
    rank_at_point: int  # least rank of two members' gradients at the point
    generic_rank: int  # 2: the rank of two members that meet transversally
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


def _pair_evidence(label: str, members: tuple, rows, rank,
                   exact: bool) -> IntersectionEvidence:
    """Evidence at one point from its members' gradient rows.

    The arrangement is weakly transverse at the point when every two
    members have independent gradients there, so the least rank of a pair
    of rows is compared with 2.  ``rank`` ranks a list of rows.
    """
    least = min((rank([a, b]) for a, b in combinations(rows, 2)), default=2)
    return IntersectionEvidence(label, members, least, 2, exact)


def weak_transversality(components: Sequence[Component],
                        precision: Optional[int] = None) -> TransversalityReport:
    """Pairwise audit of the component arrangement.

    At every point where two or more components meet, every two of them
    must have independent gradients, that is meet transversally; the first
    point where a pair does not is the witness.  All-linear arrangements
    are decided exactly, and so is every rational point of the others.  At
    an irrational point the ranks are numeric, with the dedup tolerance, so
    a pass there is only ``weakly-transverse(sampled)``.
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
        evidence.append(_pair_evidence(_point_label(vec), members, rows,
                                       projmap.exact_rank, True))
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
                ev = _pair_evidence(_point_label(exact), members,
                                    _gradient_rows(forms, exact),
                                    projmap.exact_rank, True)
            else:
                sampled = True
                ev = _pair_evidence(
                    "(" + ", ".join(mpmath.nstr(x, 12) for x in pt) + ")", members,
                    _gradient_rows(forms, pt),
                    lambda rows: _numeric_rank(rows, rank_tol), False)
            evidence.append(ev)
            if ev.rank_at_point < ev.generic_rank and witness is None:
                witness = ev.point
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
