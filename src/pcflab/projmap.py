"""Endomorphisms of projective space defined by exact rational forms.

A map of P^k is a tuple of k+1 homogeneous forms of a common degree in k+1
variables with no common nontrivial zero.  This module owns the exact layer
of that definition: structural validation with a nondegeneracy certificate,
iteration, Jacobian determinants, and restriction to invariant linear
subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd as int_gcd, lcm
from typing import Optional, Sequence

import mpmath

from . import numeric, poly
from .poly import HomPoly

DEFAULT_DEGREE_CAP = 4096


class MapError(ValueError):
    """Structural problem with a map or embedding."""


class DegreeCapError(RuntimeError):
    """An iterate would exceed the degree cap."""


class RestrictionError(ValueError):
    """The subspace pair is not invariant under the map."""


# -- exact linear algebra over the rationals --------------------------------


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> list:
    """Each row of a rational matrix, of ints and Fractions, scaled to
    integers by the lcm of its denominators, which changes no rank or
    kernel, for :func:`poly.echelon`."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _back_substitute(pivots: list, echelon: list, vec: dict) -> dict:
    """Complete ``vec``, a dict from column to integer that sets some
    non-pivot columns, with the pivot entries on which every echelon row
    vanishes, and return it.  The callers set their columns to a multiple
    of the last pivot D, the minor on the pivot rows and columns: by
    Cramer's rule the pivot entries are then integers, so each division is
    exact."""
    for pc, row in reversed(list(zip(pivots, echelon))):
        vec[pc] = -sum(row[c] * x for c, x in vec.items() if c > pc) // row[pc]
    return vec


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix: the pivot count of :func:`poly.echelon`."""
    return len(poly.echelon(_integer_rows(rows))[0])


def nullspace_basis(rows: Sequence[Sequence[Fraction]]) -> list:
    """Basis of the right kernel, as primitive integer column vectors.

    Each free column gets one vector: the last pivot at that column, zero
    at the other free columns, and its pivot entries by back-substitution.
    """
    ncols = len(rows[0]) if rows else 0
    pivots, echelon, _sign = poly.echelon(_integer_rows(rows))
    d = echelon[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = _back_substitute(pivots, echelon, {fc: d})
            basis.append(poly.primitive_vector([vec.get(c, 0) for c in range(ncols)]))
    return basis


# -- core types --------------------------------------------------------------


class ProjectiveMap:
    """A self-map of P^k given by k+1 forms of common degree d."""

    __slots__ = ("k", "d", "comps")

    def __init__(self, comps: Sequence[HomPoly]):
        comps = tuple(comps)
        if len(comps) < 2:
            raise MapError("a map of P^k needs at least two components")
        k = len(comps) - 1
        nvars = comps[0].nvars
        if nvars != k + 1:
            raise MapError(
                f"{k + 1} components must use {k + 1} variables, got {nvars}"
            )
        d = comps[0].degree
        for c in comps:
            if c.nvars != nvars:
                raise MapError("components disagree on variable count")
            if c.degree != d:
                raise MapError(
                    f"components disagree on degree: {c.degree} vs {d}"
                )
        if all(c.is_zero() for c in comps):
            raise MapError("all components vanish identically")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "comps", comps)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveMap is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveMap)
            and self.k == other.k
            and self.d == other.d
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash((self.k, self.d, self.comps))

    def __repr__(self):
        body = " : ".join(poly.format_poly(c) for c in self.comps)
        return f"ProjectiveMap(P^{self.k}, degree {self.d}, ({body}))"


@dataclass(frozen=True)
class LinearEmbedding:
    """A linear embedding P^r -> P^k given by a full-column-rank matrix.

    ``matrix`` has k+1 rows and r+1 columns of Fractions; the embedded
    subspace is its column span.
    """

    matrix: tuple  # tuple of row tuples

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        if not rows or not rows[0]:
            raise MapError("empty embedding matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise MapError("ragged embedding matrix")
        if width > len(rows):
            raise MapError("embedding cannot raise dimension")
        if exact_rank(rows) != width:
            raise MapError("embedding matrix must have full column rank")
        object.__setattr__(self, "matrix", rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.matrix) - 1

    @property
    def source_dim(self) -> int:
        return len(self.matrix[0]) - 1

    def apply(self, coords: Sequence) -> tuple:
        """Image of a source point of rational coordinates."""
        if len(coords) != self.source_dim + 1:
            raise MapError("coordinate count mismatch in embedding")
        return tuple(
            sum(row[j] * coords[j] for j in range(len(coords)))
            for row in self.matrix
        )


def embedding_for_hyperplane(form: HomPoly) -> LinearEmbedding:
    """Embedding of the hyperplane cut out by a linear form."""
    if form.degree != 1:
        raise MapError("hyperplane embedding needs a linear form")
    basis = nullspace_basis([poly.linear_coeffs(form)])
    cols = sorted(basis, reverse=True)
    rows = tuple(
        tuple(col[i] for col in cols) for i in range(form.nvars)
    )
    return LinearEmbedding(rows)


def embedding_for_point(coords: Sequence[Fraction], ambient: int) -> LinearEmbedding:
    vec = poly.primitive_vector(coords)
    if len(vec) != ambient + 1:
        raise MapError("point has the wrong coordinate count")
    return LinearEmbedding(tuple((v,) for v in vec))


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    map: ProjectiveMap
    verdict: str  # "well-defined" | "degenerate"
    witness: Optional[str] = None
    reduced: bool = False

    @property
    def ok(self) -> bool:
        return self.verdict == "well-defined"


def primitivize(comps: Sequence[HomPoly]):
    """Divide a component tuple by its polynomial gcd and common content.

    Returns ``(new_comps, reduced)`` where ``reduced`` records whether a
    nonconstant common factor was removed.
    """
    comps = list(comps)
    nonzero = [c for c in comps if not c.is_zero()]
    if not nonzero:
        raise MapError("all components vanish identically")
    g = poly.gcd_many(nonzero)
    reduced = not g.is_constant()
    if reduced:
        comps = [poly.zero(c.nvars, c.degree - g.degree) if c.is_zero()
                 else poly.exact_divide(c, g) for c in comps]
    return _normalize_scalars(comps), reduced


def _normalize_scalars(comps: Sequence[HomPoly]) -> list:
    """Joint scalar normalization of a component tuple: integer
    coefficients, overall content 1, first nonzero component
    sign-normalized.  No polynomial factor is removed."""
    coeffs = [q for c in comps for q in c.terms.values()]
    den = lcm(*(q.denominator for q in coeffs))
    num = int_gcd(*(q.numerator * (den // q.denominator) for q in coeffs))
    if num == 0:
        raise MapError("all components vanish identically")
    scale = Fraction(den, num)
    comps = [c.scale(scale) for c in comps]
    first = next(c for c in comps if not c.is_zero())
    if first.leading()[1] < 0:
        comps = [c.scale(-1) for c in comps]
    return comps


def has_common_zero(forms: Sequence[HomPoly]) -> bool:
    """Whether forms in n variables share a zero other than the origin.

    Zero forms are dropped, and fewer than n forms left always share one.
    Otherwise the forms have no common zero exactly when their products
    m * f, m a monomial of degree D - deg f, span every form of degree D,
    the sum of the n largest degrees minus n - 1 (Lazard 1983).  For n
    forms of one degree that is the argument of :func:`validate`.
    """
    n = forms[0].nvars
    forms = [f for f in forms if not f.is_zero()]
    if len(forms) < n:
        return True
    if any(f.degree == 0 for f in forms):
        return False  # a non-zero constant vanishes nowhere
    top = sum(sorted(f.degree for f in forms)[-n:]) - (n - 1)
    shifts = [{(0,) * n}]  # shifts[s]: the monomials of degree s
    for _ in range(top - min(f.degree for f in forms)):
        shifts.append({m[:i] + (m[i] + 1,) + m[i + 1:] for m in shifts[-1] for i in range(n)})
    rows = [{tuple(a + b for a, b in zip(e, m)): q for e, q in f.terms.items()}
            for f in forms for m in sorted(shifts[top - f.degree])]
    columns = sorted(set().union(*rows))
    matrix = [[r.get(e, 0) for e in columns] for r in rows]
    return exact_rank(matrix) < comb(top + n - 1, n - 1)


def validate(m: ProjectiveMap, precision: Optional[int] = None) -> ValidationResult:
    """Primitivize and decide whether the only common zero is the origin.

    The decision is one exact rank (Macaulay 1916), :func:`has_common_zero`.
    In n = k + 1 variables, n forms f_0..f_k of degree d with no common
    zero but the origin form a regular sequence, so the quotient of the
    polynomial ring by their ideal has the Hilbert series
    (1 + t + ... + t^(d-1))^n, a polynomial of degree n(d - 1).  Every form
    of degree D = n(d - 1) + 1 then lies in the ideal: it is a combination
    of the products m * f_i, m a monomial of degree D - d = k(d - 1).  A
    common zero p bars that, since every such product vanishes at p and
    x_j^D does not, x_j a coordinate of p that is non-zero.  So the map is
    well defined exactly when the matrix of those products has rank the
    number of monomials of degree D; for P^1 it is the Sylvester matrix.

    A degenerate map gets a witness.  On P^2 it is a common zero on a
    factor shared by two components, or else one of the common zeros of
    the coprime f_0 and f_1 from :func:`numeric.solve_pair_p2`: the first
    rational one where f_2 vanishes exactly, or the irrational one where
    |f_2| is least, reported as approximate.  A failed solve leaves the
    verdict and quotes the error.  On P^1 only a vanishing component makes
    a map degenerate, as primitivizing divides out a common factor.

    When no component vanishes, the rank is taken first on the components
    as given, scaled only, and the gcd only when they have a common zero: a
    non-constant common factor vanishes on a curve of common zeros (a point
    of P^1), so a full rank proves the gcd constant and the components
    primitive.  A common zero with a constant gcd is degenerate as it
    stands; only components that primitivizing changed are ranked again.
    """
    precision = numeric.resolve_precision(precision)
    if m.k <= 2 and not any(c.is_zero() for c in m.comps):
        comps = _normalize_scalars(m.comps)
        if not has_common_zero(comps):
            return ValidationResult(ProjectiveMap(comps), "well-defined")
    comps, reduced = primitivize(m.comps)
    mm = ProjectiveMap(comps)
    for i, c in enumerate(comps):
        if c.is_zero():
            return ValidationResult(
                mm, "degenerate",
                witness=f"component {i} vanishes identically", reduced=reduced,
            )
    if mm.k > 2:
        raise MapError(f"validation implemented for P^1 and P^2 only, not P^{mm.k}")
    if reduced and not has_common_zero(comps):
        return ValidationResult(mm, "well-defined", reduced=reduced)
    return ValidationResult(mm, "degenerate", witness=_witness(comps, precision),
                            reduced=reduced)


def _witness(comps: Sequence[HomPoly], precision: int) -> str:
    """Where the components of a degenerate map of P^2 vanish together."""
    # Pairwise common factors force a common zero of all three by dimension.
    for i in range(3):
        for j in range(i + 1, 3):
            g = poly.gcd(comps[i], comps[j])
            if not g.is_constant():
                point = _zero_on_factor(g, comps[3 - i - j], precision)
                return _zero_text(point) if point is not None else (
                    f"components {i} and {j} share the factor "
                    f"{poly.format_poly(g)}, which meets the zero set of "
                    f"the third component"
                )
    # Now f_0 and f_1 are coprime, and every common zero is one of theirs.
    try:
        points = numeric.solve_pair_p2(comps[0], comps[1], precision)
    except numeric.NumericalError as exc:
        return f"no common zero located: solving components 0 and 1 failed: {exc}"
    for pt in points:
        if numeric.is_exact(pt) and comps[2].evaluate(pt) == 0:
            return _zero_text(pt)
    # A common zero that is not rational is one of the irrational points.
    with mpmath.workprec(precision):
        third = numeric.MpForm(comps[2])
    # the least |f_2|^2, read at the scale of the fixed values
    return _zero_text(min((pt for pt in points if not numeric.is_exact(pt)),
                          key=lambda pt: sum(v * v for v in third.fixed(pt.fixed))))


def _zero_text(pt) -> str:
    """A witness point as text: (a:b:c) in coprime integers when it is
    exact, its coordinates to 8 digits when it is approximate."""
    if numeric.is_exact(pt):
        return "common zero at (" + ":".join(str(x) for x in poly.primitive_vector(pt)) + ")"
    return "approximate common zero at " + numeric.format_point(pt, 8)


def _zero_on_factor(g: HomPoly, other: HomPoly, precision: int):
    """A common zero of ``other`` and a factor g shared by two components.

    A rational point on a linear factor of g comes back exact, and
    otherwise the first common zero of g and ``other`` from the pair
    solver.  None means the solve failed (the caller falls back to a
    structural message).
    """
    factors, _residual = poly.linear_factors(poly.squarefree_part(g))
    for form, _mult in factors:
        emb = embedding_for_hyperplane(form)
        subs = [poly.linear_form(row) for row in emb.matrix]
        restricted = poly.compose(other, subs)
        if restricted.is_zero():
            return emb.apply((Fraction(1), Fraction(0)))
        lin, _res = poly.linear_factors(restricted)
        for lf, _m in lin:
            return emb.apply(poly.root_of_binary_linear(lf))
    try:
        return numeric.solve_pair_p2(g, other, precision)[0]
    except numeric.NumericalError:
        return None


def pairwise_intersections(forms: Sequence[HomPoly], precision: int):
    """The points where two of a list of distinct plane curves meet.

    Returns ``(points, failed)``.  ``points`` holds ``(point, pairs)``, the
    pairs (i, j), i < j, of curves that meet at the point.  The rational
    points come first, each as its primitive integer vector, then the
    others as :class:`numeric.Point` values merged within dedup;
    each group is in the order the pairs first meet it.  Two lines meet at
    the kernel of their coefficient rows, and any other pair at the points
    of :func:`numeric.solve_pair_p2`, which returns every rational point
    exactly.  ``failed`` holds ``((i, j), error)`` for each pair whose
    solve raised NumericalError.
    """
    exact, approx, approx_pairs, failed = {}, numeric.PointSet(precision), [], []
    with mpmath.workprec(precision):
        for i, j in combinations(range(len(forms)), 2):
            a, b = forms[i], forms[j]
            try:
                found = (nullspace_basis([poly.linear_coeffs(a), poly.linear_coeffs(b)])
                         if a.degree == b.degree == 1
                         else numeric.solve_pair_p2(a, b, precision))
            except numeric.NumericalError as exc:
                failed.append(((i, j), exc))
                continue
            for pt in found:
                if numeric.is_exact(pt):
                    exact.setdefault(poly.primitive_vector(pt), []).append((i, j))
                    continue
                known = approx.add(pt)
                if known is None:
                    approx_pairs.append([(i, j)])
                else:
                    approx_pairs[known].append((i, j))
    return [*exact.items(), *zip(approx.points, approx_pairs)], failed


# -- iteration and calculus ---------------------------------------------------


def check_iterate_degree(m: ProjectiveMap, n: int) -> None:
    """Raise DegreeCapError when d^n, the degree of the n-th iterate,
    exceeds DEFAULT_DEGREE_CAP, and MapError when n < 1."""
    if n < 1:
        raise MapError("iterate count must be >= 1")
    if m.d**n > DEFAULT_DEGREE_CAP:
        raise DegreeCapError(
            f"degree {m.d}^{n} = {m.d**n} exceeds the cap {DEFAULT_DEGREE_CAP}"
        )


def iterate(m: ProjectiveMap, n: int) -> ProjectiveMap:
    """The n-th iterate as an explicit primitive tuple of forms.

    Precondition: m is well-defined (as certified by ``validate``).  Then
    the components of m o m^(n-1) have no common factor, because a factor
    would vanish at some point p and make m^(n-1)(p), which is not the
    origin, a common zero of m.  So only the scalar content is normalized;
    no polynomial gcd is taken.  Raises DegreeCapError when d^n exceeds
    DEFAULT_DEGREE_CAP.
    """
    check_iterate_degree(m, n)
    current = m
    for _ in range(n - 1):
        comps = [poly.compose(c, current.comps) for c in m.comps]
        current = ProjectiveMap(_normalize_scalars(comps))
    return current


def jacobian_det(m: ProjectiveMap) -> HomPoly:
    """Determinant of the matrix of partials; degree (k+1)(d-1).  Written
    out for P^1 and P^2, as ``validate`` accepts no other k."""
    if m.k not in (1, 2):
        raise MapError(f"jacobian implemented for P^1 and P^2 only, not P^{m.k}")
    a = [[poly.partial(c, j) for j in range(m.k + 1)] for c in m.comps]
    if m.k == 1:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def p1_degree(m: ProjectiveMap) -> int:
    """Algebraic degree of a map of P^1, after primitive reduction."""
    if m.k != 1:
        raise MapError("p1_degree applies to maps of P^1")
    comps, _ = primitivize(m.comps)
    return comps[0].degree


def _check_subspaces(m: ProjectiveMap, source: LinearEmbedding, target: LinearEmbedding) -> None:
    """Raise MapError unless m may be restricted from source to target."""
    if source.ambient_dim != m.k or target.ambient_dim != m.k:
        raise MapError("embedding ambient dimension does not match the map")
    if source.source_dim != target.source_dim:
        raise MapError("source and target subspaces must share a dimension")
    if source.source_dim < 1:
        raise MapError("restriction to a point has no polynomial model")


def _solve_restriction(pushed: Sequence[HomPoly], target: LinearEmbedding) -> ProjectiveMap:
    """The map g on P^r with target * g = pushed, solved exactly.

    For each monomial e of the forms ``pushed``, the coefficients g_e solve
    target * g_e = pushed_e, and one echelon (:func:`poly.echelon`) of the
    rows [target | pushed] serves every e.  The target has full column
    rank, so its r + 1 columns hold the first pivots.  A further pivot lies
    in the column of a monomial e whose system has no solution, and
    RestrictionError names e.  Otherwise back-substitution gives D * g_e in
    integers, D the last pivot, and the common factor D goes with the
    scalar normalization, which is all the normalization g gets.
    """
    n = target.source_dim + 1
    exponents = sorted({e for q in pushed for e in q.terms})
    pivots, echelon, _sign = poly.echelon(_integer_rows(
        [list(row) + [q.terms.get(e, 0) for e in exponents]
         for row, q in zip(target.matrix, pushed)]))
    if len(pivots) > n:
        raise RestrictionError("not an invariant subspace pair: no solution "
                               f"at monomial {exponents[pivots[n] - n]}")
    d = echelon[n - 1][n - 1]
    new_terms = [{} for _ in range(n)]
    for j, e in enumerate(exponents):
        g_e = _back_substitute(pivots, echelon, {n + j: -d})
        for a in range(n):
            if g_e[a]:
                new_terms[a][e] = g_e[a]
    comps = [HomPoly(n, pushed[0].degree, t) for t in new_terms]
    return ProjectiveMap(_normalize_scalars(comps))


def restrict(m: ProjectiveMap, source: LinearEmbedding, target: LinearEmbedding) -> ProjectiveMap:
    """The map g on P^r with target * g = m * source, solved exactly.

    The forms m * source are solved for g by :func:`_solve_restriction`,
    whose RestrictionError means that the image of the source subspace
    does not lie in the target subspace.

    Precondition: m is well-defined (as certified by ``validate``).  Then g
    has no common factor, because a factor would vanish at some point of
    P^r whose image under the source embedding is a common zero of m.  So
    only the scalar content is normalized; no polynomial gcd is taken.
    """
    _check_subspaces(m, source, target)
    subs = [poly.linear_form(row) for row in source.matrix]
    return _solve_restriction([poly.compose(c, subs) for c in m.comps], target)


def restrict_iterate(m: ProjectiveMap, emb: LinearEmbedding, n: int):
    """The restriction f^n|L to an invariant subspace L, and L's orbit.

    For a well-defined m (the precondition of :func:`restrict`), returns
    ``(g, orbit)``: g equals ``restrict(iterate(m, n), emb, emb)``, and
    orbit[j] is the tuple of forms f^j∘e, j = 0, ..., n, e the linear forms
    of ``emb``.  Each step composes m's components with the forms of the
    step before, forms in the r + 1 variables of L, so no iterate of m is
    built.  No step is normalized: the components of f^(n-1) that
    ``iterate`` composes are those of m∘...∘m up to a scalar, which
    :func:`_solve_restriction` normalizes away with D.  Raises
    DegreeCapError as :func:`iterate` does, and RestrictionError when f^n
    does not map L into itself.
    """
    check_iterate_degree(m, n)
    _check_subspaces(m, emb, emb)
    orbit = [tuple(poly.linear_form(row) for row in emb.matrix)]
    for _ in range(n):
        orbit.append(tuple(poly.compose(c, orbit[-1]) for c in m.comps))
    return _solve_restriction(orbit[-1], emb), tuple(orbit)
