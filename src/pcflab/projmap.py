"""Endomorphisms of projective space defined by exact rational forms.

A map of P^k is a tuple of k+1 homogeneous forms of a common degree in k+1
variables with no common nontrivial zero.  This module owns the exact layer
of that definition: structural validation with a nondegeneracy certificate,
iteration, Jacobian determinants, restriction to invariant linear subspaces,
and high-precision point evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Optional, Sequence

import mpmath

from . import numeric, poly
from .poly import HomPoly

DEFAULT_DEGREE_CAP = 4096


class MapError(ValueError):
    """Structural problem with a map or embedding."""


class DegreeCapError(RuntimeError):
    """An iterate would exceed the configured degree cap."""


class RestrictionError(ValueError):
    """The subspace pair is not invariant under the map."""


# -- exact linear algebra over the rationals --------------------------------


def _rref(m: list, ncols: int) -> list:
    """Gauss-Jordan reduce the Fraction rows m in place on their first ncols columns.

    Returns the pivot columns; pivot row r carries a 1 in pivots[r].
    """
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(m):
            break
        pivot = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                fac = m[r][col]
                m[r] = [a - fac * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    return pivots


def exact_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix by fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    return len(_rref(m, len(m[0]))) if m else 0


def nullspace_basis(rows: Sequence[Sequence[Fraction]]) -> list:
    """Basis of the right kernel, as primitive integer column vectors."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = _rref(m, ncols)
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(primitive_vector(vec))
    return basis


def primitive_vector(vec: Sequence[Fraction]) -> tuple:
    """Integer representative of a rational point: content 1, first non-zero entry positive."""
    den = 1
    for x in vec:
        x = Fraction(x)
        den = den * x.denominator // int_gcd(den, x.denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v > 0:
            break
        if v < 0:
            ints = [-x for x in ints]
            break
    return tuple(Fraction(v) for v in ints)


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> list:
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    if len(_rref(m, n)) < n:
        raise MapError("matrix is singular")
    return [row[n:] for row in m]


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

    @property
    def corank(self) -> int:
        return self.ambient_dim - self.source_dim

    def apply(self, coords: Sequence) -> tuple:
        """Image of a source point (any ring: Fraction or mpc coordinates)."""
        if len(coords) != self.source_dim + 1:
            raise MapError("coordinate count mismatch in embedding")
        return tuple(
            sum(row[j] * coords[j] for j in range(len(coords)))
            for row in self.matrix
        )

    def compose(self, inner: "LinearEmbedding") -> "LinearEmbedding":
        """This embedding after ``inner`` (matrix product self * inner)."""
        if inner.ambient_dim != self.source_dim:
            raise MapError("embedding shapes do not compose")
        rows = []
        for row in self.matrix:
            rows.append(
                tuple(
                    sum(row[t] * inner.matrix[t][j] for t in range(len(inner.matrix)))
                    for j in range(inner.source_dim + 1)
                )
            )
        return LinearEmbedding(tuple(rows))

    def canonical_columns(self) -> tuple:
        """Columns as primitive sign-normalized integer vectors (for identity)."""
        cols = []
        for j in range(self.source_dim + 1):
            col = [self.matrix[i][j] for i in range(len(self.matrix))]
            cols.append(primitive_vector(col))
        return tuple(sorted(cols))


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
    vec = primitive_vector([Fraction(c) for c in coords])
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
    reduced = False
    if len(nonzero) == 1:
        g = poly.canonical(nonzero[0])
    else:
        g = poly.gcd_many(nonzero)
    if not g.is_constant():
        comps = [
            poly.zero(c.nvars, c.degree - g.degree) if c.is_zero() else poly.exact_divide(c, g)
            for c in comps
        ]
        reduced = True
    return _normalize_scalars(comps), reduced


def _normalize_scalars(comps: Sequence[HomPoly]) -> list:
    """Joint scalar normalization of a component tuple: integer
    coefficients, overall content 1, first nonzero component
    sign-normalized.  No polynomial factor is removed."""
    from math import gcd as int_gcd

    den = 1
    for c in comps:
        for q in c.terms.values():
            den = den * q.denominator // int_gcd(den, q.denominator)
    num = 0
    for c in comps:
        for q in c.terms.values():
            num = int_gcd(num, abs(q.numerator * (den // q.denominator)))
    if num == 0:
        raise MapError("all components vanish identically")
    scale = Fraction(den, num)
    comps = [c.scale(scale) for c in comps]
    first = next(c for c in comps if not c.is_zero())
    if first.leading()[1] < 0:
        comps = [c.scale(-1) for c in comps]
    return comps


def validate(m: ProjectiveMap, precision: Optional[int] = None) -> ValidationResult:
    """Primitivize and certify that the only common zero is the origin.

    For P^1 the certificate is a nonvanishing homogeneous resultant.  For
    P^2 it combines direct checks at the coordinate points with iterated
    resultants over every variable order, each taken at formal degrees
    equal to the total degrees so that it vanishes at every common zero
    even where an x_i-degree drops; when every order degenerates, a
    high-precision search hunts for an approximate common zero to use as a
    witness.
    """
    precision = numeric.resolve_precision(precision)
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
    if mm.d == 0:
        # Non-zero constants have no common zero.
        return ValidationResult(mm, "well-defined", reduced=reduced)
    if mm.k == 1:
        res = poly.resultant_wrt(comps[0], comps[1], 0, mm.d, mm.d)
        if res.is_zero():
            g = poly.gcd(comps[0], comps[1])
            return ValidationResult(
                mm, "degenerate",
                witness=f"common factor {poly.format_poly(g)}", reduced=reduced,
            )
        return ValidationResult(mm, "well-defined", reduced=reduced)
    return _validate_p2(mm, reduced, precision)


def _validate_p2(mm: ProjectiveMap, reduced: bool, precision: int) -> ValidationResult:
    comps = mm.comps
    names = ("x", "y", "z")
    # Pairwise common factors force a common zero of all three by dimension.
    for i in range(3):
        for j in range(i + 1, 3):
            g = poly.gcd(comps[i], comps[j])
            if not g.is_constant():
                third = 3 - i - j
                point = _zero_on_factor(g, comps[third], precision)
                witness = (
                    f"common zero at {point}" if point is not None else
                    f"components {i} and {j} share the factor "
                    f"{poly.format_poly(g)}, which meets the zero set of "
                    f"the third component"
                )
                return ValidationResult(
                    mm, "degenerate", witness=witness, reduced=reduced,
                )
    # Coordinate points.
    for v in range(3):
        point = tuple(Fraction(int(t == v)) for t in range(3))
        if all(c.evaluate(point) == 0 for c in comps):
            coords = ":".join("1" if t == v else "0" for t in range(3))
            return ValidationResult(
                mm, "degenerate", witness=f"common zero at ({coords})", reduced=reduced,
            )
    # Iterated resultants: eliminating x_v detects any common zero whose
    # other two coordinates do not both vanish; those exceptional points are
    # exactly the coordinate points already checked.
    for v in range(3):
        pads = {}
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            r = poly.resultant_wrt(comps[i], comps[j], v, mm.d, mm.d)
            if r.var_degree(v):
                raise MapError("a validation resultant kept the eliminated variable")
            if not r.is_zero():
                pads[(i, j)] = poly.slice_poly(r, v)
        keys = sorted(pads)
        for s in range(len(keys)):
            for t in range(s + 1, len(keys)):
                ra, rb = pads[keys[s]], pads[keys[t]]
                rho = poly.resultant_wrt(ra, rb, 0, ra.degree, rb.degree)
                if not rho.is_zero():
                    return ValidationResult(mm, "well-defined", reduced=reduced)
    # Every certificate degenerated: look for an actual common zero.
    witness = _search_common_zero(comps, precision)
    if witness is not None:
        return ValidationResult(
            mm, "degenerate",
            witness="approximate common zero at " + witness, reduced=reduced,
        )
    raise MapError(
        "validation inconclusive: every resultant certificate degenerated "
        "but no common zero was found numerically"
    )


def _zero_on_factor(g: HomPoly, other: HomPoly, precision: int) -> Optional[str]:
    """An explicit common zero on a factor shared by two components.

    Rational points get exact integer coordinates; otherwise a numeric
    solution is reported approximately.  None means the point resisted
    both routes (the caller falls back to a structural message).
    """
    factors, _residual = poly.linear_factors(poly.squarefree_part(g))
    for form, _mult in factors:
        emb = embedding_for_hyperplane(form)
        subs = [poly.linear_form(row) for row in emb.matrix]
        restricted = poly.compose(other, subs)
        if restricted.is_zero():
            pt = emb.apply((Fraction(1), Fraction(0)))
            return "(" + ":".join(str(x) for x in primitive_vector(list(pt))) + ")"
        lin, _res = poly.linear_factors(restricted)
        for lf, _m in lin:
            pt = primitive_vector(emb.apply(poly.root_of_binary_linear(lf)))
            return "(" + ":".join(str(x) for x in pt) + ")"
    try:
        points, _ = numeric.solve_pair_p2(g, other, precision)
    except numeric.NumericalError:
        return None
    for pt in points:
        return "(" + ", ".join(mpmath.nstr(numeric.mpc_from(c), 8) for c in pt) + ")"
    return None


def _search_common_zero(comps, precision: int) -> Optional[str]:
    with mpmath.workprec(precision):
        tol = numeric.tolerances(precision).verify
        for i, j in ((0, 1), (0, 2), (1, 2)):
            third = [t for t in range(3) if t not in (i, j)][0]
            try:
                points, _ = numeric.solve_pair_p2(comps[i], comps[j], precision)
            except numeric.NumericalError:
                continue
            for pt in points:
                if mpmath.fabs(numeric.eval_form(comps[third], pt)) < tol:
                    return "(" + ", ".join(mpmath.nstr(numeric.mpc_from(c), 8) for c in pt) + ")"
    return None


# -- iteration and calculus ---------------------------------------------------


def iterate(m: ProjectiveMap, n: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> ProjectiveMap:
    """The n-th iterate as an explicit primitive tuple of forms.

    Precondition: m is well-defined (as certified by ``validate``).  Then
    the components of m o m^(n-1) have no common factor, because a factor
    would vanish at some point p and make m^(n-1)(p), which is not the
    origin, a common zero of m.  So only the scalar content is normalized;
    no polynomial gcd is taken.
    """
    if n < 1:
        raise MapError("iterate count must be >= 1")
    if m.d**n > degree_cap:
        raise DegreeCapError(
            f"degree {m.d}^{n} = {m.d**n} exceeds the cap {degree_cap}"
        )
    current = m
    for _ in range(n - 1):
        comps = [poly.compose(c, current.comps) for c in m.comps]
        current = ProjectiveMap(_normalize_scalars(comps))
    return current


def jacobian_det(m: ProjectiveMap) -> HomPoly:
    """Determinant of the matrix of partials; degree (k+1)(d-1)."""
    rows = [
        [poly.partial(c, j) for j in range(m.k + 1)]
        for c in m.comps
    ]
    return poly.det(rows)


def p1_degree(m: ProjectiveMap) -> int:
    """Algebraic degree of a map of P^1, after primitive reduction."""
    if m.k != 1:
        raise MapError("p1_degree applies to maps of P^1")
    comps, _ = primitivize(m.comps)
    return comps[0].degree


def restrict(m: ProjectiveMap, source: LinearEmbedding, target: LinearEmbedding) -> ProjectiveMap:
    """The map g on P^r with target * g = m * source, solved exactly.

    Raises RestrictionError when the image of the source subspace does not
    lie in the target subspace (the system has no exact solution).

    Precondition: m is well-defined (as certified by ``validate``).  Then g
    has no common factor, because a factor would vanish at some point of
    P^r whose image under the source embedding is a common zero of m.  So
    only the scalar content is normalized; no polynomial gcd is taken.
    """
    if source.ambient_dim != m.k or target.ambient_dim != m.k:
        raise MapError("embedding ambient dimension does not match the map")
    if source.source_dim != target.source_dim:
        raise MapError("source and target subspaces must share a dimension")
    r = source.source_dim
    if r < 1:
        raise MapError("restriction to a point has no polynomial model")
    subs = [
        poly.linear_form([source.matrix[i][j] for j in range(r + 1)])
        for i in range(m.k + 1)
    ]
    pushed = [poly.compose(c, subs) for c in m.comps]
    # Choose r+1 independent rows of the target matrix and invert them.
    rows_idx = _independent_rows(target.matrix, r + 1)
    sub_matrix = [list(target.matrix[i]) for i in rows_idx]
    inv = invert_matrix(sub_matrix)
    exponents = sorted(
        {e for q in pushed for e in q.terms}
    )
    new_terms = [dict() for _ in range(r + 1)]
    for e in exponents:
        h = [pushed[i].terms.get(e, Fraction(0)) for i in range(m.k + 1)]
        g_e = [
            sum(inv[a][b] * h[rows_idx[b]] for b in range(r + 1))
            for a in range(r + 1)
        ]
        # Verify the full overdetermined system, not just the selected rows.
        for i in range(m.k + 1):
            lhs = sum(target.matrix[i][a] * g_e[a] for a in range(r + 1))
            if lhs != h[i]:
                raise RestrictionError(
                    "not an invariant subspace pair: residual "
                    f"{lhs - h[i]} at monomial {e} in row {i}"
                )
        for a in range(r + 1):
            if g_e[a]:
                new_terms[a][e] = g_e[a]
    comps = [HomPoly(r + 1, m.d, t) for t in new_terms]
    return ProjectiveMap(_normalize_scalars(comps))


def _independent_rows(matrix, need: int) -> list:
    chosen = []
    for i in range(len(matrix)):
        trial = chosen + [i]
        if exact_rank([matrix[t] for t in trial]) == len(trial):
            chosen = trial
            if len(chosen) == need:
                return chosen
    raise MapError("embedding matrix lost rank")


# -- numeric evaluation -------------------------------------------------------


def pushforward_point(m: ProjectiveMap, coords, precision: Optional[int] = None):
    """Image of a point, max-modulus normalized, at the given precision."""
    precision = numeric.resolve_precision(precision)
    with mpmath.workprec(precision):
        vals = tuple(numeric.eval_form(c, coords) for c in m.comps)
        return numeric.normalize_point(vals)[0]


def orbit(m: ProjectiveMap, coords, length: int, precision: Optional[int] = None):
    """The first ``length`` images of a point (not including the point)."""
    precision = numeric.resolve_precision(precision)
    out = []
    with mpmath.workprec(precision):
        current = numeric.normalize_point(coords)[0]
        for _ in range(length):
            current = pushforward_point(m, current, precision)
            out.append(current)
    return out
