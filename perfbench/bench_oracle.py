"""Reference computations that the benchmark checks pcflab's outputs against.

Nothing here imports pcflab.  Forms are dicts ``{exponents: Fraction}``
whose exponent tuples all sum to the degree; points are tuples of
Fractions (exact) or Python complex numbers (floating).  The exact parts
recompute what a verdict must be from the map alone: pull-backs under a
linear change of coordinates, the post-critical closure of a map whose
critical locus is a union of lines, orbits of rational points.  The
floating parts give the periodic points of the squaring maps in closed form
and the basin a pixel must fall into.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product

NAMES = {2: "st", 3: "xyz"}


# -- forms ---------------------------------------------------------------------


def monomial_exps(nvars: int, degree: int):
    """Every exponent tuple of the given total degree, in a fixed order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomial_exps(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def form_degree(f: dict) -> int:
    return sum(next(iter(f)))


def add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def scale(f: dict, c) -> dict:
    return {e: v * c for e, v in f.items()} if c else {}


def mul(f: dict, g: dict) -> dict:
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(f: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(n):
        out = mul(out, f)
    return out


def linear(coeffs) -> dict:
    n = len(coeffs)
    return {tuple(int(i == j) for j in range(n)): Fraction(c)
            for i, c in enumerate(coeffs) if c}


def substitute(f: dict, subs, nvars: int) -> dict:
    """f(subs[0], ..., subs[n-1]) for forms subs in nvars variables."""
    cache = {}
    out = {}
    for e, c in f.items():
        term = {(0,) * nvars: Fraction(c)}
        for i, k in enumerate(e):
            if k:
                if (i, k) not in cache:
                    cache[i, k] = power(subs[i], k, nvars)
                term = mul(term, cache[i, k])
        out = add(out, term)
    return out


def evaluate(f: dict, point):
    acc = 0
    for e, c in f.items():
        v = c
        for x, k in zip(point, e):
            if k:
                v *= x ** k
        acc += v
    return acc


def partial(f: dict, i: int) -> dict:
    out = {}
    for e, c in f.items():
        if e[i]:
            ee = list(e)
            ee[i] -= 1
            out[tuple(ee)] = c * e[i]
    return out


def canonical(f: dict) -> tuple:
    """Hashable key shared by all non-zero rational multiples of a form.

    Coefficients become coprime integers and the coefficient of the
    lexicographically largest exponent is made positive.
    """
    den = 1
    for c in f.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = {e: int(c * den) for e, c in f.items()}
    g = 0
    for v in ints.values():
        g = math.gcd(g, v)
    lead = ints[max(ints)]
    g = g if lead > 0 else -g
    return tuple(sorted((e, v // g) for e, v in ints.items()))


def parse_form(text: str, nvars: int) -> dict:
    """Read a form written in pcflab's report notation, e.g. ``4*x*z - y^2``."""
    names = NAMES[nvars]
    out = {}
    degree = None
    for piece in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = Fraction(sign)
        exps = [0] * nvars
        for factor in piece.split("*"):
            base, _, exp = factor.partition("^")
            if base in names:
                exps[names.index(base)] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        e = tuple(exps)
        if degree is None:
            degree = sum(e)
        elif sum(e) != degree:
            raise ValueError(f"{text!r} is not homogeneous")
        out[e] = out.get(e, 0) + coeff
    return {e: c for e, c in out.items() if c}


def mapfile_forms(obj: dict):
    """The component forms of a MapFile dict."""
    forms = []
    for terms in obj["components"]:
        f = {}
        for t in terms:
            f = add(f, {tuple(t["exps"]): Fraction(int(t["num"]), int(t["den"]))})
        forms.append(f)
    return forms


def to_mapfile(forms) -> dict:
    nvars = len(next(iter(forms[0])))
    comps = []
    for f in forms:
        comps.append([{"num": str(c.numerator), "den": str(c.denominator),
                       "exps": list(e)} for e, c in sorted(f.items(), reverse=True)])
    return {"k": nvars - 1, "degree": form_degree(forms[0]), "components": comps}


# -- matrices and maps ---------------------------------------------------------


def det(a) -> Fraction:
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return sum((-1) ** j * a[0][j] * det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)))


def adjugate(a):
    """adj(a) = det(a) a^-1, integral when a is."""
    n = len(a)
    if n == 2:
        return [[a[1][1], -a[0][1]], [-a[1][0], a[0][0]]]
    return [[(-1) ** (i + j) * det([row[:i] + row[i + 1:] for k, row in enumerate(a) if k != j])
             for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def pull_back(f: dict, a) -> dict:
    """The form v -> f(a v)."""
    return substitute(f, [linear(row) for row in a], len(a))


def conjugate(forms, a):
    """adj(a) o f o a, the map a^-1 o f o a with integral coefficients."""
    pulled = [pull_back(f, a) for f in forms]
    return [_sum_scaled(row, pulled) for row in adjugate(a)]


def apply_map(forms, point):
    return tuple(evaluate(f, point) for f in forms)


def parallel(p, q) -> bool:
    """Exact projective equality of two non-zero vectors."""
    n = len(p)
    return (any(p) and any(q)
            and all(p[i] * q[j] == p[j] * q[i] for i in range(n) for j in range(i + 1, n)))


def jacobian_det(forms) -> dict:
    n = len(forms)
    rows = [[partial(f, j) for j in range(n)] for f in forms]
    return _det_forms(rows)


def _det_forms(rows) -> dict:
    if len(rows) == 1:
        return rows[0][0]
    out = {}
    for j in range(len(rows)):
        minor = _det_forms([r[:j] + r[j + 1:] for r in rows[1:]])
        if rows[0][j] and minor:
            out = add(out, scale(mul(rows[0][j], minor), (-1) ** j))
    return out


def nullspace(rows):
    """Basis of {v : rows v = 0} over the rationals, by Gauss-Jordan."""
    m = [list(r) for r in rows]
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / Fraction(m[r][c])
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -m[i][free]
        basis.append(v)
    return basis


# -- post-critical closure for maps of P^2 -----------------------------------------


def line_param(f: dict):
    """A linear parametrization (forms in s, t) of the line {f = 0}."""
    a = [f.get(e, Fraction(0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    p, q = nullspace([a])
    return [linear([p[i], q[i]]) for i in range(3)]


def param_points(param, count: int):
    """Distinct rational points on a parametrized curve."""
    out, seen = [], set()
    for s, t in _coprime_pairs():
        pt = tuple(evaluate(f, (Fraction(s), Fraction(t))) for f in param)
        if not any(pt):
            continue
        key = _proj_key(pt)
        if key not in seen:
            seen.add(key)
            out.append(pt)
            if len(out) == count:
                return out


def _coprime_pairs():
    yield (1, 0)
    n = 1
    while True:
        for s in range(-n, n + 1):
            if math.gcd(s, n) == 1:
                yield (s, n)
        n += 1


def _proj_key(pt):
    pivot = next(c for c in pt if c)
    return tuple(c / pivot for c in pt)


def implicit_curve(points, max_degree: int) -> dict:
    """The lowest-degree plane curve through all given points."""
    for d in range(1, max_degree + 1):
        exps = monomial_exps(3, d)
        basis = nullspace([[evaluate({e: Fraction(1)}, p) for e in exps] for p in points])
        if len(basis) == 1:
            return {e: c for e, c in zip(exps, basis[0]) if c}
        if basis:
            raise ValueError(f"{len(basis)} curves of degree {d} fit the samples")
    raise ValueError(f"no curve of degree <= {max_degree} fits the samples")


class Closure:
    """Post-critical components of a plane map, each with a parametrization.

    ``nodes`` maps a canonical key to ``(form, param, origin)``; ``successor``
    maps each key to the key of its image; ``period`` and ``preperiod``
    describe each node's place in the functional graph.
    """

    def __init__(self, nodes, successor):
        self.nodes = nodes
        self.successor = successor
        self.period, self.preperiod = {}, {}
        for key in nodes:
            path = [key]
            while path.count(path[-1]) < 2:
                path.append(successor[path[-1]])
            first = path.index(path[-1])
            self.preperiod[key] = first
            self.period[key] = len(path) - 1 - first

    def conjugated(self, a) -> "Closure":
        """The closure of adj(a) o f o a: every form pulled back by a."""
        adj = adjugate(a)
        keymap, nodes = {}, {}
        for key, (form, param, origin) in self.nodes.items():
            g = pull_back(form, a)
            moved = [_sum_scaled(row, param) for row in adj]
            keymap[key] = canonical(g)
            nodes[keymap[key]] = (g, moved, origin)
        return Closure(nodes, {keymap[k]: keymap[v] for k, v in self.successor.items()})


def _sum_scaled(row, forms):
    acc = {}
    for c, f in zip(row, forms):
        acc = add(acc, scale(f, Fraction(c)))
    return acc


def closure(forms, critical_lines, budget: int = 32) -> Closure:
    """Forward closure of the critical lines of a plane map.

    The critical lines must multiply to the Jacobian determinant up to a
    constant, which is checked here.  Images are found by interpolation
    through exact image points of each component's parametrization.
    """
    jac = jacobian_det(forms)
    prod = {(0, 0, 0): Fraction(1)}
    for f in critical_lines:
        prod = mul(prod, f)
    if canonical(prod) != canonical(jac):
        raise ValueError("the stated critical lines do not factor the Jacobian")
    d = form_degree(forms[0])
    nodes, successor = {}, {}
    queue = []
    for f in critical_lines:
        key = canonical(f)
        nodes[key] = (f, line_param(f), "critical")
        queue.append(key)
    while queue:
        key = queue.pop(0)
        form, param, _origin = nodes[key]
        image_param = [substitute(g, param, 2) for g in forms]
        bound = d * form_degree(form)
        samples = param_points(image_param, len(monomial_exps(3, bound)) + 4)
        image = implicit_curve(samples, bound)
        ikey = canonical(image)
        successor[key] = ikey
        if ikey not in nodes:
            if len(nodes) >= budget:
                raise ValueError("post-critical closure exceeded its budget")
            nodes[ikey] = (image, image_param, "image")
            queue.append(ikey)
    return Closure(nodes, successor)


# -- periodic points -----------------------------------------------------------------


def roots_of_unity(n: int):
    return [cmath.exp(2j * math.pi * k / n) for k in range(n)]


def squaring_fixed_points(nvars: int, l: int):
    """Fixed points of the l-th iterate of coordinate squaring on P^(nvars-1).

    Every coordinate is 0 or a (2^l - 1)-th root of unity; the first
    non-zero coordinate is scaled to 1.
    """
    values = [0j] + roots_of_unity(2 ** l - 1)
    out = []
    for lead in range(nvars):
        for rest in product(values, repeat=nvars - lead - 1):
            out.append((0j,) * lead + (1 + 0j,) + rest)
    return out


def sym2_fixed_points(l: int):
    """Fixed points of the l-th iterate of the map induced by squaring on Sym^2(P^1).

    A point (x : y : z) is the pair of roots (a_i : b_i) of x t^2 - y t + z;
    squaring acts on each root.  The pair is fixed when both roots are fixed
    by t -> t^N with N = 2^l, or when the two roots are swapped by it.
    """
    n = 2 ** l
    fixed = [(1 + 0j, 0j), (0j, 1 + 0j)] + [(r, 1 + 0j) for r in roots_of_unity(n - 1)]
    pairs = [(fixed[i], fixed[j]) for i in range(len(fixed)) for j in range(i, len(fixed))]
    swapped = [r for r in roots_of_unity(n * n - 1) if abs(r ** (n - 1) - 1) > 1e-9]
    used = []
    for r in swapped:
        partner = r ** n
        if any(abs(partner - u) < 1e-9 for u in used):
            continue
        used.append(r)
        pairs.append(((r, 1 + 0j), (partner, 1 + 0j)))
    return [(b1 * b2, a1 * b2 + a2 * b1, a1 * a2) for (a1, b1), (a2, b2) in pairs]


def normalized(p):
    m = max(p, key=abs)
    return tuple(c / m for c in p)


def proj_distance(p, q) -> float:
    p, q = normalized(p), normalized(q)
    n = len(p)
    return max(abs(p[i] * q[j] - p[j] * q[i]) for i in range(n) for j in range(i + 1, n))


def float_forms(forms):
    return [[(e, complex(c)) for e, c in f.items()] for f in forms]


def orbit_residual(fforms, point, steps: int) -> float:
    """Projective distance between a point and its image under f^steps."""
    cur = normalized(point)
    for _ in range(steps):
        vals = []
        for f in fforms:
            acc = 0j
            for e, c in f:
                v = c
                for x, k in zip(cur, e):
                    if k:
                        v *= x ** k
                acc += v
            vals.append(acc)
        cur = normalized(vals)
    return proj_distance(cur, point)


def match_points(found, expected, tol: float) -> bool:
    """True when found and expected are the same multiset of points within tol."""
    if len(found) != len(expected):
        return False
    left = list(expected)
    for p in found:
        hit = next((i for i, q in enumerate(left) if proj_distance(p, q) < tol), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def is_power_of_two_or_zero(lam: complex, tol: float) -> bool:
    if abs(lam) < tol:
        return True
    return any(abs(lam - 2 ** q) < tol * 2 ** q for q in range(1, 65))


def match_spectra(found, expected, tol: float) -> bool:
    """Multisets of (period, spectrum) pairs agree up to tol, relative to size."""
    if len(found) != len(expected):
        return False
    left = list(expected)
    for per, spec in found:
        hit = None
        for i, (q, other) in enumerate(left):
            if q == per and len(spec) == len(other) and all(
                    abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(spec, other)):
                hit = i
                break
        if hit is None:
            return False
        left.pop(hit)
    return True


# -- basins ----------------------------------------------------------------------------


def squaring_basin(point, margin: float):
    """(index of the strictly largest |coordinate|, whether it leads by margin)."""
    mags = sorted(((abs(c), i) for i, c in enumerate(point)), reverse=True)
    if mags[0][0] == mags[1][0]:
        return None, False
    return mags[0][1], mags[0][0] > (1 + margin) * mags[1][0]


def sym2_inside_count(point, margin: float):
    """(roots of x t^2 - y t + z inside the unit disc, whether all sit off it by margin)."""
    x, y, z = point
    if x == 0:
        roots = [math.inf] if y == 0 else [math.inf, abs(z / y)]
    else:
        disc = cmath.sqrt(y * y - 4 * x * z)
        roots = [abs((y + disc) / (2 * x)), abs((y - disc) / (2 * x))]
    if len(roots) == 1:
        roots.append(math.inf)
    inside = sum(1 for r in roots if r < 1)
    clear = all(abs(r - 1) > margin for r in roots)
    return inside, clear
