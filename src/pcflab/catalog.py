"""Built-in example maps with exact rational coefficients.

Every entry records where the map comes from; dynamical statements about
catalog maps are always recomputed by the analysis pipeline, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poly
from .projmap import ProjectiveMap


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    map: ProjectiveMap
    description: str
    provenance: str

    @property
    def k(self) -> int:
        return self.map.k

    @property
    def degree(self) -> int:
        return self.map.d


def _squaring_p1() -> ProjectiveMap:
    s = poly.variable(2, 0)
    t = poly.variable(2, 1)
    return ProjectiveMap([s * s, t * t])


def _squaring_p2() -> ProjectiveMap:
    x = poly.variable(3, 0)
    y = poly.variable(3, 1)
    z = poly.variable(3, 2)
    return ProjectiveMap([x * x, y * y, z * z])


def _fs_1992_a() -> ProjectiveMap:
    x = poly.variable(3, 0)
    y = poly.variable(3, 1)
    z = poly.variable(3, 2)
    two = poly.constant(3, 2)
    return ProjectiveMap([(x - two * y) ** 2, (x - two * z) ** 2, x * x])


_ENTRIES = (
    CatalogEntry(
        "squaring-p1",
        _squaring_p1(),
        "coordinate squaring on the line, (s^2 : t^2)",
        "standard example",
    ),
    CatalogEntry(
        "squaring-p2",
        _squaring_p2(),
        "coordinate squaring on the plane, (x^2 : y^2 : z^2)",
        "standard example",
    ),
    CatalogEntry(
        "fs-1992-a",
        _fs_1992_a(),
        "plane quadratic ((x-2y)^2 : (x-2z)^2 : x^2) whose post-critical set "
        "is eight lines with a three-line cycle",
        "literature example; all dynamical claims derived by this tool, not assumed",
    ),
)


def entries() -> tuple:
    return _ENTRIES


def names() -> tuple:
    return tuple(e.name for e in _ENTRIES)


def get(name: str) -> CatalogEntry:
    for e in _ENTRIES:
        if e.name == name:
            return e
    raise KeyError(name)


def to_mapfile(m: ProjectiveMap) -> dict:
    """Exact JSON-ready MapFile dictionary for a map."""
    components = []
    for comp in m.comps:
        terms = []
        for e in sorted(comp.terms, reverse=True):
            c = comp.terms[e]
            terms.append({
                "num": str(c.numerator),
                "den": str(c.denominator),
                "exps": list(e),
            })
        components.append(terms)
    return {"k": m.k, "degree": m.d, "components": components}
