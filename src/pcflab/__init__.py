"""Exact post-critical finiteness analysis for endomorphisms of P^1 and P^2.

The package splits into six layers: ``poly`` (exact sparse homogeneous
polynomials), ``projmap`` (projective maps, embeddings, calculus),
``numeric`` (certified-precision root finding), ``pcf`` (critical locus,
post-critical closure, restriction tower, structural audits),
``periodic`` (periodic points, multipliers, eigenvalue audits) and
``fatou`` (super-attracting candidates and basin scans), with ``cli``
as the front door and ``catalog`` holding built-in example maps.
"""

from .poly import HomPoly, PolynomialError
from .projmap import (
    LinearEmbedding,
    MapError,
    DegreeCapError,
    ProjectiveMap,
    ValidationResult,
    iterate,
    jacobian_det,
    p1_degree,
    restrict,
    validate,
)
from .pcf import (
    Component,
    PcfError,
    PcfVerdict,
    PostCriticalGraph,
    TowerEntry,
    TowerLevel,
    build_tower,
    critical_components,
    image_of_component,
    postcritical_graph,
    restricted_critical_containment,
    weak_transversality,
)
from .periodic import (
    AuditReport,
    BudgetError,
    EigenClass,
    PeriodicPoint,
    bezout_audit,
    classify,
    eigenvalue_audit,
    find_periodic,
    multipliers,
)
from .fatou import (
    BasinGrid,
    BasinSummary,
    FatouError,
    ScanConfig,
    basin_summary,
    scan,
    superattracting_candidates,
)

__version__ = "0.1.0"

__all__ = [
    "HomPoly", "PolynomialError",
    "LinearEmbedding", "MapError", "DegreeCapError", "ProjectiveMap",
    "ValidationResult", "iterate", "jacobian_det", "p1_degree", "restrict",
    "validate",
    "Component", "PcfError", "PcfVerdict", "PostCriticalGraph", "TowerEntry",
    "TowerLevel", "build_tower", "critical_components", "image_of_component",
    "postcritical_graph", "restricted_critical_containment",
    "weak_transversality",
    "AuditReport", "BudgetError", "EigenClass", "PeriodicPoint",
    "bezout_audit", "classify", "eigenvalue_audit", "find_periodic",
    "multipliers",
    "BasinGrid", "BasinSummary", "FatouError", "ScanConfig", "basin_summary",
    "scan", "superattracting_candidates",
    "__version__",
]
