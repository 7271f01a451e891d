"""Polygon centers over vertices or mutual distances.

The library defines center functions (cyclically symmetric, homogeneous,
motion-invariant evaluations of a polygon or its distance matrix), turns
them into projective coordinate maps and weighted vertex combinations,
ships a small catalog plus two minimization-based centers, reconstructs
polygons from distance data, characterizes shapes through coordinate
coincidences, and parses a tiny expression language for new length-based
centers. The ``polycenter`` CLI fronts all of it.
"""

from .catalog import (
    CATALOG,
    CatalogEntry,
    lamina_centroid_direct,
    medoid,
)
from .characterization import (
    CharacterizationReport,
    CoincidenceReport,
    characterize,
    coincidence,
    interior_angles,
    predicates,
)
from .documents import PolygonDocument, read_document, write_document
from .dsl import ParsedCenter, admit, evaluate, parse, to_source
from .errors import (
    AllZero,
    AxiomViolation,
    CoordinateMapError,
    DegenerateVertex,
    DocumentError,
    DomainViolation,
    EvalError,
    ExprIndexError,
    ExprSyntaxError,
    InfeasibleDistances,
    NoConvergence,
    NonFinite,
    ParityMismatch,
    PolycenterError,
    Tie,
    ZeroArea,
    ZeroSum,
)
from .framework import (
    AxiomReport,
    BarycentricWeights,
    LengthCenterFunction,
    ProjectiveCoords,
    VertexCenterFunction,
    coordinate_map_length,
    coordinate_map_vertex,
    geometric_center,
    lift_length_to_vertex,
    lower_vertex_to_length,
    normalize,
    verify_axioms,
)
from .geometry import (
    DihedralElement,
    DistanceMatrix,
    Point2,
    Polygon,
    RigidMotion,
    Similarity,
    cayley_menger_quad,
    distance_matrix,
    relabel,
)
from .optim import (
    EnclosingCircle,
    MedianResult,
    chebyshev_center,
    geometric_median,
)
from .reconstruction import (
    FeasibilityReport,
    ReconstructionResult,
    reconstruct,
    validate,
)
from .svg import CenterRecord, emit_svg, render_svg

__version__ = "0.1.0"

__all__ = [
    "AllZero",
    "AxiomReport",
    "AxiomViolation",
    "BarycentricWeights",
    "CATALOG",
    "CatalogEntry",
    "CenterRecord",
    "CharacterizationReport",
    "CoincidenceReport",
    "CoordinateMapError",
    "DegenerateVertex",
    "DihedralElement",
    "DistanceMatrix",
    "DocumentError",
    "DomainViolation",
    "EnclosingCircle",
    "EvalError",
    "ExprIndexError",
    "ExprSyntaxError",
    "FeasibilityReport",
    "InfeasibleDistances",
    "LengthCenterFunction",
    "MedianResult",
    "NoConvergence",
    "NonFinite",
    "ParityMismatch",
    "ParsedCenter",
    "Point2",
    "Polygon",
    "PolygonDocument",
    "PolycenterError",
    "ProjectiveCoords",
    "ReconstructionResult",
    "RigidMotion",
    "Similarity",
    "Tie",
    "VertexCenterFunction",
    "ZeroArea",
    "ZeroSum",
    "admit",
    "cayley_menger_quad",
    "characterize",
    "chebyshev_center",
    "coincidence",
    "coordinate_map_length",
    "coordinate_map_vertex",
    "distance_matrix",
    "emit_svg",
    "evaluate",
    "geometric_center",
    "geometric_median",
    "interior_angles",
    "lamina_centroid_direct",
    "lift_length_to_vertex",
    "lower_vertex_to_length",
    "medoid",
    "normalize",
    "parse",
    "predicates",
    "read_document",
    "reconstruct",
    "relabel",
    "render_svg",
    "to_source",
    "validate",
    "verify_axioms",
    "write_document",
]
