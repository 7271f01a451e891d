"""The public names of `polycenter`, pinned.

A change to `__all__` is an API change and must show up here. The names
removed from the library because only the tests called them stay gone:
the tests keep what they still use in `helpers.py`.
"""

import importlib

import pytest

import polycenter

PUBLIC = [
    "AllZero", "AxiomReport", "AxiomViolation", "BarycentricWeights", "CATALOG",
    "CatalogEntry", "CenterRecord", "CharacterizationReport", "CoincidenceReport",
    "CoordinateMapError", "DegenerateVertex", "DihedralElement", "DistanceMatrix",
    "DocumentError", "DomainViolation", "EnclosingCircle", "EvalError", "ExprIndexError",
    "ExprSyntaxError", "FeasibilityReport", "InfeasibleDistances", "LengthCenterFunction",
    "MedianResult", "NoConvergence", "NonFinite", "ParityMismatch", "ParsedCenter", "Point2",
    "PolycenterError", "Polygon", "PolygonDocument", "ProjectiveCoords",
    "ReconstructionResult", "RigidMotion", "Similarity", "Tie", "VertexCenterFunction",
    "ZeroArea", "ZeroSum", "admit", "cayley_menger_quad", "characterize",
    "chebyshev_center", "coincidence", "coordinate_map_length", "coordinate_map_vertex",
    "distance_matrix", "emit_svg", "evaluate", "geometric_center", "geometric_median",
    "interior_angles", "lamina_centroid_direct", "lift_length_to_vertex",
    "lower_vertex_to_length", "medoid", "normalize", "parse", "predicates",
    "read_document", "reconstruct", "relabel", "render_svg", "to_source", "validate",
    "verify_axioms", "write_document",
]

# (module, dotted name) of every definition that left the library
REMOVED = [
    ("polycenter.catalog", "perimeter_centroid"),
    ("polycenter.catalog", "triangle_circumcenter"),
    ("polycenter.errors", "Collinear"),
    ("polycenter.optim", "check_minimal_center"),
    ("polycenter.optim", "_solve"),
    ("polycenter.geometry", "signed_area"),
    ("polycenter.geometry", "Polygon.perimeter"),
    ("polycenter.geometry", "DihedralElement.compose"),
    ("polycenter.geometry", "RigidMotion.compose"),
    ("polycenter.geometry", "DistanceMatrix.permuted"),
    ("polycenter.geometry", "DistanceMatrix.scaled"),
]


def test_public_names_are_pinned():
    assert sorted(polycenter.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_resolves(name):
    assert getattr(polycenter, name) is not None


@pytest.mark.parametrize("module, dotted", REMOVED, ids=[d for _, d in REMOVED])
def test_a_removed_name_is_gone(module, dotted):
    owner = importlib.import_module(module)
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, name)
    assert name not in polycenter.__all__ and not hasattr(polycenter, name)
