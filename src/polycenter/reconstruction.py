"""Recover vertex positions from a matrix of pairwise distances.

The embedding is pinned down by placing vertex 1 at the origin and vertex 2
on the positive x-axis, and by choosing the clockwise (negative signed area)
copy of the two mirror-image solutions. That makes the output a canonical
representative of the congruence class described by the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleDistances
from .geometry import (
    DistanceMatrix,
    Point2,
    Polygon,
    cayley_menger_quad,
    distance_matrix,
    is_convex,
    signed_area,
)

# A reconstruction is accepted when no measured distance deviates from its
# input by more than this fraction of the largest input distance.
RESIDUAL_TOL = 1e-6
# Vertical components below this magnitude snap to the x-axis.
SNAP_EPS = 1e-12


@dataclass(frozen=True)
class ReconstructionResult:
    polygon: Polygon
    max_residual: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_residual: float
    # Scale-free bordered determinants, one per 4-index subset {1,2,k,l},
    # listed with (k,l) in lexicographic order.
    cm_checks: tuple[float, ...]


def _place(D: DistanceMatrix) -> tuple[list[Point2], float]:
    n = D.n
    d12 = D.entry(0, 1)
    scale = D.max_entry()
    # a product, not **: float ** raises OverflowError where * gives inf
    height_tol = RESIDUAL_TOL * scale
    if d12 <= 0.0:
        raise InfeasibleDistances("d(1,2) must be positive to fix the base edge")
    placed: list[Point2] = [Point2(0.0, 0.0), Point2(d12, 0.0)]
    for k in range(2, n):
        r1 = D.entry(0, k)
        r2 = D.entry(1, k)
        x = (r1 * r1 + d12 * d12 - r2 * r2) / (2.0 * d12)
        h_sq = r1 * r1 - x * x
        if h_sq < -(height_tol * height_tol):
            raise InfeasibleDistances(
                f"no real placement for vertex {k + 1}: height^2 = {h_sq:.3e}"
            )
        h = math.sqrt(max(h_sq, 0.0))
        if h < SNAP_EPS * max(1.0, scale):
            placed.append(Point2(x, 0.0))
            continue
        up = Point2(x, h)
        down = Point2(x, -h)

        def residual(cand: Point2) -> float:
            return max(
                abs(cand.distance_to(placed[j]) - D.entry(j, k)) for j in range(k)
            )
        r_up, r_down = residual(up), residual(down)
        placed.append(down if r_down <= r_up else up)
    return placed, scale


def reconstruct(D: DistanceMatrix) -> ReconstructionResult:
    """Embed the matrix in the plane, clockwise, base edge on the x-axis.

    Raises InfeasibleDistances when trilateration has no real solution or
    when the best placement leaves a residual above RESIDUAL_TOL relative
    to the largest input distance.
    """
    placed, scale = _place(D)
    poly = Polygon(tuple(placed))
    if signed_area(poly) > 0.0:
        poly = Polygon(tuple(Point2(v.x, -v.y) for v in placed))
    measured = distance_matrix(poly)
    max_residual = max(
        abs(a - b) for mrow, drow in zip(measured.d, D.d) for a, b in zip(mrow, drow)
    )
    if max_residual > RESIDUAL_TOL * scale:
        raise InfeasibleDistances(
            f"best planar placement misses the inputs by {max_residual:.3e}"
        )
    return ReconstructionResult(poly, max_residual)


def validate(D: DistanceMatrix) -> FeasibilityReport:
    """Reconstruction attempt plus scale-free planarity determinants.

    Each 4-index subset containing indices {1,2} contributes one bordered
    determinant of its six distances, measured on lengths divided by the
    largest entry of D, so the check is scale-free by construction. All of
    them vanish on planar-compatible inputs.
    """
    n = D.n
    scale = D.max_entry()
    checks: list[float] = []
    if scale > 0.0:
        for k in range(2, n):
            for l in range(k + 1, n):
                checks.append(cayley_menger_quad(
                    D.entry(0, 1) / scale,
                    D.entry(1, k) / scale,
                    D.entry(k, l) / scale,
                    D.entry(l, 0) / scale,
                    D.entry(0, k) / scale,
                    D.entry(1, l) / scale,
                ))
    try:
        result = reconstruct(D)
        return FeasibilityReport(True, result.max_residual, tuple(checks))
    except InfeasibleDistances:
        return FeasibilityReport(False, math.inf, tuple(checks))


def convex_distances(D: DistanceMatrix) -> bool:
    """Whether the matrix describes a convex polygon.

    Convexity is mirror-invariant, so it is determined by distances alone;
    infeasible matrices are simply not convex.
    """
    try:
        return is_convex(reconstruct(D).polygon)
    except InfeasibleDistances:
        return False
