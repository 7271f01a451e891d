"""Recover vertex positions from a matrix of pairwise distances.

The embedding is pinned down by placing vertex 1 at the origin and vertex 2
on the positive x-axis, and by choosing the clockwise (negative signed area)
copy of the two mirror-image solutions. That makes the output a canonical
representative of the congruence class described by the matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import InfeasibleDistances
from .geometry import (
    DistanceMatrix,
    Frozen,
    Polygon,
    _cayley_menger,
    _set,
    is_convex,
    shoelace,
    unit_factor,
)

# A reconstruction is accepted when no measured distance deviates from its
# input by more than this fraction of the largest input distance.
RESIDUAL_TOL = 1e-6
# Heights below this fraction of the largest input distance snap to the x-axis.
SNAP_EPS = 1e-12


class ReconstructionResult(Frozen):
    __slots__ = ("polygon", "max_residual")

    def __init__(self, polygon: Polygon, max_residual: float) -> None:
        _set(self, "polygon", polygon)
        _set(self, "max_residual", max_residual)


class FeasibilityReport(Frozen):
    # cm_checks: scale-free bordered determinants, one per 4-index subset
    # {1,2,k,l}, listed with (k,l) in lexicographic order.
    __slots__ = ("feasible", "max_residual", "cm_checks")

    def __init__(self, feasible: bool, max_residual: float, cm_checks: tuple[float, ...]) -> None:
        _set(self, "feasible", feasible)
        _set(self, "max_residual", max_residual)
        _set(self, "cm_checks", cm_checks)


def _miss(x: float, y: float, xs: list[float], ys: list[float], row: Sequence[float],
          t: float, bound: float = math.inf) -> float:
    """Largest gap between the distances from (x, y) to (xs, ys) and the
    lengths t * row[j], j < len(xs), read only until it reaches bound; below
    bound it is the whole largest gap."""
    worst = 0.0
    for a, b, r in zip(xs, ys, row):
        gap = abs(math.hypot(x - a, y - b) - t * r)
        if gap > worst:
            worst = gap
            if worst >= bound:
                break
    return worst


def reconstruct(D: DistanceMatrix) -> ReconstructionResult:
    """Embed the matrix in the plane, clockwise, base edge on the x-axis.

    Raises InfeasibleDistances when trilateration has no real solution or
    when the best placement leaves a residual above RESIDUAL_TOL relative
    to the largest input distance.

    Lengths are read times `unit_factor` of the largest (exact), so no square
    overflows. Each vertex keeps its residual against those placed before it;
    as mirroring changes no distance, the largest is the whole matrix's.
    """
    d = D.d
    scale = D.max_entry()
    t = unit_factor(scale)
    unit = t * scale
    tol = RESIDUAL_TOL * unit
    row0, row1 = d[0], d[1]
    d12 = t * row0[1]
    if d12 <= 0.0:
        raise InfeasibleDistances("d(1,2) must be positive to fix the base edge")
    xs, ys = [0.0, d12], [0.0, 0.0]
    worst = 0.0
    for k in range(2, len(d)):
        r1, r2 = t * row0[k], t * row1[k]
        x = (r1 * r1 + d12 * d12 - r2 * r2) / (2.0 * d12)
        h_sq = r1 * r1 - x * x
        if h_sq < -(tol * tol):
            raise InfeasibleDistances(
                f"no real placement for vertex {k + 1}: height^2 = {h_sq / t / t:.3e}"
            )
        h = math.sqrt(max(h_sq, 0.0))
        row = d[k]
        # snapped to the axis, or on the side that misses less (below on a
        # tie), reading above only until it misses as much as below
        y = 0.0 if h < SNAP_EPS * unit else -h
        miss = _miss(x, y, xs, ys, row, t)
        if y and (above := _miss(x, h, xs, ys, row, t, miss)) < miss:
            y, miss = h, above
        xs.append(x)
        ys.append(y)
        worst = max(worst, miss)
    if worst > tol:
        raise InfeasibleDistances(f"best planar placement misses the inputs by {worst / t:.3e}")
    if shoelace(xs, ys) > 0.0:
        ys = [-y for y in ys]
    poly = Polygon._checked([x / t for x in xs], [y / t for y in ys])
    return ReconstructionResult(poly, worst / t)


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
        e = [[v / scale for v in row] for row in D.d]
        checks = [
            _cayley_menger(e[0][1], e[1][k], e[k][l], e[l][0], e[0][k], e[1][l])
            for k in range(2, n) for l in range(k + 1, n)
        ]
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
