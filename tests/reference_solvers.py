"""The per-shift probes, the both-sides reconstruction, the `Point2`
median loop and the `Point2`-centred enclosing circle, kept as the
references that the whole-map probes, the one-sided mirror read and the
float iterates and candidate centers must equal bit for bit, errors
included.

Each is the code as it stood before those kernels were rewritten: every
probe is evaluated on the n `Polygon.shifted` copies, `reconstruct` measures
both mirror sides of every vertex in full, `geometric_median` measures the
diameter over every pair, keeps its iterate as a `Point2` and builds a
`MedianResult` on every step, and
`chebyshev_center` builds a `Point2` for every candidate circle, reading the
coordinates from the vertices.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from polycenter.characterization import (
    COINCIDENCE_TOL, CharacterizationReport, CoincidenceReport, predicates,
)
from polycenter.errors import DegenerateVertex, InfeasibleDistances, NoConvergence, ParityMismatch
from polycenter.framework import VertexCenterFunction, cyclic_values
from polycenter.geometry import (
    DistanceMatrix, Point2, Polygon, cayley_menger_quad, distance_matrix, is_convex,
    is_nondegenerate, require_nondegenerate, shoelace, unit_factor, vertex_coordinates,
)
from polycenter.optim import _IN_CIRCLE_SLACK, _VERTEX_SNAP, EnclosingCircle, MedianResult
from polycenter.reconstruction import (
    RESIDUAL_TOL, SNAP_EPS, FeasibilityReport, ReconstructionResult,
)

# ------------------------------------------------------------------- probes


def f1_cosine(p: Polygon) -> float:
    v0, v1, vn = p.vertices[0], p.vertices[1], p.vertices[-1]
    u, w = Point2(v1.x - v0.x, v1.y - v0.y), Point2(vn.x - v0.x, vn.y - v0.y)  # NonFinite
    nu, nw = math.hypot(u.x, u.y), math.hypot(w.x, w.y)
    if nu == 0.0 or nw == 0.0:
        raise DegenerateVertex("vertex 1 coincides with a neighbour")
    return (u.x / nu) * (w.x / nw) + (u.y / nu) * (w.y / nw)


def f2_odd(p: Polygon) -> float:
    if p.n % 2 == 0:
        raise ParityMismatch(f"needs odd vertex count, got {p.n}")
    mid = (p.n + 1) // 2  # 1-based middle vertex
    return p.vertices[mid - 1].distance_to(p.vertices[mid])


def f3_even(p: Polygon) -> float:
    if p.n % 2 == 1:
        raise ParityMismatch(f"needs even vertex count, got {p.n}")
    half = p.n // 2  # 1-based
    return p.vertices[half - 1].distance_to(p.vertex(half + 1))


# No `all_shifts`: `cyclic_values` evaluates these on n shifted copies.
F1 = VertexCenterFunction("angle-cosine", f1_cosine)
F2_ODD = VertexCenterFunction("middle-side", f2_odd)
F3_EVEN = VertexCenterFunction("half-skip-diagonal", f3_even)


def coincidence(
    fg: VertexCenterFunction, p: Polygon, tol: float = COINCIDENCE_TOL
) -> CoincidenceReport:
    values = cyclic_values(fg, p)
    read = values
    if fg is F2_ODD or fg is F3_EVEN:
        t = unit_factor(max(values))
        read = [t * v for v in values]
    largest = max(abs(v) for v in read)
    spread = (max(read) - min(read)) / max(1.0, largest)
    return CoincidenceReport(values, spread <= tol, spread)


def characterize(p: Polygon, tol: float = COINCIDENCE_TOL) -> CharacterizationReport:
    if not is_nondegenerate(p):
        raise DegenerateVertex("characterization needs pairwise distinct vertices")
    flags = predicates(p)
    convex = is_convex(p)
    f1 = coincidence(F1, p, tol).coincident
    f2 = coincidence(F2_ODD, p, tol).coincident if p.n % 2 == 1 else None
    f3 = coincidence(F3_EVEN, p, tol).coincident if p.n % 2 == 0 else None

    consistent = True
    if convex:
        consistent &= f1 == flags["equiangular"]
    if p.n % 2 == 1:
        consistent &= f2 == flags["equilateral"]
    if p.n == 4 and flags["equiangular"]:
        consistent &= bool(f3)

    return CharacterizationReport(
        n=p.n,
        convex=convex,
        equiangular=flags["equiangular"],
        equilateral=flags["equilateral"],
        regular=flags["regular"],
        f1_coincident=f1,
        f2_coincident=f2,
        f3_coincident=f3,
        consistent_with_theorems=consistent,
    )


# ----------------------------------------------------------- reconstruction


def _miss(x: float, y: float, xs: list[float], ys: list[float], lengths: list[float]) -> float:
    return max(abs(math.hypot(x - a, y - b) - r) for a, b, r in zip(xs, ys, lengths))


def reconstruct(D: DistanceMatrix) -> ReconstructionResult:
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
        lengths = [t * r for r in d[k][:k]]
        # snapped to the axis, or on the side that misses less (below on a tie)
        sides = (0.0,) if h < SNAP_EPS * unit else (-h, h)
        miss, y = min((_miss(x, side, xs, ys, lengths), side) for side in sides)
        xs.append(x)
        ys.append(y)
        worst = max(worst, miss)
    if worst > tol:
        raise InfeasibleDistances(f"best planar placement misses the inputs by {worst / t:.3e}")
    if shoelace(xs, ys) > 0.0:
        ys = [-y for y in ys]
    poly = Polygon(tuple(Point2(x / t, y / t) for x, y in zip(xs, ys)))
    return ReconstructionResult(poly, worst / t)


def validate(D: DistanceMatrix) -> FeasibilityReport:
    n = D.n
    scale = D.max_entry()
    checks: list[float] = []
    if scale > 0.0:
        e = [[v / scale for v in row] for row in D.d]
        checks = [
            cayley_menger_quad(e[0][1], e[1][k], e[k][l], e[l][0], e[0][k], e[1][l])
            for k in range(2, n) for l in range(k + 1, n)
        ]
    try:
        result = reconstruct(D)
        return FeasibilityReport(True, result.max_residual, tuple(checks))
    except InfeasibleDistances:
        return FeasibilityReport(False, math.inf, tuple(checks))


# ----------------------------------------------------------- geometric median


def _vertex_pull(p: Polygon, k: int) -> tuple[Point2, float, float]:
    gx = gy = 0.0
    recip = 0.0
    vk = p.vertices[k]
    for j, v in enumerate(p.vertices):
        if j == k:
            continue
        d = vk.distance_to(v)
        gx += (v.x - vk.x) / d
        gy += (v.y - vk.y) / d
        recip += 1.0 / d
    return Point2(gx, gy), math.hypot(gx, gy), recip


def diameter(p: Polygon) -> float:
    # every pair measured, so that a wrong `Polygon.diameter` shows; the
    # extent is checked as `Polygon.diameter` checks it (NonFinite)
    vertex_coordinates(p)
    vs = p.vertices
    return max(vs[i].distance_to(vs[j]) for i in range(p.n) for j in range(i + 1, p.n))


def geometric_median(p: Polygon, tol: float = 1e-12, max_iter: int = 10000) -> MedianResult:
    require_nondegenerate(p)
    diam = diameter(p)
    snap = _VERTEX_SNAP * max(1.0, diam)
    target = max(tol / max(diam, 1e-30), 1e-13)

    x = p.vertex_mean()
    best: Optional[MedianResult] = None
    for it in range(1, max_iter + 1):
        dists = [x.distance_to(v) for v in p.vertices]
        near = next((k for k, d in enumerate(dists) if d <= snap), None)
        if near is not None:
            pull, pull_norm, recip = _vertex_pull(p, near)
            if pull_norm <= 1.0:
                return MedianResult(
                    p.vertices[near], it, max(pull_norm - 1.0, 0.0), near
                )
            step = (pull_norm - 1.0) / recip
            x = Point2(
                p.vertices[near].x + step * pull.x / pull_norm,
                p.vertices[near].y + step * pull.y / pull_norm,
            )
            continue
        gx = gy = wx = wy = wsum = 0.0
        for v, d in zip(p.vertices, dists):
            gx += (v.x - x.x) / d
            gy += (v.y - x.y) / d
            w = 1.0 / d
            wx += w * v.x
            wy += w * v.y
            wsum += w
        residual = math.hypot(gx, gy)
        best = MedianResult(x, it, residual, None)
        if residual <= target:
            return best
        x = Point2(wx / wsum, wy / wsum)
    raise NoConvergence(
        f"median iteration did not reach residual {target:.2e} in {max_iter} steps",
        best,
    )


# -------------------------------------------------------- enclosing circle


def _gap(center: Point2, q: tuple[float, float]) -> float:
    return math.hypot(center.x - q[0], center.y - q[1])


def _circle_from_two(a: tuple[float, float], b: tuple[float, float]) -> tuple[Point2, float]:
    c = Point2((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    return c, max(_gap(c, a), _gap(c, b))


def _circle_from_three(
    a: tuple[float, float], b: tuple[float, float], c: tuple[float, float]
) -> Optional[tuple[Point2, float]]:
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    ox = (min(ax, bx, cx) + max(ax, bx, cx)) / 2.0
    oy = (min(ay, by, cy) + max(ay, by, cy)) / 2.0
    ax, ay = ax - ox, ay - oy
    bx, by = bx - ox, by - oy
    cx, cy = cx - ox, cy - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ox + (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    y = oy + (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    center = Point2(x, y)
    return center, max(_gap(center, q) for q in (a, b, c))


def _in_circle(center: Point2, radius: float, q: tuple[float, float]) -> bool:
    return _gap(center, q) <= radius * _IN_CIRCLE_SLACK


def chebyshev_center(p: Polygon) -> EnclosingCircle:
    require_nondegenerate(p)
    order = list(range(p.n))
    random.Random(0).shuffle(order)
    xs, ys = [v.x for v in p.vertices], [v.y for v in p.vertices]
    t = unit_factor(max(max(xs), -min(xs), max(ys), -min(ys)))
    pts = [(t * x, t * y) for x, y in zip(xs, ys)]

    center: Optional[Point2] = None
    radius = 0.0
    support: tuple[int, ...] = ()
    for i, pi in enumerate(order):
        if center is not None and _in_circle(center, radius, pts[pi]):
            continue
        center, radius, support = Point2(*pts[pi]), 0.0, (pi,)
        for j in range(i):
            pj = order[j]
            if _in_circle(center, radius, pts[pj]):
                continue
            center, radius = _circle_from_two(pts[pi], pts[pj])
            support = (pi, pj)
            for k in range(j):
                pk = order[k]
                if _in_circle(center, radius, pts[pk]):
                    continue
                cand = _circle_from_three(pts[pi], pts[pj], pts[pk])
                if cand is None:
                    continue
                center, radius = cand
                support = (pi, pj, pk)
    assert center is not None
    return EnclosingCircle(
        Point2(center.x / t, center.y / t), radius / t, tuple(sorted(support))
    )


# --------------------------------------------------------------- separation


def separated(p: Polygon, min_separation: float) -> bool:
    """The matrix rule `random_polygon` used: every entry above the diagonal
    of the distance matrix is at least min_separation."""
    rows = distance_matrix(p).d
    return all(v >= min_separation for i, row in enumerate(rows) for v in row[i + 1:])
