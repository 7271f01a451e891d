"""Centers defined by optimization rather than by coordinate maps.

* geometric_median: the point minimizing the sum of distances to the
  vertices, by damped fixed-point iteration with an explicit vertex rule —
  when an iterate lands on a vertex, the subgradient test decides whether
  that vertex is the minimizer or the iteration should step off it.
* chebyshev_center: the center of the smallest circle enclosing the
  vertices, by randomized incremental construction (exact, not iterative).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from .errors import NoConvergence
from .geometry import Frozen, Point2, Polygon, _set, require_nondegenerate, unit_coordinates

# Multiplicative slack when testing circle membership.
_IN_CIRCLE_SLACK = 1 + 1e-14
# An iterate closer than this (scaled by the polygon diameter) to a vertex
# triggers the subgradient rule.
_VERTEX_SNAP = 1e-12


class MedianResult(Frozen):
    __slots__ = ("point", "iterations", "residual", "at_vertex")  # at_vertex: 0-based, if captured

    def __init__(self, point: Point2, iterations: int, residual: float,
                 at_vertex: Optional[int]) -> None:
        _set(self, "point", point)
        _set(self, "iterations", iterations)
        _set(self, "residual", residual)
        _set(self, "at_vertex", at_vertex)


class EnclosingCircle(Frozen):
    __slots__ = ("center", "radius", "support")  # support: 0-based vertices on the boundary

    def __init__(self, center: Point2, radius: float, support: tuple[int, ...]) -> None:
        _set(self, "center", center)
        _set(self, "radius", radius)
        _set(self, "support", support)


# ------------------------------------------------------------ geometric median


def _vertex_pull(
    xs: Sequence[float], ys: Sequence[float], k: int
) -> tuple[float, float, float, float]:
    """Unit-vector sum at vertex k over the other vertices (x and y), its
    norm, and the sum of reciprocal distances (the local curvature scale)."""
    gx = gy = 0.0
    recip = 0.0
    xk, yk = xs[k], ys[k]
    for j, (x, y) in enumerate(zip(xs, ys)):
        if j == k:
            continue
        d = math.hypot(xk - x, yk - y)
        gx += (x - xk) / d
        gy += (y - yk) / d
        recip += 1.0 / d
    return gx, gy, math.hypot(gx, gy), recip


def geometric_median(
    p: Polygon, tol: float = 1e-12, max_iter: int = 10000
) -> MedianResult:
    """Minimize the total distance to the vertices.

    Starts from the vertex mean. Convergence is declared when the norm of
    the unit-vector sum (the stationarity residual) times the diameter
    drops to tol, which bounds the objective gap. Raises NoConvergence
    with the best iterate attached when the budget runs out.

    The diameter, which scales the snap distance and the target, is
    `Polygon.diameter`'s pruned search. Each step is one pass over the
    vertices: it measures each distance once, as the hypot of the vertex
    minus the iterate, stops at the first vertex within the snap distance
    (the vertex rule), and otherwise accumulates the residual and the
    weights of the next iterate with `+=` in vertex order. The built-in
    `sum` would not do: it is compensated from Python 3.12 on.
    """
    require_nondegenerate(p)
    diam = p.diameter()
    snap = _VERTEX_SNAP * max(1.0, diam)
    target = max(tol / max(diam, 1e-30), 1e-13)

    # the iterate is (cx, cy); a Point2 is built only for what is returned
    xs, ys = p.xs, p.ys
    pts = list(zip(xs, ys))
    hypot = math.hypot
    cx, cy = p.vertex_mean().as_tuple()
    best: Optional[tuple[float, float, int, float]] = None
    for it in range(1, max_iter + 1):
        # one pass: the first vertex within snap, or else the unit-vector sum
        # toward the vertices (its norm is the residual) and the weights of
        # the fixed-point step, a distance-weighted mean
        near = None
        gx = gy = wx = wy = wsum = 0.0
        for k, (a, b) in enumerate(pts):
            dx, dy = a - cx, b - cy
            d = hypot(dx, dy)
            if d <= snap:
                near = k
                break
            gx += dx / d
            gy += dy / d
            w = 1.0 / d
            wx += w * a
            wy += w * b
            wsum += w
        if near is not None:
            pull_x, pull_y, pull_norm, recip = _vertex_pull(xs, ys, near)
            if pull_norm <= 1.0:
                # the vertex itself is the minimizer
                return MedianResult(
                    Point2(xs[near], ys[near]), it, max(pull_norm - 1.0, 0.0), near
                )
            step = (pull_norm - 1.0) / recip
            cx = xs[near] + step * pull_x / pull_norm
            cy = ys[near] + step * pull_y / pull_norm
        else:
            residual = math.hypot(gx, gy)
            if residual <= target:
                return MedianResult(Point2(cx, cy), it, residual, None)
            best = (cx, cy, it, residual)
            cx, cy = wx / wsum, wy / wsum
        if not (math.isfinite(cx) and math.isfinite(cy)):
            Point2(cx, cy)  # raises NonFinite, as the iterate's Point2 did
    raise NoConvergence(
        f"median iteration did not reach residual {target:.2e} in {max_iter} steps",
        None if best is None else MedianResult(Point2(*best[:2]), *best[2:], None),
    )


# -------------------------------------------------------- enclosing circle

_Pair = tuple[float, float]  # a point's coordinates


def _circle_from_two(a: _Pair, b: _Pair) -> tuple[_Pair, float]:
    c = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
    return c, max(math.dist(c, a), math.dist(c, b))


def _circle_from_three(a: _Pair, b: _Pair, c: _Pair) -> Optional[tuple[_Pair, float]]:
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
    center = (x, y)
    return center, max(math.dist(center, q) for q in (a, b, c))


def chebyshev_center(p: Polygon) -> EnclosingCircle:
    """Smallest circle enclosing the vertex set.

    Randomized incremental (move-to-front) construction over one fixed
    shuffle of the vertex indices; exact up to floating point, and
    deterministic for a labeled input. The support holds 2 or 3 vertex
    indices on the boundary; with four or more cocircular vertices, which
    of them it names depends on the labeling.

    The construction reads the coordinates at unit scale
    (`unit_coordinates`) and scales the circle back, so no squared term
    overflows or underflows: at 2^k times p, the circle is 2^k times p's,
    on the same support. Candidate centers are (x, y) pairs, measured with
    `math.dist`; a `Point2` is built only for the circle returned.
    """
    require_nondegenerate(p)
    order = list(range(p.n))
    random.Random(0).shuffle(order)
    t, xs, ys = unit_coordinates(p)
    pts = list(zip(xs, ys))

    center: Optional[_Pair] = None
    radius = 0.0
    support: tuple[int, ...] = ()

    for i, pi in enumerate(order):
        if center is not None and math.dist(center, pts[pi]) <= radius * _IN_CIRCLE_SLACK:
            continue
        # circle through pts[pi] and the prefix
        center, radius, support = pts[pi], 0.0, (pi,)
        for j in range(i):
            pj = order[j]
            if math.dist(center, pts[pj]) <= radius * _IN_CIRCLE_SLACK:
                continue
            # circle through pts[pi], pts[pj]
            center, radius = _circle_from_two(pts[pi], pts[pj])
            support = (pi, pj)
            for k in range(j):
                pk = order[k]
                if math.dist(center, pts[pk]) <= radius * _IN_CIRCLE_SLACK:
                    continue
                cand = _circle_from_three(pts[pi], pts[pj], pts[pk])
                if cand is None:
                    continue
                center, radius = cand
                support = (pi, pj, pk)
    assert center is not None
    return EnclosingCircle(
        Point2(center[0] / t, center[1] / t), radius / t, tuple(sorted(support))
    )
