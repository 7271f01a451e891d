"""Centers defined by optimization rather than by coordinate maps.

* geometric_median: the point minimizing the sum of distances to the
  vertices, by safeguarded Newton steps at unit scale with a subgradient
  vertex rule: when a vertex outweighs all the others, its pull decides
  whether it is the minimizer or the iteration steps off it.
* chebyshev_center: the center of the smallest circle enclosing the
  vertices, by randomized incremental construction (exact, not iterative).
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from .errors import NoConvergence
from .geometry import (
    Frozen, Point2, Polygon, require_nondegenerate, unit_coordinates, vertex_coordinates,
)

# Multiplicative slack when testing circle membership.
_IN_CIRCLE_SLACK = 1 + 1e-14
_U = 2.0**-53  # the unit roundoff


class MedianResult(Frozen):
    # Point2, int, float, then at_vertex: int | None, 0-based, if captured
    __slots__ = ("point", "iterations", "residual", "at_vertex")


class EnclosingCircle(Frozen):
    # Point2, float, then support: tuple[int, ...], 0-based vertices on the boundary
    __slots__ = ("center", "radius", "support")


# ------------------------------------------------------------ geometric median


def _vertex_pull(
    xs: Sequence[float], ys: Sequence[float], k: int
) -> tuple[float, float, float, float]:
    """Unit-vector sum at vertex k over the other vertices (x and y), its
    norm, and the sum of reciprocal distances (the local curvature scale).
    A vertex at distance 0, k itself or one that unit scaling rounded onto
    it, is skipped."""
    gx = gy = 0.0
    recip = 0.0
    xk, yk = xs[k], ys[k]
    for x, y in zip(xs, ys):
        d = math.hypot(xk - x, yk - y)
        if d == 0.0:
            continue
        gx += (x - xk) / d
        gy += (y - yk) / d
        recip += 1.0 / d
    return gx, gy, math.hypot(gx, gy), recip


def geometric_median(
    p: Polygon, tol: float = 1e-12, max_iter: int = 10000
) -> MedianResult:
    """Minimize the total distance to the vertices.

    The loop runs on `unit_coordinates` and scales the point back by the
    exact power of two: at 2^k times p the result is 2^k times p's, with
    the same iterations, residual and vertex, wherever that point is
    representable. It starts from the vertex mean. Each pass measures every
    distance d once, as the hypot of the vertex minus the iterate, and sums
    with `+=` in vertex order (the built-in `sum` is compensated from Python
    3.12 on) the objective, the unit vectors u (their sum g has the
    residual as its norm), the weights w = 1/d, and the Hessian's three
    sums of w*ux^2, w*ux*uy and w*uy^2.

    * Vertex rule (Vardi and Zhang, PNAS 97, 2000). When the iterate is on
      a vertex, or the nearest vertex's weight exceeds the sum of all the
      others', that vertex's pull decides (`_vertex_pull`). A pull of at
      most one makes the vertex the median, returned with its own
      coordinates. A larger one steps off it along the pull, by (pull - 1)
      over the sum of reciprocal distances; the vertex is then not tested
      again until the iterate lands on it.
    * Step (Overton, Math. Programming 27, 1983). The Newton step
      H^-1 g, H = sum w (I - u u^T), unless H is singular or the step
      leaves the box [-1, 1]^2, which holds every vertex and so the
      median; then the Weiszfeld step g / sum w. If the pass after a
      Newton step finds an objective that rose by more than the rounding
      of the two (`rise`), that pass, which still counts, is dropped, and
      the last iterate takes its Weiszfeld step, which does not raise the
      objective.
    * Target. The residual is scale-free, and the objective gap is at most
      the residual times the distance to the median, so tol is relative to
      the polygon's size. Where it is larger, the target is instead the
      residual that rounding the iterate and its n unit vectors can leave,
      4u(n + sum w (|x| + |y|)) at unit scale (u = 2^-53): the Hessian's
      norm is at most sum w.

    The extent is checked as `vertex_coordinates` checks it (NonFinite).
    Each pass counts as one iteration and tests the iterate it measured
    before stepping, so a budget of one returns only a start that already
    meets the target. Raises NoConvergence with the last accepted iterate
    attached when the budget runs out.
    """
    require_nondegenerate(p)
    vertex_coordinates(p)
    t, xs, ys = unit_coordinates(p)
    pts = list(zip(xs, ys))
    n = len(pts)
    hypot, inf = math.hypot, math.inf
    # Each distance is within (1 + u)(1 + 2u) of the exact one (a rounded
    # subtraction, then hypot), and the n summed with += within 1 + g_(n-1),
    # g_k = ku / (1 - ku) (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, 4.2), above the subnormal range. So two computed
    # objectives whose exact values did not rise differ by a factor of at
    # most (1 + g)/(1 - g), g = (n + 2)u + O(u^2), which the rounded product
    # by rise = 1 + 2(n + 4)u exceeds.
    rise = 1.0 + (2 * n + 8) * _U
    cx, cy = sum(xs) / n, sum(ys) / n
    last = None  # after a Newton step: the objective and Weiszfeld point before it
    pulled = set()  # vertices whose pull exceeds one
    best = None
    target = tol
    for it in range(1, max_iter + 1):
        f = gx = gy = wsum = sxx = sxy = syy = 0.0
        dmin = inf
        try:
            for a, b in pts:
                dx, dy = a - cx, b - cy
                d = hypot(dx, dy)
                w = 1.0 / d
                ux, uy = dx * w, dy * w
                f += d
                gx += ux
                gy += uy
                wsum += w
                wu = w * ux
                sxx += wu * ux
                sxy += wu * uy
                syy += w * uy * uy
                if d < dmin:
                    dmin, near = d, (a, b)
        except ZeroDivisionError:  # the iterate is vertex (a, b)
            near, wsum = (a, b), inf
        if wsum == inf or (2.0 / dmin > wsum and near not in pulled):
            k = pts.index(near)
            pull_x, pull_y, pull, recip = _vertex_pull(xs, ys, k)
            if pull <= 1.0:
                return MedianResult(Point2(p.xs[k], p.ys[k]), it, 0.0, k)
            pulled.add(near)
            step = (pull - 1.0) / recip
            cx, cy = near[0] + step * pull_x / pull, near[1] + step * pull_y / pull
            last = None
            continue
        if last is not None and f > last[0] * rise:
            cx, cy = last[1]
            last = None
            continue
        residual = hypot(gx, gy)
        target = max(tol, 4.0 * _U * (n + wsum * (abs(cx) + abs(cy))))
        if residual <= target:
            return MedianResult(Point2(cx / t, cy / t), it, residual, None)
        best = (cx, cy, it, residual)
        weiszfeld = cx + gx / wsum, cy + gy / wsum
        det = sxx * syy - sxy * sxy
        if det > 0.0:
            nx, ny = cx + (sxx * gx + sxy * gy) / det, cy + (sxy * gx + syy * gy) / det
        if det > 0.0 and abs(nx) < 1.0 and abs(ny) < 1.0:
            last = f, weiszfeld
            cx, cy = nx, ny
        else:
            cx, cy = weiszfeld
    raise NoConvergence(
        f"median iteration did not reach residual {target:.2e} in {max_iter} steps",
        None if best is None else MedianResult(Point2(best[0] / t, best[1] / t), *best[2:], None),
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
