"""Seeded input generators of the benchmark.

They depend on nothing but the standard library, so a change to
``polycenter.sampling`` cannot change what the benchmark feeds the program.
Polygons are returned as lists of ``(x, y)`` float pairs.
"""

from __future__ import annotations

import math
import random

TWO_PI = 2.0 * math.pi


def _place(rng: random.Random, pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Apply a random similarity (scale, rotation, translation)."""
    s = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    th = rng.uniform(0.0, TWO_PI)
    tx, ty = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    c, sn = s * math.cos(th), s * math.sin(th)
    return [(c * x - sn * y + tx, sn * x + c * y + ty) for x, y in pts]


def _gaps(rng: random.Random, n: int) -> list[float]:
    """n positive angles summing to 2*pi, none below a third of the largest."""
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(raw)
    return [TWO_PI * g / total for g in raw]


def distance_sums(pts: list[tuple[float, float]]) -> list[float]:
    return [sum(math.hypot(x - u, y - v) for u, v in pts) for x, y in pts]


def has_clear_medoid(pts: list[tuple[float, float]], rel: float = 1e-6) -> bool:
    """Whether the smallest distance sum beats the next one by a clear margin."""
    sums = sorted(distance_sums(pts))
    diam = max(math.hypot(x - u, y - v) for x, y in pts for u, v in pts)
    return sums[1] - sums[0] > rel * diam


def convex_polygon(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Counterclockwise points on a random ellipse, with a clear medoid.

    Points on an ellipse in angular order are strictly convex, and the
    angular gaps are bounded below, so no three vertices are near collinear.
    """
    while True:
        a = rng.uniform(1.0, 2.0)
        b = a * rng.uniform(0.4, 0.9)
        t = rng.uniform(0.0, TWO_PI)
        pts = []
        for g in _gaps(rng, n):
            pts.append((a * math.cos(t), b * math.sin(t)))
            t += g
        pts = _place(rng, pts)
        if has_clear_medoid(pts):
            return pts


def star_polygon(rng: random.Random, n: int, winding: int) -> list[tuple[float, float]]:
    """The regular star {n/winding}, randomly placed."""
    return _place(
        rng, [(math.cos(TWO_PI * winding * j / n), math.sin(TWO_PI * winding * j / n)) for j in range(n)]
    )


def regular_polygon(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return star_polygon(rng, n, 1)


def equiangular_polygon(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Equal exterior angles, unequal sides.

    Side lengths are 1 plus two cosine modes whose frequencies avoid +-1
    mod n; such modes vanish from the closure sum, so the chain closes.
    """
    modes = rng.sample(range(2, n - 1), 2)
    amps = [rng.uniform(0.1, 0.2) for _ in modes]
    phases = [rng.uniform(0.0, TWO_PI) for _ in modes]
    pts = []
    x = y = 0.0
    for j in range(n):
        length = 1.0 + sum(
            a * math.cos(TWO_PI * m * j / n + p) for m, a, p in zip(modes, amps, phases)
        )
        pts.append((x, y))
        x += length * math.cos(TWO_PI * j / n)
        y += length * math.sin(TWO_PI * j / n)
    return _place(rng, pts)


def is_convex(pts: list[tuple[float, float]]) -> bool:
    """Strict convexity: every turn has the same nonzero sign and the
    polygon winds once."""
    n = len(pts)
    signs = set()
    turning = 0.0
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = pts[i - 1], pts[i], pts[(i + 1) % n]
        ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
        cross = ux * vy - uy * vx
        signs.add(cross > 0.0 if cross != 0.0 else None)
        turning += math.atan2(cross, ux * vx + uy * vy)
    return len(signs) == 1 and None not in signs and abs(abs(turning) - TWO_PI) < 1e-6


def scattered_polygon(
    rng: random.Random, n: int, box: float = 2.0, min_sep: float = 0.05
) -> list[tuple[float, float]]:
    """Uniform points in a square, pairwise at least min_sep apart, in an
    order that is not convex."""
    while True:
        pts: list[tuple[float, float]] = []
        while len(pts) < n:
            q = (rng.uniform(-box, box), rng.uniform(-box, box))
            if all(math.hypot(q[0] - u, q[1] - v) >= min_sep for u, v in pts):
                pts.append(q)
        if not is_convex(pts):
            return pts


def hub_polygon(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """A hub vertex with the other n-1 vertices clustered around it.

    The others sit at evenly spaced directions from the hub, so the unit
    vectors from the hub cancel and the geometric median is the hub,
    vertex 1.
    """
    phase = rng.uniform(0.0, TWO_PI)
    pts = [(0.0, 0.0)]
    for j in range(n - 1):
        r = rng.uniform(1.0, 2.0)
        t = phase + TWO_PI * j / (n - 1)
        pts.append((r * math.cos(t), r * math.sin(t)))
    return _place(rng, pts)


def distances(pts: list[tuple[float, float]]) -> list[list[float]]:
    n = len(pts)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            rows[i][j] = rows[j][i] = d
    return rows


def infeasible_distances(pts: list[tuple[float, float]]) -> list[list[float]]:
    """Measured distances with one diagonal stretched by half: no planar
    placement realizes them."""
    rows = distances(pts)
    k = len(pts) // 2 + 1
    rows[0][k] = rows[k][0] = 1.5 * rows[0][k]
    return rows
