"""Operations that only the tests use: the dihedral identity and inverse,
projective equality, matrix entries by cyclic index, and the polygon
builders that went through validated `Point2`s, kept as references."""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from polycenter import sampling
from polycenter.framework import CHECK_TOL, ProjectiveCoords
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, Point2, Polygon, RigidMotion, Similarity, moved_coordinates,
)


def identity(n: int) -> DihedralElement:
    return DihedralElement(n, 0, False)


def inverse(g: DihedralElement) -> DihedralElement:
    if g.flip:
        return g
    return DihedralElement(g.n, -g.exponent_a, False)


def proportional_to(a: ProjectiveCoords, b: ProjectiveCoords, tol: float = CHECK_TOL) -> bool:
    """Projective equality: normalize each by its largest-magnitude entry
    and compare in the max norm."""
    if a.n != b.n:
        return False
    x = _normalize_by_largest(a.values)
    y = _normalize_by_largest(b.values)
    return max(abs(u - v) for u, v in zip(x, y)) <= tol


def _normalize_by_largest(values: Sequence[float]) -> tuple[float, ...]:
    pivot = max(values, key=abs)
    return tuple(v / pivot for v in values)


def entry(D: DistanceMatrix, i: int, j: int) -> float:
    """Distance by cyclic 0-based indices."""
    return D.d[i % D.n][j % D.n]


# ------------------------------------------------- Point2 builders (reference)


def point2_from_pairs(pairs) -> Polygon:
    return Polygon(tuple(Point2(float(x), float(y)) for x, y in pairs))


def point2_regular_polygon(
    n: int,
    winding: int = 1,
    radius: float = 1.0,
    center: Point2 = Point2(0.0, 0.0),
    phase: float = 0.0,
) -> Polygon:
    if math.gcd(n, winding) != 1:
        raise ValueError(f"winding {winding} shares a factor with {n}")
    return Polygon(
        tuple(
            Point2(
                center.x + radius * math.cos(phase + 2.0 * math.pi * winding * j / n),
                center.y + radius * math.sin(phase + 2.0 * math.pi * winding * j / n),
            )
            for j in range(n)
        )
    )


def point2_random_polygon(rng: random.Random, n: int, min_separation: float = 5e-2) -> Polygon:
    while True:
        pts = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
        if sampling._separated(pts, min_separation):
            return point2_from_pairs(pts)


def point2_walk(steps: Iterable[tuple[float, float]]) -> Polygon:
    """`sampling._walk` through `Point2`s; the samplers built on it are the
    reference when `sampling._walk` is replaced by this."""
    pts = []
    x = y = 0.0
    for dx, dy in steps:
        pts.append(Point2(x, y))
        x += dx
        y += dy
    return Polygon(tuple(pts))


def point2_apply_motion(m: RigidMotion | Similarity, p: Polygon) -> Polygon:
    if isinstance(m, Similarity):
        return point2_apply_motion(m.motion, Polygon(tuple(v.scaled(m.scale) for v in p.vertices)))
    xs, ys = moved_coordinates(m, p.xs, p.ys)
    return Polygon(tuple(map(Point2, xs, ys)))
