"""Seeded generators for polygons and rigid motions.

Everything takes an explicit random.Random so callers control determinism.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from .geometry import Point2, Polygon, RigidMotion, is_convex

_TWO_PI = 2.0 * math.pi


def _separated(pts: list[tuple[float, float]], min_separation: float) -> bool:
    """Whether no two of the points lie closer than min_separation, as
    `distance_matrix` measures them. Pairs are read in x order, and one
    whose x coordinates differ by min_separation or more passes unmeasured,
    since hypot(dx, dy) >= |dx|."""
    pts = sorted(pts)
    for i, (x, y) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            u, w = pts[j]
            if u - x >= min_separation:
                break
            if not math.hypot(x - u, y - w) >= min_separation:
                return False
    return True


def random_polygon(rng: random.Random, n: int, min_separation: float = 5e-2) -> Polygon:
    """Vertices uniform in the square [-2, 2]^2, kept pairwise well separated."""
    while True:
        pts = [(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
        if _separated(pts, min_separation):
            return Polygon._checked([x for x, _ in pts], [y for _, y in pts])


def _walk(steps: Iterable[tuple[float, float]]) -> Polygon:
    """The polygon from the origin through the partial sums of steps; the
    last step, which returns to the start, adds no vertex."""
    xs, ys = [], []
    x = y = 0.0
    for dx, dy in steps:
        xs.append(x)
        ys.append(y)
        x += dx
        y += dy
    return Polygon._checked(xs, ys)


def _deltas(rng: random.Random, vals: list[float]) -> list[float]:
    """The gaps of the sorted vals, split into two chains from the first
    value to the last by one `rng.random()` per interior value; the second
    chain's gaps are negated, so the gaps sum to zero."""
    lo, hi = vals[0], vals[-1]
    last_a, last_b = lo, lo
    out = []
    for v in vals[1:-1]:
        if rng.random() < 0.5:
            out.append(v - last_a)
            last_a = v
        else:
            out.append(-(v - last_b))
            last_b = v
    out.append(hi - last_a)
    out.append(-(hi - last_b))
    return out


def random_convex_polygon(rng: random.Random, n: int) -> Polygon:
    """Random convex n-gon: sorted direction deltas closing up to zero.

    Draws two independent coordinate samples, pairs their gaps into edge
    vectors, and sorts the vectors by angle; the chain is convex and closed.
    Retries until strictly convex under `is_convex`, which decides each turn
    exactly: every turn is strictly one way and the outline winds once, so
    the vertices are pairwise distinct without a further check.
    """
    while True:
        xs = sorted(rng.uniform(-1.0, 1.0) for _ in range(n))
        ys = sorted(rng.uniform(-1.0, 1.0) for _ in range(n))
        dx = _deltas(rng, xs)
        dy = _deltas(rng, ys)
        rng.shuffle(dy)
        p = _walk(sorted(zip(dx, dy), key=lambda v: math.atan2(v[1], v[0])))
        if is_convex(p) and p.diameter() > 0.1:
            return p


def random_rigid_motion(rng: random.Random) -> RigidMotion:
    """A rotation by a uniform angle, then a shift uniform in [-3, 3]^2."""
    return RigidMotion(
        rng.uniform(0.0, _TWO_PI), Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    )
