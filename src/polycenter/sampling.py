"""Seeded generators for polygons, motions, and similarities.

Everything takes an explicit random.Random so callers control determinism.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional

from .geometry import (
    Point2,
    Polygon,
    RigidMotion,
    Similarity,
    is_convex,
    is_nondegenerate,
)

_TWO_PI = 2.0 * math.pi


def regular_polygon(
    n: int,
    winding: int = 1,
    radius: float = 1.0,
    center: Point2 = Point2(0.0, 0.0),
    phase: float = 0.0,
) -> Polygon:
    """Vertices on a circle, stepping `winding` positions each time.

    winding=1 gives the convex regular n-gon; winding k coprime to n gives
    the star with symbol {n/k}.
    """
    if math.gcd(n, winding) != 1:
        raise ValueError(f"winding {winding} shares a factor with {n}")
    angles = [phase + _TWO_PI * winding * j / n for j in range(n)]
    return Polygon._checked([center.x + radius * math.cos(a) for a in angles],
                            [center.y + radius * math.sin(a) for a in angles])


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
        # split interior values into two chains per axis
        def deltas(vals: list[float]) -> list[float]:
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

        dx = deltas(xs)
        dy = deltas(ys)
        rng.shuffle(dy)
        p = _walk(sorted(zip(dx, dy), key=lambda v: math.atan2(v[1], v[0])))
        if is_convex(p) and p.diameter() > 0.1:
            return p


def _closure_lengths(
    rng: random.Random, directions: list[float], jitter: float
) -> Optional[list[float]]:
    """Positive side lengths making a chain of unit directions close up."""
    n = len(directions)
    ux = [math.cos(t) for t in directions]
    uy = [math.sin(t) for t in directions]
    lengths = [1.0 + rng.uniform(-jitter, jitter) for _ in range(n)]
    vx = sum(l * c for l, c in zip(lengths, ux))
    vy = sum(l * s for l, s in zip(lengths, uy))
    det = ux[0] * uy[1] - ux[1] * uy[0]
    if abs(det) < 1e-9:
        return None
    a = (vx * uy[1] - vy * ux[1]) / det
    b = (vy * ux[0] - vx * uy[0]) / det
    lengths[0] -= a
    lengths[1] -= b
    if min(lengths) <= 1e-3:
        return None
    return lengths


def random_equiangular_polygon(rng: random.Random, n: int) -> Polygon:
    """Convex polygon with all exterior angles equal and random side lengths."""
    while True:
        phase = rng.uniform(0.0, _TWO_PI)
        directions = [phase + _TWO_PI * i / n for i in range(n)]
        lengths = _closure_lengths(rng, directions, jitter=0.35)
        if lengths is None:
            continue
        p = _walk((l * math.cos(t), l * math.sin(t)) for t, l in zip(directions, lengths))
        if is_convex(p):
            return p


def random_convex_nonequiangular(rng: random.Random, n: int) -> Polygon:
    """Convex polygon whose exterior angles differ by at least ~1e-3."""
    while True:
        ext = [_TWO_PI / n * (1.0 + rng.uniform(-0.25, 0.25)) for _ in range(n)]
        factor = _TWO_PI / sum(ext)
        ext = [e * factor for e in ext]
        if max(ext) - min(ext) < 1e-3:
            continue
        phase = rng.uniform(0.0, _TWO_PI)
        directions = []
        t = phase
        for e in ext:
            directions.append(t)
            t += e
        lengths = _closure_lengths(rng, directions, jitter=0.2)
        if lengths is None:
            continue
        p = _walk((l * math.cos(t), l * math.sin(t)) for t, l in zip(directions, lengths))
        if is_convex(p):
            return p


def random_equilateral_polygon(rng: random.Random, n: int) -> Polygon:
    """Closed chain of n unit steps, not necessarily convex."""
    while True:
        angles = [rng.uniform(0.0, _TWO_PI) for _ in range(n - 2)]
        sx = sum(math.cos(t) for t in angles)
        sy = sum(math.sin(t) for t in angles)
        norm = math.hypot(sx, sy)
        if norm > 1.999 or norm < 1e-6:
            continue
        back = math.atan2(-sy, -sx)
        spread = math.acos(min(1.0, norm / 2.0))
        angles.append(back + spread)
        angles.append(back - spread)
        p = _walk((math.cos(t), math.sin(t)) for t in angles)
        if is_nondegenerate(p) and p.diameter() >= 0.5:
            return p


def random_rigid_motion(rng: random.Random) -> RigidMotion:
    """A rotation by a uniform angle, then a shift uniform in [-3, 3]^2."""
    return RigidMotion(
        rng.uniform(0.0, _TWO_PI), Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
    )


def random_similarity(rng: random.Random) -> Similarity:
    scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return Similarity(scale, random_rigid_motion(rng))
