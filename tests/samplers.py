"""Seeded polygon and similarity generators that only the tests draw from:
regular and star polygons, equiangular, convex non-equiangular and
equilateral polygons, and similarities. The library's own samplers are in
`polycenter.sampling`; the walks here go through `sampling._walk`, so a test
that replaces it replaces it here too."""

from __future__ import annotations

import math
import random
from typing import Optional

from polycenter import sampling
from polycenter.geometry import Point2, Polygon, Similarity, is_convex, is_nondegenerate
from polycenter.sampling import _TWO_PI, random_rigid_motion


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
        p = sampling._walk((l * math.cos(t), l * math.sin(t)) for t, l in zip(directions, lengths))
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
        p = sampling._walk((l * math.cos(t), l * math.sin(t)) for t, l in zip(directions, lengths))
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
        p = sampling._walk((math.cos(t), math.sin(t)) for t in angles)
        if is_nondegenerate(p) and p.diameter() >= 0.5:
            return p


def random_similarity(rng: random.Random) -> Similarity:
    scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return Similarity(scale, random_rigid_motion(rng))
