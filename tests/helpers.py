"""Operations that only the tests use: the dihedral identity, inverse and
composition, the composition of rigid motions, projective equality, matrix
entries by cyclic index and permuted matrices, the signed area, the
equivariance check of the minimal centers, a call counter, and, kept as
references, the distance sums of full matrix rows and the polygon builders
that went through validated `Point2`s."""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from polycenter import sampling
from polycenter.errors import DomainViolation
from polycenter.framework import CHECK_TOL, ProjectiveCoords
from polycenter.geometry import (
    DihedralElement, DistanceMatrix, Point2, Polygon, RigidMotion, Similarity, apply_motion,
    distance_matrix, moved_coordinates, relabel, shoelace,
)
from polycenter.optim import chebyshev_center, geometric_median
from samplers import random_similarity


def identity(n: int) -> DihedralElement:
    return DihedralElement(n, 0, False)


def inverse(g: DihedralElement) -> DihedralElement:
    if g.flip:
        return g
    return DihedralElement(g.n, -g.exponent_a, False)


def compose(g: DihedralElement, h: DihedralElement) -> DihedralElement:
    """g after h: (g * h)(i) = g(h(i))."""
    if g.n != h.n:
        raise ValueError("cannot compose elements of different groups")
    a = g.exponent_a + (-h.exponent_a if g.flip else h.exponent_a)
    return DihedralElement(g.n, a, g.flip ^ h.flip)


def compose_motions(m1: RigidMotion, m2: RigidMotion) -> RigidMotion:
    """m1 after m2."""
    return RigidMotion(m1.angle + m2.angle, m1.apply(m2.translation))


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


def permuted(D: DistanceMatrix, perm: tuple[int, ...]) -> DistanceMatrix:
    """Entry (i,j) of the result is entry (perm[i], perm[j]) of D;
    not revalidated, as it reads only entries of a valid matrix."""
    pick = itemgetter(*perm)
    return DistanceMatrix._of(tuple(map(pick, pick(D.d))))


def signed_area(p: Polygon) -> float:
    """Shoelace area; positive for counterclockwise vertex order."""
    return 0.5 * shoelace(p.xs, p.ys)


@contextmanager
def calls_of(function: Callable) -> Iterator[list]:
    """A list that grows by one for each call of the Python function
    `function` while the block runs, however the call reaches it: a profile
    hook sees every frame that runs its code."""
    code, calls, outer = function.__code__, [], sys.getprofile()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(None)

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(outer)


# ------------------------------------------------------ medoid (reference)


def _distance_sums(p: Polygon) -> list[float]:
    """Sum of distances from each vertex to all vertices: the `math.fsum` of
    each full row of `distance_matrix(p)`, so the same as summing
    v.distance_to(w) over w in any order, bit for bit; inf where it
    overflows. The definition the `medoid` marks are held to."""

    def total(row: Sequence[float]) -> float:
        try:
            return math.fsum(row)
        except OverflowError:
            return math.inf

    return [total(row) for row in distance_matrix(p).d]


# ------------------------------------------------ minimal-center equivariance


def _solve(kind: str, p: Polygon) -> Point2:
    if kind == "median":
        return geometric_median(p, tol=1e-13, max_iter=200000).point
    if kind == "chebyshev":
        return chebyshev_center(p).center
    raise DomainViolation(f"unknown minimal-center kind {kind!r}")


def check_minimal_center(
    kind: str,
    p: Polygon,
    candidate: Point2,
    trials: int = 8,
    seed: int = 0,
) -> float:
    """Max distance between re-solved centers of transformed copies and the
    transformed candidate, over random relabelings, rigid motions, and
    scalings. Near zero exactly when the candidate is the true center."""
    rng = random.Random(seed)
    score = 0.0
    for _ in range(trials):
        sim = random_similarity(rng)
        alpha = DihedralElement(p.n, rng.randrange(p.n), rng.random() < 0.5)
        moved = relabel(alpha, apply_motion(sim, p))
        resolved = _solve(kind, moved)
        expected = sim.apply(candidate)
        score = max(score, resolved.distance_to(expected))
    return score


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
