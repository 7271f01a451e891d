"""Center functions and their coordinate maps.

A vertex center function maps a polygon to a real number and must be

  (1) invariant under the index reversal that fixes vertex 1,
  (2) positively homogeneous of some natural-number degree under scaling
      of the vertex coordinates,
  (3) invariant under orientation-preserving rigid motions.

A length center function maps a distance matrix to a real number and must
satisfy the analogues of (1) and (2); motion invariance is automatic.

Evaluating a function on all n cyclic shifts of its input yields projective
coordinates. Normalizing those to sum 1 gives weights, and the weighted
vertex combination is the point the function designates.

A domain guard must be invariant under cyclic relabeling: its answer on the
input holds for every shift. `cyclic_values`, the one kernel behind both
coordinate maps and the coincidence probes, therefore checks the guard once
per map, on the input as given, and then evaluates all n shifts. An input
on which a numerically fragile guard would answer differently for different
shifts (a near-collinear or near-infeasible matrix under the
reconstruction-based `perimeter` guard) is decided by the unshifted input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .errors import AllZero, DomainViolation, EvalError, ZeroSum
from .geometry import (
    DihedralElement,
    DistanceMatrix,
    Point2,
    Polygon,
    RigidMotion,
    distance_matrix,
    relabel,
)
from .reconstruction import reconstruct

# |sum of coordinates| at or below this fraction of the largest coordinate
# magnitude means no affine normalization exists.
ZERO_SUM_REL = 1e-10
# Default tolerance for projective comparison and the relabel/motion checks.
CHECK_TOL = 1e-9
# Homogeneity slope estimates must sit within this band of one constant.
SLOPE_TOL = 1e-6
_SCALES = (0.5, 1.0, 2.0, 4.0)


def _check_domain(fg: "CenterFunction", x: object, what: str) -> None:
    if fg.domain_guard is not None and not fg.domain_guard(x):
        note = f" ({fg.domain_note})" if fg.domain_note else ""
        raise DomainViolation(f"{fg.name}: {what} outside domain{note}")


def _finite(fg: "CenterFunction", value: float) -> float:
    if not math.isfinite(value):
        raise EvalError(f"{fg.name}: non-finite value {value!r}")
    return value


@dataclass(frozen=True)
class VertexCenterFunction:
    """A named evaluator on polygons with an optional domain guard.

    The guard must give the same answer on every cyclic shift of a polygon;
    coordinate maps check it once per map.
    """

    name: str
    evaluator: Callable[[Polygon], float]
    domain_guard: Optional[Callable[[Polygon], bool]] = None
    domain_note: str = ""

    def evaluate(self, p: Polygon) -> float:
        _check_domain(self, p, "polygon")
        return _finite(self, self.evaluator(p))


@dataclass(frozen=True)
class LengthCenterFunction:
    """A named evaluator on distance matrices with an optional domain guard.

    The guard must give the same answer on every cyclic rotation of a
    matrix; coordinate maps check it once per map.
    """

    name: str
    evaluator: Callable[[DistanceMatrix], float]
    domain_guard: Optional[Callable[[DistanceMatrix], bool]] = None
    domain_note: str = ""

    def evaluate(self, D: DistanceMatrix) -> float:
        _check_domain(self, D, "distances")
        return _finite(self, self.evaluator(D))


CenterFunction = Union[VertexCenterFunction, LengthCenterFunction]


@dataclass(frozen=True)
class ProjectiveCoords:
    """A tuple of homogeneous coordinates, not all zero."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 3:
            raise ValueError("projective coordinates need at least 3 entries")
        if all(v == 0.0 for v in self.values):
            raise ValueError("all-zero tuple is not a projective point")

    @property
    def n(self) -> int:
        return len(self.values)

    def proportional_to(self, other: "ProjectiveCoords", tol: float = CHECK_TOL) -> bool:
        """Projective equality: normalize each by its largest-magnitude entry
        and compare in the max norm."""
        if self.n != other.n:
            return False
        a = _normalize_by_largest(self.values)
        b = _normalize_by_largest(other.values)
        return max(abs(x - y) for x, y in zip(a, b)) <= tol


def _normalize_by_largest(values: Sequence[float]) -> tuple[float, ...]:
    pivot = max(values, key=abs)
    return tuple(v / pivot for v in values)


@dataclass(frozen=True)
class BarycentricWeights:
    """Affine weights over the vertices; entries sum to 1."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if abs(sum(self.values) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @property
    def n(self) -> int:
        return len(self.values)

    def combine(self, p: Polygon) -> Point2:
        if p.n != self.n:
            raise ValueError("weight count does not match vertex count")
        x = sum(w * v.x for w, v in zip(self.values, p.vertices))
        y = sum(w * v.y for w, v in zip(self.values, p.vertices))
        return Point2(x, y)


@dataclass(frozen=True)
class AxiomReport:
    relabel_ok: bool
    motion_ok: bool
    homogeneity_ok: bool
    estimated_degree: Optional[float]
    max_violation: float


# ------------------------------------------------------------ coordinate maps


def cyclic_values(
    fg: CenterFunction, x: Union[Polygon, DistanceMatrix]
) -> tuple[float, ...]:
    """Entry k is fg evaluated on x relabeled to start at vertex k.

    Equal to fg.evaluate on x.shifted(k) (vertex functions) or x.rotated(k)
    (length functions) for k = 0..n-1, with the same errors, except that the
    domain guard runs once, on x as given.
    """
    if isinstance(fg, VertexCenterFunction):
        _check_domain(fg, x, "polygon")
        relabelings = (x.shifted(k) for k in range(x.n))
    else:
        _check_domain(fg, x, "distances")
        relabelings = x.rotations()
    evaluator = fg.evaluator
    return tuple(_finite(fg, evaluator(y)) for y in relabelings)


def _projective(fg: CenterFunction, values: tuple[float, ...]) -> ProjectiveCoords:
    if all(v == 0.0 for v in values):
        raise AllZero(f"{fg.name}: every cyclic evaluation is zero")
    return ProjectiveCoords(values)


def coordinate_map_vertex(f: VertexCenterFunction, p: Polygon) -> ProjectiveCoords:
    """Entry k is f evaluated on the vertex cycle read from vertex k."""
    return _projective(f, cyclic_values(f, p))


def coordinate_map_length(g: LengthCenterFunction, D: DistanceMatrix) -> ProjectiveCoords:
    """Entry k is g evaluated on the matrix reindexed to start at vertex k."""
    return _projective(g, cyclic_values(g, D))


def normalize(coords: ProjectiveCoords) -> BarycentricWeights:
    """Scale coordinates to sum 1. Raises ZeroSum when the sum is negligible
    next to the largest coordinate magnitude."""
    total = sum(coords.values)
    largest = max(abs(v) for v in coords.values)
    if abs(total) <= ZERO_SUM_REL * largest:
        raise ZeroSum(f"coordinate sum {total:.3e} is negligible at scale {largest:.3e}")
    return BarycentricWeights(tuple(v / total for v in coords.values))


def geometric_center(fg: CenterFunction, p: Polygon) -> Point2:
    """The weighted vertex combination designated by the function on p.

    Length-based functions are evaluated on distances measured from p.
    """
    if isinstance(fg, VertexCenterFunction):
        coords = coordinate_map_vertex(fg, p)
    else:
        coords = coordinate_map_length(fg, distance_matrix(p))
    return normalize(coords).combine(p)


# ------------------------------------------------------------- lift / lower


def lift_length_to_vertex(g: LengthCenterFunction) -> VertexCenterFunction:
    """View a length function as a vertex function by measuring distances."""

    def evaluator(p: Polygon) -> float:
        return g.evaluator(distance_matrix(p))

    guard = None
    if g.domain_guard is not None:
        guard = lambda p: g.domain_guard(distance_matrix(p))  # noqa: E731
    return VertexCenterFunction(
        f"{g.name} (lifted)", evaluator, guard, g.domain_note
    )


def lower_vertex_to_length(f: VertexCenterFunction) -> LengthCenterFunction:
    """View a vertex function as a length function via reconstruction.

    Evaluation embeds the matrix (clockwise canonical copy) and applies f;
    infeasible matrices raise InfeasibleDistances from the embedding step.
    """

    def evaluator(D: DistanceMatrix) -> float:
        return f.evaluate(reconstruct(D).polygon)

    return LengthCenterFunction(f"{f.name} (lowered)", evaluator, None, f.domain_note)


# ------------------------------------------------------------- verification


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale


def _slope_fit(ts: Sequence[float], vals: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log|v| against log t, plus max fit deviation."""
    xs = [math.log(t) for t in ts]
    ys = [math.log(abs(v)) for v in vals]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    dev = max(abs(y - (my + slope * (x - mx))) for x, y in zip(xs, ys))
    return slope, dev


def verify_axioms(
    fg: CenterFunction,
    sampler: Callable[["random.Random"], Polygon],  # noqa: F821
    trials: int = 100,
    seed: int = 0,
    tol: float = CHECK_TOL,
) -> AxiomReport:
    """Check the defining properties on sampled inputs.

    Per trial: one reversal-relabeling comparison, one random rigid motion
    comparison, and evaluations at four coordinate scales whose log-log
    slope estimates the homogeneity degree. Homogeneity passes when every
    trial's slope sits within SLOPE_TOL of the cross-trial mean and the
    per-trial fit is equally tight. Trials where the function vanishes
    contribute nothing to the slope (0 = t**k * 0 holds for every k).
    """
    import random

    rng = random.Random(seed)
    is_vertex = isinstance(fg, VertexCenterFunction)
    worst = 0.0
    relabel_ok = True
    motion_ok = True
    slopes: list[float] = []
    fit_devs: list[float] = []

    for _ in range(trials):
        p = sampler(rng)
        base = fg.evaluate(p) if is_vertex else fg.evaluate(distance_matrix(p))

        # (1) reversal relabeling fixing vertex 1
        if is_vertex:
            rel = fg.evaluate(relabel(DihedralElement.sigma(p.n), p))
        else:
            perm = DihedralElement.sigma(p.n).permutation()
            rel = fg.evaluate(distance_matrix(p).permuted(perm))
        gap = _relative_gap(base, rel)
        worst = max(worst, gap)
        if gap > tol:
            relabel_ok = False

        # (3) random rigid motion
        motion = RigidMotion(
            rng.uniform(0.0, 2.0 * math.pi),
            Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
        )
        moved = Polygon(tuple(motion.apply(v) for v in p.vertices))
        mv = fg.evaluate(moved) if is_vertex else fg.evaluate(distance_matrix(moved))
        gap = _relative_gap(base, mv)
        worst = max(worst, gap)
        if gap > tol:
            motion_ok = False

        # (2) homogeneity across coordinate scales
        vals = []
        for t in _SCALES:
            scaled = Polygon(tuple(v.scaled(t) for v in p.vertices))
            vals.append(
                fg.evaluate(scaled) if is_vertex else fg.evaluate(distance_matrix(scaled))
            )
        if any(v == 0.0 for v in vals):
            continue
        if len({v > 0.0 for v in vals}) != 1:
            slopes.append(math.nan)
            fit_devs.append(math.inf)
            continue
        slope, dev = _slope_fit(_SCALES, vals)
        slopes.append(slope)
        fit_devs.append(dev)

    if slopes:
        finite = [s for s in slopes if math.isfinite(s)]
        if not finite:
            homogeneity_ok = False
            degree: Optional[float] = None
        else:
            mean = sum(finite) / len(finite)
            spread = max(
                max(abs(s - mean) for s in slopes) if all(map(math.isfinite, slopes)) else math.inf,
                max(fit_devs),
            )
            homogeneity_ok = spread <= SLOPE_TOL
            degree = mean if homogeneity_ok else None
            worst = max(worst, 0.0 if homogeneity_ok else spread)
    else:
        # the function vanished on every sample; scaling reveals nothing
        homogeneity_ok = True
        degree = None

    return AxiomReport(relabel_ok, motion_ok, homogeneity_ok, degree, worst)
